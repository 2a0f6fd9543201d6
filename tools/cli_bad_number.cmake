# Checks that a malformed number is an error, not a crash.
#
# Runs `stormtune` with non-numeric values for numeric flags, and `tune`
# with --threads (one campaign runs on one thread; only tune-many takes a
# width), and requires each run to exit 2 and name the offending flag on
# stderr (an uncaught conversion exception would abort the process
# instead). Runs `simulate` and `info` with flags only other subcommands
# read and requires exit 2 naming the first such flag and the subcommand.
# Then runs
# `stormtune tune-many` on campaign files whose counts or seed are negative
# or fractional, whose duration is not positive, whose strategy, topology or
# what block is unknown, whose what repeats or leaves out a block, whose
# ladder challenge fraction is out of (0, 1], whose ladder campaign names
# a strategy the ladder cannot drive, or which repeats a field, and requires
# each run to exit 1, name the field and schedule nothing. Last,
# `simulate --duration=0` must exit 1 naming duration. No error message
# may carry a source location (a ".cpp:" of the build's checkout).
#
#   cmake -DSTORMTUNE=<path to stormtune> -DWORK_DIR=<scratch dir> \
#         -P tools/cli_bad_number.cmake
if(NOT STORMTUNE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSTORMTUNE=... -DWORK_DIR=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

function(require_no_location label err)
  string(FIND "${err}" ".cpp:" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${label}: stderr carries a source location:\n${err}")
  endif()
endfunction()

foreach(case "tune;medium;--steps=abc" "simulate;small;--hint=x"
             "tune;small;--duration=15s" "tune;small;--reps=-1"
             "tune;small;--threads=2")
  list(GET case 2 arg)
  string(REGEX REPLACE "=.*" "" flag "${arg}")
  execute_process(
    COMMAND "${STORMTUNE}" ${case}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "stormtune ${arg}: expected exit 2, got '${status}'")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stormtune ${arg}: stderr does not name ${flag}:\n${err}")
  endif()
  require_no_location("stormtune ${arg}" "${err}")
endforeach()

foreach(case "simulate;small;--threads=4;--steps=9"
             "info;small;--threads=4;--jsonl=x")
  list(GET case 0 command)
  execute_process(
    COMMAND "${STORMTUNE}" ${case}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "stormtune ${case}: expected exit 2, got '${status}'")
  endif()
  string(FIND "${err}" "--threads" at_flag)
  string(FIND "${err}" "'${command}'" at_command)
  if(at_flag EQUAL -1 OR at_command EQUAL -1)
    message(FATAL_ERROR
            "stormtune ${case}: stderr does not name --threads and "
            "'${command}':\n${err}")
  endif()
  require_no_location("stormtune ${case}" "${err}")
endforeach()

foreach(case "steps;-1" "reps;-1" "passes;-1" "gp_window;-1"
             "ladder_promote_top_k;-1" "seed;-1" "steps;2.5" "seed;0.5"
             "duration;-1" "duration;0" "strategy;\"bogus\""
             "strategy;\"pla\", \"fidelity\": \"ladder\""
             "topology;\"bogus\"" "what;\"zzz\"" "what;\"batch,batch\""
             "what;\"\"" "ladder_challenge_fraction;0"
             "ladder_challenge_fraction;2, \"fidelity\": \"ladder\""
             "steps;3, \"steps\": 2")
  list(GET case 0 field)
  list(GET case 1 value)
  set(campaigns "${WORK_DIR}/bad_${field}.json")
  if(field STREQUAL "topology")
    file(WRITE "${campaigns}" "[{\"topology\": ${value}}]\n")
  else()
    file(WRITE "${campaigns}"
         "[{\"topology\": \"small\", \"${field}\": ${value}}]\n")
  endif()
  execute_process(
    COMMAND "${STORMTUNE}" tune-many --campaigns=${campaigns}
    TIMEOUT 60
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "1")
    message(FATAL_ERROR
            "tune-many \"${field}\": ${value}: expected exit 1, got '${status}'")
  endif()
  string(FIND "${err}" "'${field}'" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "tune-many \"${field}\": ${value}: stderr does not name ${field}:\n${err}")
  endif()
  string(FIND "${out}" "scheduling" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR
            "tune-many \"${field}\": ${value}: scheduled campaigns:\n${out}")
  endif()
  require_no_location("tune-many \"${field}\": ${value}" "${err}")
endforeach()
# A measurement window that is not a finite positive length is refused by
# the simulator from the command line too.
execute_process(
  COMMAND "${STORMTUNE}" simulate small --duration=0
  TIMEOUT 60
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "stormtune simulate --duration=0: expected exit 1, got "
                      "'${status}'")
endif()
string(FIND "${err}" "duration" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "stormtune simulate --duration=0: stderr does not name duration:\n${err}")
endif()
require_no_location("stormtune simulate --duration=0" "${err}")
message(STATUS "malformed numeric flags, tune --threads and flags of other "
               "subcommands exit 2 and name the flag; malformed campaign "
               "counts and values exit 1 and name the field; simulate "
               "--duration=0 exits 1 naming duration; no error carries a "
               "source location")
