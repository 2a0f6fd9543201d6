# Checks that a malformed number is an error, not a crash.
#
# Runs `stormtune` with non-numeric values for numeric flags, and `tune`
# with --threads (one campaign runs on one thread; only tune-many takes a
# width), and requires each run to exit 2 and name the offending flag on
# stderr (an uncaught conversion exception would abort the process
# instead). Then runs
# `stormtune tune-many` on campaign files whose counts or seed are negative
# or fractional and requires each run to exit 1 and name the field.
#
#   cmake -DSTORMTUNE=<path to stormtune> -DWORK_DIR=<scratch dir> \
#         -P tools/cli_bad_number.cmake
if(NOT STORMTUNE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSTORMTUNE=... -DWORK_DIR=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

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
endforeach()

foreach(case "steps;-1" "reps;-1" "passes;-1" "gp_window;-1"
             "ladder_promote_top_k;-1" "seed;-1" "steps;2.5" "seed;0.5")
  list(GET case 0 field)
  list(GET case 1 value)
  set(campaigns "${WORK_DIR}/bad_${field}.json")
  file(WRITE "${campaigns}"
       "[{\"topology\": \"small\", \"${field}\": ${value}}]\n")
  execute_process(
    COMMAND "${STORMTUNE}" tune-many --campaigns=${campaigns}
    TIMEOUT 60
    RESULT_VARIABLE status
    OUTPUT_QUIET
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
endforeach()
message(STATUS "malformed numeric flags and tune --threads exit 2 and name "
               "the flag; malformed campaign counts exit 1 and name the field")
