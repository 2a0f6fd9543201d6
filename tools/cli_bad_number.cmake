# Checks that a malformed numeric flag is a usage error, not a crash.
#
# Runs `stormtune` with non-numeric values for numeric flags and requires
# each run to exit 2 and name the offending flag on stderr (an uncaught
# conversion exception would abort the process instead).
#
#   cmake -DSTORMTUNE=<path to stormtune> -P tools/cli_bad_number.cmake
if(NOT STORMTUNE)
  message(FATAL_ERROR "usage: cmake -DSTORMTUNE=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

foreach(case "tune;medium;--steps=abc" "simulate;small;--hint=x"
             "tune;small;--duration=15s" "tune;small;--reps=-1")
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
message(STATUS "malformed numeric flags exit 2 and name the flag")
