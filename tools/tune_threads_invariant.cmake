# Checks that `stormtune tune` output does not depend on --threads.
#
# Runs `stormtune tune small --steps=8 --reps=6 --json=FILE` at
# --threads=1, 2 and 4 and requires the JSON documents to be byte-identical.
#
#   cmake -DSTORMTUNE=<path to stormtune> -DWORK_DIR=<scratch dir> \
#         -P tools/tune_threads_invariant.cmake
if(NOT STORMTUNE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSTORMTUNE=... -DWORK_DIR=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

set(reference "")
foreach(threads 1 2 4)
  set(json "${WORK_DIR}/tune_threads_${threads}.json")
  execute_process(
    COMMAND "${STORMTUNE}" tune small --steps=8 --reps=6
            --threads=${threads} --json=${json}
    RESULT_VARIABLE status
    OUTPUT_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "stormtune tune --threads=${threads} failed: ${status}")
  endif()
  file(READ "${json}" text)
  if(threads EQUAL 1)
    set(reference "${text}")
  elseif(NOT text STREQUAL reference)
    message(FATAL_ERROR
            "stormtune tune --threads=${threads} output differs from "
            "--threads=1 (compare ${WORK_DIR}/tune_threads_*.json)")
  endif()
endforeach()
message(STATUS "tune output identical at --threads=1,2,4")
