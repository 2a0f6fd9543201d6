# Checks that `stormtune tune-many` output does not depend on --threads.
#
# Runs `stormtune tune-many` on a three-campaign file (one of them on the
# fidelity ladder) at --threads=1, 2, 4 and 0 (the automatic width), and
# requires the --jsonl files to be byte-identical.
#
#   cmake -DSTORMTUNE=<path to stormtune> -DWORK_DIR=<scratch dir> \
#         -P tools/tune_threads_invariant.cmake
if(NOT STORMTUNE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSTORMTUNE=... -DWORK_DIR=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

set(campaigns "${WORK_DIR}/campaigns.json")
file(WRITE "${campaigns}" [=[
[
  {"name": "bo", "topology": "small", "strategy": "bo", "steps": 6, "reps": 4, "duration": 20},
  {"name": "random", "topology": "small", "strategy": "random", "steps": 6, "reps": 4, "duration": 20, "seed": 9},
  {"name": "ladder", "topology": "small", "strategy": "bo", "fidelity": "ladder", "steps": 6, "reps": 4, "duration": 20}
]
]=])
foreach(threads 1 2 4 0)
  set(jsonl "${WORK_DIR}/tune_many_threads_${threads}.jsonl")
  execute_process(
    COMMAND "${STORMTUNE}" tune-many --campaigns=${campaigns}
            --threads=${threads} --jsonl=${jsonl}
    RESULT_VARIABLE status
    OUTPUT_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "stormtune tune-many --threads=${threads} failed: ${status}")
  endif()
  file(READ "${jsonl}" text)
  if(threads EQUAL 1)
    set(reference "${text}")
    string(REGEX MATCHALL "\"ticket\":" records "${text}")
    list(LENGTH records count)
    if(NOT count EQUAL 3)
      message(FATAL_ERROR "stormtune tune-many wrote ${count} records, not 3")
    endif()
  elseif(NOT text STREQUAL reference)
    message(FATAL_ERROR
            "stormtune tune-many --threads=${threads} output differs from "
            "--threads=1 (compare ${WORK_DIR}/tune_many_threads_*.jsonl)")
  endif()
endforeach()
message(STATUS "tune-many output identical at --threads=1,2,4,0")
