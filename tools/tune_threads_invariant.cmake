# Checks that `stormtune tune` and `stormtune tune-many` output does not
# depend on --threads.
#
# Runs `stormtune tune small --steps=8 --reps=6 --json=FILE` at
# --threads=1, 2, 4, 8 and 0 (the automatic width), and requires the JSON
# documents to be byte-identical. Then runs `stormtune tune-many` on a
# three-campaign file (one of them on the fidelity ladder) at --threads=1,
# 2, 4 and 0, and requires the --jsonl files to be byte-identical.
#
#   cmake -DSTORMTUNE=<path to stormtune> -DWORK_DIR=<scratch dir> \
#         -P tools/tune_threads_invariant.cmake
if(NOT STORMTUNE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSTORMTUNE=... -DWORK_DIR=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

set(reference "")
foreach(threads 1 2 4 8 0)
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
message(STATUS "tune output identical at --threads=1,2,4,8,0; "
               "tune-many output identical at --threads=1,2,4,0")
