# Fails when a weak function is defined in more than one of the ISA kernel
# objects (linalg/kernels.cpp, kernels_avx2.cpp, kernels_avx512.cpp).
# Each of them is compiled with its own -m<isa> flag. The linker keeps one
# copy of a weak definition, so one emitted by a wide TU could run AVX-512
# code on the portable path; unoptimized builds emit inline functions
# this way. Weak objects (nm types V, v, u) hold data, not code, and are
# not checked: sanitizer builds give every object the same
# DW.ref.__gxx_personality_v0. It also fails when a kernel object
# references libmvec's vector erfc (an undefined _ZGV*erfc* symbol): the
# EI bounds use the coefficient-only lane erfc, and libmvec's erfc tables
# cost every process that reaches them about 160 KB of resident memory.
# Last, it fails when a kernel object exports a code or data symbol (nm
# types T, D, R, B) other than its KernelOps table: each path is one table,
# so anything else exported from a wide object is an entry point that
# escaped it. The portable object also exports ops(), ops_for(),
# correlation_from_scaled_sq() and, in checked builds,
# detail::check_correlation_samples(). AddressSanitizer's ODR indicator
# for an exported global (__odr_asan.<symbol>) is not checked: the global
# it stands for is.
# Usage:
#   cmake -DNM=<nm> -DOBJECTS=<obj|obj|...> -P kernel_weak_symbols.cmake
cmake_minimum_required(VERSION 3.16)
string(REPLACE "|" ";" objects "${OBJECTS}")
set(kernel_objects 0)
set(seen "")
set(duplicates "")
set(vector_erfc "")
set(exported "")
set(ns "stormtune::linalg_kernels::")
foreach(obj IN LISTS objects)
  if(NOT obj MATCHES "/kernels(_avx2|_avx512)?\\.cpp\\.o$")
    continue()
  endif()
  set(wide "${CMAKE_MATCH_1}")
  math(EXPR kernel_objects "${kernel_objects} + 1")
  if(wide)
    string(SUBSTRING "${wide}" 1 -1 path)
    set(allowed "^${ns}${path}::kOps$")
  else()
    string(CONCAT allowed "^${ns}(portable::kOps$|ops\\(|ops_for\\(|"
                  "correlation_from_scaled_sq\\(|"
                  "detail::check_correlation_samples\\()")
  endif()
  execute_process(COMMAND "${NM}" --defined-only --extern-only -C "${obj}"
                  OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} --defined-only --extern-only ${obj} failed "
                        "(${rc})")
  endif()
  string(REPLACE "\n" ";" lines "${listing}")
  foreach(line IN LISTS lines)
    if(line MATCHES "^[0-9a-fA-F]* *[TDRB] (.+)$")
      set(sym "${CMAKE_MATCH_1}")
      if(NOT sym MATCHES "${allowed}" AND NOT sym MATCHES "^__odr_asan\\.")
        list(APPEND exported "${obj}: ${sym}")
      endif()
    endif()
  endforeach()
  execute_process(COMMAND "${NM}" --defined-only "${obj}"
                  OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} --defined-only ${obj} failed (${rc})")
  endif()
  string(REPLACE "\n" ";" lines "${listing}")
  set(weak "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^[0-9a-fA-F]* *[Ww] (.+)$")
      list(APPEND weak "${CMAKE_MATCH_1}")
    endif()
  endforeach()
  list(REMOVE_DUPLICATES weak)
  execute_process(COMMAND "${NM}" --undefined-only "${obj}"
                  OUTPUT_VARIABLE undefined RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} --undefined-only ${obj} failed (${rc})")
  endif()
  if(undefined MATCHES "(_ZGV[A-Za-z0-9_]*erfc[A-Za-z0-9_]*)")
    list(APPEND vector_erfc "${obj}: ${CMAKE_MATCH_1}")
  endif()
  foreach(sym IN LISTS weak)
    if(sym IN_LIST seen)
      list(APPEND duplicates "${sym}")
    else()
      list(APPEND seen "${sym}")
    endif()
  endforeach()
endforeach()
if(NOT kernel_objects EQUAL 3)
  message(FATAL_ERROR "expected the three kernel objects, found "
                      "${kernel_objects} in: ${OBJECTS}")
endif()
if(vector_erfc)
  string(REPLACE ";" "\n  " shown "${vector_erfc}")
  message(FATAL_ERROR "kernel objects reference libmvec's vector erfc:\n  "
                      "${shown}")
endif()
if(duplicates)
  list(REMOVE_DUPLICATES duplicates)
  string(REPLACE ";" "\n  " shown "${duplicates}")
  message(FATAL_ERROR "weak functions defined in more than one kernel "
                      "object:\n  ${shown}")
endif()
if(exported)
  string(REPLACE ";" "\n  " shown "${exported}")
  message(FATAL_ERROR "kernel objects export symbols other than their "
                      "tables:\n  ${shown}")
endif()
message(STATUS "kernel objects define no weak function twice, reference "
               "no vector erfc and export only their tables")
