# Runs every bench_repro entry at a tiny scale and requires exit 0 and each
# table's or figure's header line on stdout. Then runs the fluid ablation
# with a 1 s window, where every random configuration measures the same
# throughput, and requires it to finish and say so.
#
#   cmake -DBENCH_REPRO=<path to bench_repro> -P bench/bench_repro_smoke.cmake
if(NOT BENCH_REPRO)
  message(FATAL_ERROR "usage: cmake -DBENCH_REPRO=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

function(run_repro)
  execute_process(
    COMMAND "${BENCH_REPRO}" ${ARGN}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "bench_repro ${ARGN}: expected exit 0, got '${status}':\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

function(require_line text)
  string(FIND "${out}" "${text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "bench_repro output lacks '${text}':\n${out}")
  endif()
endfunction()

run_repro(all --steps=3 --reps=1 --passes=1 --duration=5)
foreach(header
    "== Table I: configuration parameters =="
    "== Table II: generated benchmark topologies =="
    "== Table III: number of operators of topologies in literature =="
    "== Figure 3: average network load per worker =="
    "== Figure 4: throughput by strategy and workload cell =="
    "== Figure 5: steps to best configuration =="
    "== Figure 7: optimizer step wall-time =="
    "== Figure 6: LOESS(0.75) of bo optimization traces =="
    "== Figure 8a: Sundog throughput by strategy/parameter set =="
    "== Figure 8b: Sundog tuning convergence (LOESS 0.75) =="
    "== Ablation: acquisition function (EI / PI / UCB) =="
    "== Ablation: GP kernel family and ARD =="
    "== Ablation: hyperparameter handling (slice / mle / fixed) =="
    "== Ablation: single-sample vs averaged measurements =="
    "== Ablation: edge fan-out semantics (split vs duplicate) =="
    "== Ablation: DES vs fluid bottleneck model =="
    "== Ablation: task placement policy ==")
  require_line("${header}")
endforeach()

run_repro(ablation-fluid --duration=1)
require_line("== Ablation: DES vs fluid bottleneck model ==")
require_line("over 40 random configs: undefined")
require_line("regret from trusting the")
message(STATUS "every bench_repro entry ran and printed its header; the "
               "fluid ablation reports a constant sample")
