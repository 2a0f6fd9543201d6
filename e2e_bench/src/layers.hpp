// Direct calls into the surrogate's layers (gp, linalg) at a workload's
// largest surrogate shape, so a change to either layer shows here in
// isolation next to the campaign-level numbers it should move.
#pragma once

#include <cstddef>
#include <cstdint>

namespace e2e {

/// Median wall time of each call, measured at n observations in d
/// dimensions.
struct LayerTimings {
  double gp_fit_ms = 0.0;             ///< GpRegressor::fit, cold caches
  double gp_refit_ms = 0.0;           ///< set_kernel_hyperparams + fit
  double gp_predict_batch_ms = 0.0;   ///< predict_batch over 512 rows
  double linalg_cholesky_ms = 0.0;    ///< Cholesky::refactor at n
  double linalg_append_row_us = 0.0;  ///< Cholesky::append_row, n-1 → n
};

LayerTimings time_layers(std::size_t n, std::size_t d, std::uint64_t seed);

}  // namespace e2e
