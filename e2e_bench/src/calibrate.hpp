// Host speed, measured with a fixed piece of work that is the benchmark's
// own code, so no change to the stormtune libraries can move it.
//
// A shared host runs the same instructions 20-45 % slower for a minute or
// more at a time (CPU time grows as much as wall time, so it is the CPU, not
// the scheduler). Timing this kernel next to every round tells how fast the
// host ran then, and dividing a round's times by it takes that out.
#pragma once

#include <cstddef>

namespace e2e {

/// Seconds the calibration kernel takes right now on each of `threads`
/// threads running it at once (the mean over the threads, each the fastest
/// of a few back-to-back runs). A workload with N workers is calibrated on
/// N threads: the host slows its cores unevenly.
double calibration_s(std::size_t threads);

/// What calibration_s() reads on the reference host at its usual speed.
/// Times are reported as measured × kReferenceCalibrationS / calibration_s(),
/// i.e. in seconds of that host.
inline constexpr double kReferenceCalibrationS = 0.015;

}  // namespace e2e
