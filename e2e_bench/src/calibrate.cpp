#include "calibrate.hpp"

#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "probe.hpp"

namespace e2e {

namespace {

constexpr int kRuns = 4;
constexpr std::uint32_t kQueued = 4096;
constexpr int kEvents = 120000;

/// Uniform in (0, 1] from a xorshift64* stream.
double next_uniform(std::uint64_t& x) {
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  return static_cast<double>((x * 0x2545F4914F6CDD1DULL) >> 11) * 0x1p-53 +
         0x1p-53;
}

/// A discrete-event loop, the shape of the simulator's hot path: pop the
/// earliest of a few thousand pending events and schedule its successor an
/// exponentially distributed time later.
double event_loop() {
  using Event = std::pair<double, std::uint32_t>;
  std::vector<Event> storage;
  storage.reserve(kQueued);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> q(
      std::greater<Event>{}, std::move(storage));
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = 0; i < kQueued; ++i) q.emplace(next_uniform(x), i);
  double checksum = 0.0;
  for (int e = 0; e < kEvents; ++e) {
    const Event ev = q.top();
    q.pop();
    checksum += static_cast<double>(ev.second);
    q.emplace(ev.first - std::log(next_uniform(x)), ev.second);
  }
  return checksum;
}

/// The fastest of kRuns timed event loops, in seconds.
double fastest_loop_s() {
  double best = 0.0;
  volatile double sink = 0.0;
  for (int r = 0; r < kRuns; ++r) {
    const std::int64_t t0 = now_ns();
    sink = sink + event_loop();
    const double s = 1e-9 * static_cast<double>(now_ns() - t0);
    if (r == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

double calibration_s(std::size_t threads) {
  STORMTUNE_REQUIRE(threads >= 1, "calibration needs a thread");
  std::vector<double> seconds(threads, 0.0);
  std::vector<std::exception_ptr> errors(threads);
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    const auto body = [&](std::size_t i) {
      try {
        seconds[i] = fastest_loop_s();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    };
    for (std::size_t i = 1; i < threads; ++i) helpers.emplace_back(body, i);
    body(0);
  }  // joins the helpers
  double sum = 0.0;
  for (std::size_t i = 0; i < threads; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
    sum += seconds[i];
  }
  return sum / static_cast<double>(threads);
}

}  // namespace e2e
