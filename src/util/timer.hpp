#pragma once
/// \file timer.hpp
/// \brief Wall-clock timing utilities.
///
/// Timer is a simple steady-clock stopwatch. The solver's per-phase sums
/// (Fig. 7 of the paper) live in trace::PhaseLedger, built on
/// wall_seconds().

#include <chrono>

#include "util/error.hpp"

namespace hplx {

/// Seconds on the steady clock, as a double. Monotonic.
inline double wall_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// A stopwatch. start()/stop() accumulate; reset() clears.
class Timer {
 public:
  void start() {
    HPLX_CHECK(!running_);
    t0_ = wall_seconds();
    running_ = true;
  }

  /// Stop and return the length of the interval just ended (seconds).
  double stop() {
    HPLX_CHECK(running_);
    const double dt = wall_seconds() - t0_;
    total_ += dt;
    running_ = false;
    return dt;
  }

  void reset() {
    total_ = 0.0;
    running_ = false;
  }

  /// Accumulated time over all completed start()/stop() intervals.
  double total() const { return total_; }

  bool running() const { return running_; }

 private:
  double t0_ = 0.0;
  double total_ = 0.0;
  bool running_ = false;
};

}  // namespace hplx
