// Trace spans (ISSUE 5): RAII wall-clock timers feeding the registry's
// log2 histograms — the per-wave stage-latency distributions
// (decode → decode_body → detect) that show where a streaming deployment
// actually spends its time. Durations are steady-clock nanoseconds
// (latency is a hardware fact, not a sim-time one).
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace haystack::obs {

[[nodiscard]] inline std::uint64_t steady_nanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Scoped span: records elapsed nanoseconds into `latency` on destruction.
/// A null histogram reads no clock.
class SpanTimer {
 public:
  explicit SpanTimer(Histogram* latency) noexcept : latency_{latency} {
    if (latency_ != nullptr) start_ = steady_nanos();
  }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  ~SpanTimer() {
    if (latency_ != nullptr) latency_->record(steady_nanos() - start_);
  }

 private:
  Histogram* latency_;
  std::uint64_t start_ = 0;
};

}  // namespace haystack::obs
