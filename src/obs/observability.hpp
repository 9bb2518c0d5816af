// Bundle of the two observability primitives a component needs wired in:
// the metric registry (numbers) and the flight recorder (events). The
// pipeline owns one Observability per instance by default so tests stay
// hermetic; long-lived daemons can share Observability::global().
#pragma once

#include <cstdint>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace haystack::obs {

/// Stage tags: the `source` of a stage queue's kBackpressureStall flight
/// events, and (through stage_name) the {"stage", ...} label of a stage
/// pool's per-worker stage_wave_* series. Recorded flight tapes carry
/// these numbers, so a tag never changes its number and 1 and 3 stay
/// unused.
enum StageTag : std::uint32_t {
  kStageDecode = 2,
  kStageDetect = 4,
  kStageDecodeBody = 5,
};

[[nodiscard]] constexpr const char* stage_name(std::uint32_t tag) noexcept {
  switch (tag) {
    case kStageDecode: return "decode";
    case kStageDetect: return "detect";
    case kStageDecodeBody: return "decode_body";
    default: return "unknown";
  }
}

struct Observability {
  MetricRegistry registry;
  FlightRecorder recorder{1024};

  /// Process-wide instance (leaked, never destroyed — safe to touch from
  /// static teardown paths).
  static Observability& global() {
    static Observability* g = new Observability();
    return *g;
  }
};

}  // namespace haystack::obs
