// Flight recorder: fixed-size ring of structured events (ISSUE 5).
//
// Metrics answer "how much"; the recorder answers "what happened, in what
// order". Rare-but-load-bearing events — exporter restarts, template
// parks/recoveries, sequence gaps, backpressure stalls, checkpoint
// save/restore, degraded-confidence transitions — land in a bounded ring
// for post-mortem dumps: when a deployment misbehaves at hour 212, the
// last N events tell the story without grepping logs that were never
// written.
//
// Events are stamped on two axes: a monotonic sequence number (total
// order of recording) and the simulation hour (util::SimClock's HourBin
// axis, fed by whoever drives the pipeline via set_hour()). Wire-level
// events recorded from a single decode worker are therefore exactly as
// deterministic as the datagram order — the seeded fault scenarios replay
// the same event sequence every run (asserted in tests/obs_test.cpp).
//
// Concurrency: record() and dump() take one mutex. Events are rare by
// construction (restarts, stalls, gaps — not per-flow), so the lock never
// sits on a hot path; the registry handles the high-rate numbers.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/sim_clock.hpp"

namespace haystack::obs {

enum class EventKind : std::uint8_t {
  kExporterRestart,      ///< exporter process restarted (a = incarnation info)
  kSequenceGap,          ///< export stream gap (a = units presumed lost)
  kSequenceReplay,       ///< late/replayed datagram (a = units credited back)
  kTemplateParked,       ///< data before template, parked (a = template id)
  kTemplateRecovered,    ///< parked data decoded (a = records recovered)
  kTemplateEvicted,      ///< parked data discarded at the buffer bound
  kBackpressureStall,    ///< producer blocked on a full queue (a = depth)
  kSlowWave,             ///< no emitter; kept so that the kinds after
                         ///< it keep their recorded values
  kCacheEmergencyExpiry, ///< no emitter; kept so that the kinds after
                         ///< it keep their recorded values
  kCheckpointSave,       ///< evidence checkpoint written (a = entries, b = bytes)
  kCheckpointRestore,    ///< checkpoint restored (a = entries, b = bytes)
  kCheckpointRejected,   ///< restore refused a blob (a = bytes)
  kDegradedEnter,        ///< loss rose past tolerance (a = loss, ppm)
  kDegradedExit,         ///< loss fell back under tolerance (a = loss, ppm)
  kPipelineShutdown,     ///< IngestPipeline::shutdown() ran
  kSelfCheckFailed,      ///< conservation invariant violated (a = count)
  kScrape,               ///< Reporter scraped the registry (a = scrape #)
  kDeltaMerged,          ///< vantage epoch sealed into the global map
                         ///< (source = epoch, a = collectors, b = rows)
  kDeltaRejected,        ///< malformed/mismatched delta refused
                         ///< (source = collector, a = bytes)
  kCollectorResync,      ///< collector resynced from an aggregator
                         ///< snapshot (source = collector, a = epoch)
  kAlertNewDetection,    ///< serve: coverage-met transitions in a published
                         ///< view (source = 'q'<<24|shard, a = new
                         ///< detections, b = ruleset version)
  kAlertConfidenceDegraded, ///< serve: a shard's views crossed into
                            ///< degraded confidence (a = loss, ppm)
  kAlertLossSpike,       ///< serve: observed loss jumped by more than the
                         ///< configured delta between consecutive views
                         ///< (a = new loss ppm, b = previous loss ppm)
  kEventKindCount,       ///< sentinel — keep last, never recorded
};

/// Event.kind is serialized into a uint8 slot in checkpoint/export ring
/// headers; adding a 257th kind (or reordering past the sentinel) is a
/// wire-format break. tests/obs_test.cpp additionally pins the numeric
/// values of the kinds that have shipped.
static_assert(static_cast<unsigned>(EventKind::kEventKindCount) <= 256U,
              "EventKind must fit the uint8 ring-header slot");

[[nodiscard]] const char* event_name(EventKind kind) noexcept;

/// One recorded event. `source` identifies the emitter (export source id,
/// router index, stage tag, shard — kind-dependent); `a`/`b` carry the
/// kind-specific arguments documented on EventKind.
struct Event {
  std::uint64_t seq = 0;      ///< monotonic record order
  EventKind kind = EventKind::kScrape;
  util::HourBin hour = 0;     ///< sim-time stamp (set_hour)
  std::uint32_t source = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1024);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Sets the sim-hour stamped onto subsequent events. Atomic; typically
  /// driven by the pipeline's push_* entry points.
  void set_hour(util::HourBin hour) noexcept {
    hour_.store(hour, std::memory_order_relaxed);
  }
  [[nodiscard]] util::HourBin hour() const noexcept {
    return hour_.load(std::memory_order_relaxed);
  }

  void record(EventKind kind, std::uint32_t source = 0, std::uint64_t a = 0,
              std::uint64_t b = 0);

  /// Ring contents, oldest to newest.
  [[nodiscard]] std::vector<Event> dump() const;

  /// Events ever recorded (including ones the ring has overwritten).
  [[nodiscard]] std::uint64_t recorded() const;
  /// Events lost to ring wraparound.
  [[nodiscard]] std::uint64_t overwritten() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  void clear();

  /// JSON array of events, one object per event: seq, event name, hour,
  /// source, a, b.
  [[nodiscard]] std::string to_json() const;

 private:
  const std::size_t capacity_;
  std::atomic<std::uint32_t> hour_{0};
  mutable std::mutex mu_;
  std::vector<Event> ring_;   ///< ring_[seq % capacity_]
  std::uint64_t next_seq_ = 0;
};

}  // namespace haystack::obs
