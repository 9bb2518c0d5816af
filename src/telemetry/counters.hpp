// Aggregation utilities used by the evaluation harness: stage-queue
// snapshots, hourly series, and the byte-weighted heavy-hitter view that
// drives the paper's Fig. 6 visibility analysis.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/ip_address.hpp"
#include "util/sim_clock.hpp"

namespace haystack::telemetry {

/// Snapshot of one streaming-pipeline stage queue (pipeline::BoundedQueue):
/// depth, throughput, and how often each side stalled — the numbers that
/// show where a deployment is bottlenecked and whether backpressure is
/// engaging (producer_stalls) or the stage is starved (consumer_stalls).
struct StageStats {
  std::uint64_t enqueued = 0;         ///< items accepted into the queue
  std::uint64_t dequeued = 0;         ///< items handed to the consumer
  std::uint64_t producer_stalls = 0;  ///< pushes that blocked on a full queue
  std::uint64_t consumer_stalls = 0;  ///< pops that blocked on an empty queue
  std::uint64_t waves = 0;            ///< consumer wake-ups (adaptive batches)
  std::size_t depth = 0;              ///< items queued at snapshot time
  std::size_t max_depth = 0;          ///< high-water mark (max across shards)
  /// Sum of per-shard high-water marks. For a single queue this equals
  /// max_depth; across an aggregate it bounds the stage's worst-case
  /// simultaneous buffering, which the max alone understates — a stage
  /// whose 8 shard queues each peaked at 900 held up to 7200 items, not
  /// 900. Kept as its own field so operator+= can sum it while max_depth
  /// stays a true max (the two were conflated before ISSUE 5).
  std::size_t high_water_sum = 0;
  std::size_t capacity = 0;

  /// Aggregates shard queues of one stage into a stage-level view.
  /// max-like fields take the max, sum-like fields add — mixing the two
  /// (e.g. summing max_depth) would fabricate a depth no queue ever saw.
  StageStats& operator+=(const StageStats& other) {
    enqueued += other.enqueued;
    dequeued += other.dequeued;
    producer_stalls += other.producer_stalls;
    consumer_stalls += other.consumer_stalls;
    waves += other.waves;
    depth += other.depth;
    max_depth = std::max(max_depth, other.max_depth);
    high_water_sum += other.high_water_sum;
    capacity += other.capacity;
    return *this;
  }
};

/// Per-IP byte accounting over one time bin; answers "which fraction of the
/// top-X% of service IPs (by bytes) was visible at the sampled vantage?"
class HeavyHitterView {
 public:
  /// Accounts `bytes` to `ip` as seen at the reference (unsampled) vantage.
  void add_reference(const net::IpAddress& ip, std::uint64_t bytes);

  /// Marks `ip` as visible at the sampled vantage.
  void mark_visible(const net::IpAddress& ip);

  /// Fraction of the top-`fraction` reference IPs (by byte count) that were
  /// marked visible. Returns 0 when the reference set is empty.
  [[nodiscard]] double visible_fraction_of_top(double fraction) const;

  /// Fraction of all reference IPs marked visible.
  [[nodiscard]] double visible_fraction() const;

  [[nodiscard]] std::size_t reference_count() const noexcept {
    return bytes_.size();
  }

  void clear();

 private:
  std::unordered_map<net::IpAddress, std::uint64_t> bytes_;
  std::unordered_set<net::IpAddress> visible_;
};

/// Fixed-length per-hour series over the study window.
class HourlySeries {
 public:
  HourlySeries() : values_(util::kStudyHours, 0.0) {}

  void set(util::HourBin hour, double v) { values_.at(hour) = v; }
  void add(util::HourBin hour, double v) { values_.at(hour) += v; }
  [[nodiscard]] double at(util::HourBin hour) const {
    return values_.at(hour);
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  std::vector<double> values_;
};

}  // namespace haystack::telemetry
