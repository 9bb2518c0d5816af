// Process-wide metric registry (ISSUE 5).
//
// The paper's in-the-wild deployment (15 M subscriber lines at the ISP,
// 800+ IXP members) stands or falls with the operator's ability to see
// where the collection pipeline is bottlenecked, lossy, or degraded.
// This registry is the measurement substrate: named counters, gauges and
// log2-bucketed histograms whose hot path is a single relaxed atomic op —
// wait-free, no locks, no allocation. Registration (name → metric) is the
// only locked path and happens once per metric at wiring time.
//
// Ownership: the registry hands out std::shared_ptr handles, so a metric
// outlives both the registry snapshot that reads it and any component
// that bumps it — scrape-during-teardown cannot dangle.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace haystack::obs {

/// Monotonic event counter. Wait-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time signed value (queue depth, cache residency). Wait-free.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed histogram: bucket 0 holds zeros, bucket b (1..62) holds
/// values in [2^(b-1), 2^b), bucket 63 the rest. record() is three relaxed
/// atomic adds — wait-free, no ordering between them, so a concurrent
/// snapshot may see count/sum/buckets a few events apart (documented
/// scrape semantics; each value individually is never torn).
class Histogram {
 public:
  static constexpr unsigned kBuckets = 64;

  void record(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] static constexpr unsigned bucket_of(std::uint64_t v) noexcept {
    return v == 0 ? 0
                  : std::min<unsigned>(kBuckets - 1,
                                       static_cast<unsigned>(
                                           std::bit_width(v)));
  }

  /// Inclusive upper bound of a bucket (the Prometheus `le` value).
  [[nodiscard]] static constexpr std::uint64_t upper_bound(
      unsigned bucket) noexcept {
    if (bucket == 0) return 0;
    if (bucket >= kBuckets - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << bucket) - 1;
  }

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };
  [[nodiscard]] Snapshot snapshot() const noexcept {
    Snapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    for (unsigned b = 0; b < kBuckets; ++b) {
      s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Upper bound of the bucket containing the q-th sample (coarse — log2
/// resolution), 0 on an empty histogram.
[[nodiscard]] std::uint64_t histogram_quantile(
    const Histogram::Snapshot& snapshot, double q) noexcept;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// (key, value) label pairs, e.g. {{"stage", "decode"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Named metric registry. counter()/gauge()/histogram() are get-or-create:
/// a second call with the same (name, labels) returns the same instance,
/// so independent components can share one series. A kind collision (a
/// gauge requested under a registered counter's name) returns a detached
/// metric that is live but never exported — callers own their naming.
class MetricRegistry {
 public:
  std::shared_ptr<Counter> counter(const std::string& name,
                                   const Labels& labels = {});
  std::shared_ptr<Gauge> gauge(const std::string& name,
                               const Labels& labels = {});
  std::shared_ptr<Histogram> histogram(const std::string& name,
                                       const Labels& labels = {});

  /// One exported series at snapshot time.
  struct Sample {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;
    std::int64_t gauge = 0;
    Histogram::Snapshot hist{};
  };

  /// Consistent-ordering snapshot: sorted by (name, labels) so exports are
  /// deterministic. Safe concurrently with every hot-path update.
  [[nodiscard]] std::vector<Sample> snapshot() const;

  [[nodiscard]] std::size_t size() const;
  /// Drops every registration. Outstanding handles stay valid (shared
  /// ownership) but the metrics stop being exported. Test hygiene only.
  void clear();

  /// Process-wide default registry.
  static MetricRegistry& global();

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    std::shared_ptr<Counter> counter;
    std::shared_ptr<Gauge> gauge;
    std::shared_ptr<Histogram> histogram;
  };

  Entry& find_or_create(const std::string& name, const Labels& labels,
                        MetricKind kind, bool& kind_mismatch);

  mutable std::mutex mu_;
  // Keyed by name + rendered labels; std::map keeps snapshots sorted.
  std::map<std::string, Entry> metrics_;
};

/// Canonical series key, also used by the exporters: name{k="v",...}.
[[nodiscard]] std::string series_key(const std::string& name,
                                     const Labels& labels);

}  // namespace haystack::obs
