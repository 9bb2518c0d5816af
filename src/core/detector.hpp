// Streaming IoT-device detector (paper Secs. 5/6).
//
// Consumes sampled flow observations one at a time: each flow's server-side
// (IP, port) is looked up in the daily hitlist (through the version's
// SignatureIndex, core/signature_index.hpp); a match contributes one
// piece of evidence — "subscriber S contacted monitored domain m of service
// X". A service counts as detected for a subscriber once evidence covers
// max(1, floor(D*N)) of its N monitored domains (or its critical domain,
// when that alone is sufficient), *and* its hierarchy parent is detected
// (Samsung TV requires Samsung IoT first; Fire TV requires Amazon Product).
//
// The detector is deliberately tiny per flow: one hash lookup plus a bitset
// update, which is what makes the methodology viable at ISP scale
// ("millions of IoT devices within minutes").
//
// Rule state is versioned (ISSUE 8): the dispatch tables live in an
// immutable CompiledRuleVersion the detector holds by shared_ptr, so a
// hot-reload is one pointer swap (adopt_version) on the owning worker
// thread — in-flight evidence is retained and every verdict reports the
// version it was evaluated under.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/evidence_map.hpp"
#include "core/hitlist.hpp"
#include "core/rule_version.hpp"
#include "core/rules.hpp"
#include "core/signature_index.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/sim_clock.hpp"

namespace haystack::core {

/// Registry handles one detector instance bumps as it observes (ISSUE 5).
/// Null handles disable each hook. ShardedDetector wires one set per shard
/// (labels {{"shard", N}}), so hot counters never share a cache line
/// across shards; the time-to-detection histogram may be shared because
/// detection transitions are rare.
struct DetectorInstruments {
  std::shared_ptr<obs::Counter> flows;            ///< observations fed
  std::shared_ptr<obs::Counter> matched;          ///< hitlist matches
  std::shared_ptr<obs::Counter> rules_satisfied;  ///< coverage-met events
  std::shared_ptr<obs::Gauge> evidence_entries;   ///< evidence-map size
  /// Evidence-map slot-array bytes (FlatEvidenceMap::memory_bytes) — the
  /// per-shard memory gauge for the 15 M-line tier (ISSUE 9).
  std::shared_ptr<obs::Gauge> evidence_bytes;
  /// Hours from first evidence to rule satisfaction, per transition.
  std::shared_ptr<obs::Histogram> time_to_detection_hours;
  /// kDegradedEnter/kDegradedExit events on loss-tolerance crossings
  /// (source = `source`, a = loss in ppm).
  obs::FlightRecorder* recorder = nullptr;
  std::uint32_t source = 0;
};

/// The streaming detector.
class Detector {
 public:
  /// Compiles `rules` + `config` into version 1, with the signature
  /// index built from `hitlist`. `rules` must outlive the detector (or its
  /// next adopt_version, whichever first).
  Detector(const Hitlist& hitlist, const RuleSet& rules,
           const DetectorConfig& config);

  /// Constructs directly on a precompiled version (shared across shards).
  explicit Detector(std::shared_ptr<const CompiledRuleVersion> version);

  /// Movable (factory functions return detectors by value); like every
  /// other write, moving is not safe while another thread observes.
  /// Spelled out because the atomic loss estimate is not itself movable.
  Detector(Detector&& other) noexcept
      : compiled_{std::move(other.compiled_)},
        evidence_{std::move(other.evidence_)},
        stats_{other.stats_},
        satisfied_total_{other.satisfied_total_},
        observed_loss_{other.observed_loss()},
        instruments_{std::move(other.instruments_)} {}
  Detector& operator=(Detector&& other) noexcept {
    compiled_ = std::move(other.compiled_);
    evidence_ = std::move(other.evidence_);
    stats_ = other.stats_;
    satisfied_total_ = other.satisfied_total_;
    observed_loss_.store(other.observed_loss(), std::memory_order_relaxed);
    instruments_ = std::move(other.instruments_);
    return *this;
  }

  /// Hot-reload cutover (ISSUE 8): swaps the compiled rule tables,
  /// threshold, and signature index to `version`, keeping all accumulated
  /// evidence. Must be called from the thread that owns this detector's
  /// writes (the shard worker, between waves) — it is NOT safe
  /// concurrently with observe paths from other threads.
  void adopt_version(std::shared_ptr<const CompiledRuleVersion> version);

  /// The compiled version currently evaluated under.
  [[nodiscard]] const std::shared_ptr<const CompiledRuleVersion>& version()
      const noexcept {
    return compiled_;
  }

  /// Feeds one sampled flow observation (already direction-normalized:
  /// `server`/`port` are the service side): `SignatureIndex::sig_of`, then
  /// observe_interned(). Returns the hitlist match, if any — callers use
  /// this to avoid a second lookup.
  std::optional<Hit> observe(SubscriberKey subscriber,
                             const net::IpAddress& server, std::uint16_t port,
                             std::uint64_t packets, util::HourBin hour);

  /// Interned fast path (ISSUE 6): feeds one observation whose hitlist
  /// lookup was already resolved to a packed signature at the enqueue
  /// boundary (`SignatureIndex::sig_of`). `sig == kNoSig` counts the
  /// flow and returns (a hitlist miss).
  void observe_interned(SubscriberKey subscriber, Signature sig,
                        std::uint64_t packets, util::HourBin hour);

  /// Wave-batched variant for the sharded worker loop: applies the
  /// evidence update for one observation but defers flow/match counting
  /// to a single add_observation_counts() call per wave (two counter
  /// updates per wave instead of two per observation). Returns whether
  /// the signature matched. Final stats and instrument totals are
  /// bit-identical to the per-observation path.
  bool observe_interned_uncounted(SubscriberKey subscriber, Signature sig,
                                  std::uint64_t packets, util::HourBin hour);

  /// Folds wave totals from observe_interned_uncounted() into stats_ and
  /// the flow/match instruments.
  void add_observation_counts(std::uint64_t flows, std::uint64_t matched);

  /// Prefetches the evidence slot a future observation will touch (no-op
  /// for misses). Purely a cache hint — never changes state.
  void prefetch_evidence(SubscriberKey subscriber, Signature sig) const {
    if (sig == kNoSig) return;
    evidence_.prefetch(subscriber, sig_service(sig));
  }

  /// Hierarchy-aware detection: the hour at which the service and all of
  /// its ancestors were satisfied for this subscriber, or nullopt.
  [[nodiscard]] std::optional<util::HourBin> detection_hour(
      SubscriberKey subscriber, ServiceId service) const {
    return eval_detection_hour(evidence_, *compiled_, subscriber, service);
  }

  [[nodiscard]] bool detected(SubscriberKey subscriber,
                              ServiceId service) const {
    return detection_hour(subscriber, service).has_value();
  }

  /// Loss-aware verdict (see Verdict). Uses the loss set through
  /// set_observed_loss() against config().loss_tolerance, and is tagged
  /// with the active ruleset version.
  [[nodiscard]] Verdict verdict(SubscriberKey subscriber,
                                ServiceId service) const {
    return eval_verdict(evidence_, *compiled_, observed_loss(), subscriber,
                        service);
  }

  /// Feeds the current estimated loss fraction of the observation channel
  /// (e.g. flow::nf9::Collector::estimated_loss()). Clamped to [0, 1].
  void set_observed_loss(double fraction) noexcept;
  [[nodiscard]] double observed_loss() const noexcept {
    return observed_loss_.load(std::memory_order_relaxed);
  }
  /// True when the channel loss exceeds the configured tolerance.
  [[nodiscard]] bool degraded() const noexcept {
    return observed_loss() > compiled_->config.loss_tolerance;
  }

  /// Raw evidence for diagnostics/tests; nullptr when none.
  [[nodiscard]] const Evidence* evidence(SubscriberKey subscriber,
                                         ServiceId service) const;

  /// The raw evidence table — the read-view publisher clones it at wave
  /// boundaries (core/read_view.hpp). Owning-thread or quiescent access
  /// only, like every other read of live evidence.
  [[nodiscard]] const FlatEvidenceMap<Evidence>& evidence_map()
      const noexcept {
    return evidence_;
  }

  /// Visits every (subscriber, service, evidence) triple.
  void for_each_evidence(
      const std::function<void(SubscriberKey, ServiceId, const Evidence&)>&
          fn) const;

  /// Drops all evidence (per-bin analyses re-use one detector).
  void clear();

  /// Throughput counters.
  struct Stats {
    std::uint64_t flows = 0;
    std::uint64_t matched = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Cumulative coverage-met transitions (the new-detection alert basis;
  /// monotone, never reset by adopt_version).
  [[nodiscard]] std::uint64_t satisfied_total() const noexcept {
    return satisfied_total_;
  }

  /// Checkpoint support (core/checkpoint.hpp): installs one evidence row /
  /// the saved throughput counters verbatim. Restored state is bit-for-bit
  /// what for_each_evidence()/stats() produced at save time.
  void restore_evidence(SubscriberKey subscriber, ServiceId service,
                        const Evidence& evidence);
  void restore_stats(const Stats& stats) noexcept { stats_ = stats; }

  [[nodiscard]] const DetectorConfig& config() const noexcept {
    return compiled_->config;
  }
  [[nodiscard]] const RuleSet& rules() const noexcept {
    return *compiled_->rules;
  }

  /// Attaches registry instrumentation (ISSUE 5). Call at wiring time,
  /// before observations flow.
  void set_instruments(DetectorInstruments instruments) {
    instruments_ = std::move(instruments);
  }
  [[nodiscard]] const DetectorInstruments& instruments() const noexcept {
    return instruments_;
  }

 private:
  /// Evidence update shared by observe_interned() and its wave-batched
  /// uncounted variant.
  void apply_match(SubscriberKey subscriber, ServiceId service,
                   std::uint16_t pos, const RuleFast& fast,
                   std::uint64_t packets, util::HourBin hour);

  std::shared_ptr<const CompiledRuleVersion> compiled_;
  /// Flat open-addressing table: one cache line per probe on the hot
  /// path (see core/evidence_map.hpp).
  FlatEvidenceMap<Evidence> evidence_;
  Stats stats_;
  std::uint64_t satisfied_total_ = 0;
  /// Atomic so a view publication on the owning worker may read it while
  /// a control thread feeds a new estimate (relaxed: a one-publish-stale
  /// loss is fine, tearing a double is not).
  std::atomic<double> observed_loss_{0.0};
  DetectorInstruments instruments_;
};

}  // namespace haystack::core
