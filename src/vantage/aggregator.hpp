// Crash-consistent evidence aggregator for the multi-vantage fleet
// (ISSUE 7 tentpole).
//
// The aggregator merges per-collector evidence deltas into ONE global
// evidence map that is bit-for-bit identical to a single-process
// Detector fed the union of all slices (the vantage differential suite
// pins this across clean and impaired delta channels, shard sweeps, and
// mid-study collector kill/restart). Three mechanisms make that hold on
// an unreliable channel:
//
//  1. Idempotent staging. Delta rows carry cumulative per-collector state
//     (flow/delta_wire.hpp), so a duplicated or reordered delta joins
//     into the staged epoch via core::merge_evidence and changes nothing.
//     Each datagram's sequence number runs through a per-collector
//     flow::SequenceTracker purely for classification (gap / replay /
//     restart events, health); correctness never depends on ordering.
//
//  2. The epoch barrier. Epochs are hours. Epoch E folds into the global
//     map only when EVERY registered collector whose first_epoch <= E has
//     staged E — only then is the global mask for hour E complete, and
//     only then does the aggregator evaluate newly-satisfied rules and
//     stamp satisfied_hour = E, reproducing exactly the hour a
//     single-process detector would have stamped mid-stream. Folding adds
//     each collector's cumulative-counter advance (new - previously
//     merged, e.g. packets) to the global row exactly once, so sums stay
//     exact without double-counting.
//
//  3. Merged-only acks. acked_through() reports the last epoch actually
//     folded, never merely staged: staged deltas die with an aggregator
//     crash, and because they were never acked the collectors still hold
//     and retransmit them. save()/restore() ("HSAG") persist the global
//     map (as an embedded HSCK checkpoint) plus every
//     collector's merged cumulative state; staged epochs and sequence
//     trackers are deliberately NOT saved. Restore failure clears ALL
//     aggregator state — global and per-collector — mirroring the
//     InternTable cleared-on-failed-restore contract, so a corrupt blob
//     cannot leave a half-merged evidence map behind.
//
// snapshot_for() serves restart resync and late join: a kSnapshot delta
// holding one collector's merged cumulative rows as of its last merged
// epoch, which Collector::install_snapshot turns back into a live
// detector.
//
// Thread safety: every public method locks one mutex. Merging is a cold
// path (one delta per collector per hour) — contention is not a concern,
// but concurrent offer()/query must be race-free (TSan runs the vantage
// label).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/evidence_map.hpp"
#include "core/evidence_merge.hpp"
#include "flow/delta_wire.hpp"
#include "flow/gap_tracker.hpp"
#include "obs/observability.hpp"
#include "util/shared_slot.hpp"

namespace haystack::vantage {

inline constexpr std::uint32_t kAggregatorMagic = 0x48534147U;  // "HSAG"
inline constexpr std::uint32_t kAggregatorVersion = 1;

/// `source` tag of vantage flight events that reuse generic kinds
/// (kSequenceGap/kSequenceReplay/kExporterRestart): 'v' << 24 | collector.
[[nodiscard]] constexpr std::uint32_t vantage_source(
    std::uint32_t collector) noexcept {
  return 0x76000000U | collector;
}

struct AggregatorConfig {
  core::DetectorConfig detector{};
  /// Sequence reorder window: replays within it are classified kReplay,
  /// farther behind means the collector restarted.
  std::uint32_t reorder_window = 64;
  /// A collector whose merged/staged progress trails the fleet maximum by
  /// more than this many epochs is reported unhealthy.
  std::uint32_t stale_after = 3;
};

/// Outcome of offering one datagram.
struct OfferResult {
  bool accepted = false;
  /// Epochs the offer completed (0 when the barrier did not advance).
  unsigned sealed_epochs = 0;
  /// Reject reason, or "stale" for harmless already-merged retransmits.
  std::string detail;
};

/// Point-in-time snapshot of the merged global state (ISSUE 8). Published
/// with one atomic pointer swap each time the epoch barrier advances (and
/// on restore/clear), so readers grab a complete merge prefix — state as
/// of a sealed epoch, never a half-staged one — with a single published-pointer copy,
/// while offer()/seal keep running under the aggregator mutex. The
/// snapshot stays valid (and keeps answering identically) across
/// collector kill/restart, further merges, and even aggregator
/// destruction: a reader holding one is never blocked.
struct LiveSnapshot {
  /// Last epoch folded into this snapshot; nullopt before the first seal.
  std::optional<util::HourBin> merged_through;
  std::uint64_t epochs_sealed = 0;  ///< barrier advances at publish
  core::Detector::Stats stats{};
  std::shared_ptr<const core::CompiledRuleVersion> compiled;
  core::FlatEvidenceMap<core::Evidence> evidence;

  [[nodiscard]] std::optional<util::HourBin> detection_hour(
      core::SubscriberKey subscriber, core::ServiceId service) const {
    return core::eval_detection_hour(evidence, *compiled, subscriber,
                                     service);
  }
  [[nodiscard]] bool detected(core::SubscriberKey subscriber,
                              core::ServiceId service) const {
    return detection_hour(subscriber, service).has_value();
  }
  [[nodiscard]] const core::Evidence* evidence_row(
      core::SubscriberKey subscriber, core::ServiceId service) const {
    return evidence.find(subscriber, service);
  }
};

class Aggregator {
 public:
  /// `hitlist`/`rules` must outlive the aggregator.
  Aggregator(const core::Hitlist& hitlist, const core::RuleSet& rules,
             const AggregatorConfig& config, obs::Observability* obs = nullptr);

  /// Registers a collector before its first delta. `first_epoch` is the
  /// first hour the collector participates in; the barrier requires it
  /// for every epoch >= first_epoch. first_epoch must not precede the
  /// already-merged watermark.
  void add_collector(std::uint32_t id, util::HourBin first_epoch);

  /// Offers one delta datagram from the channel. Malformed datagrams,
  /// threshold mismatches, unknown collectors/labels, and snapshots are
  /// rejected without touching any state.
  OfferResult offer(std::span<const std::uint8_t> datagram);

  /// Last epoch merged for `id` — the cumulative ack the fleet relays
  /// back to the collector. nullopt before the first merge or for an
  /// unknown id.
  [[nodiscard]] std::optional<util::HourBin> acked_through(
      std::uint32_t id) const;

  /// Encodes a kSnapshot delta of `id`'s merged cumulative state as of
  /// its last merged epoch. Empty when the collector is unknown or has
  /// no merged epoch yet (a restarting collector then simply replays its
  /// whole spool from its first epoch).
  [[nodiscard]] std::vector<std::uint8_t> snapshot_for(std::uint32_t id) const;

  /// Serializes the full aggregator state ("HSAG": global detector as an
  /// embedded HSCK checkpoint + per-collector merged state).
  [[nodiscard]] std::vector<std::uint8_t> save() const;

  /// Restores a save() blob. Returns false on ANY malformed input — and
  /// then clears all aggregator state (global and per-collector), per the
  /// cleared-on-failed-restore contract.
  bool restore(std::span<const std::uint8_t> blob,
               std::string* error = nullptr);

  /// Drops all state: global evidence, stats, collectors, watermark.
  void clear();

  // --- queries (all lock; safe concurrently with offer()) ---

  /// Next epoch the barrier will seal, minus one — i.e. the last globally
  /// merged epoch. nullopt before the first seal.
  [[nodiscard]] std::optional<util::HourBin> merged_through() const;

  [[nodiscard]] core::Detector::Stats stats() const;

  /// Copy of the merged global evidence row, if present.
  [[nodiscard]] std::optional<core::Evidence> evidence(
      core::SubscriberKey subscriber, core::ServiceId service) const;

  /// Visits every merged global evidence row (iteration order
  /// unspecified; consumers sort, as with Detector::for_each_evidence).
  void for_each_evidence(
      const std::function<void(core::SubscriberKey, core::ServiceId,
                               const core::Evidence&)>& fn) const;

  /// Hierarchy-aware detection on the merged map.
  [[nodiscard]] std::optional<util::HourBin> detection_hour(
      core::SubscriberKey subscriber, core::ServiceId service) const;

  /// Constant-time merged-state snapshot: never takes the aggregator mutex,
  /// never observes a half-staged epoch (see LiveSnapshot). Never null.
  [[nodiscard]] std::shared_ptr<const LiveSnapshot> live() const {
    return live_.load();
  }

  /// Heartbeat-based health: true while the collector's progress (staged
  /// or merged) is within `stale_after` epochs of the fleet maximum.
  [[nodiscard]] bool healthy(std::uint32_t id) const;

  struct Counters {
    std::uint64_t offered = 0;       ///< datagrams offered
    std::uint64_t rejected = 0;      ///< malformed / mismatched, refused
    std::uint64_t stale = 0;         ///< retransmits of merged epochs
    std::uint64_t duplicates = 0;    ///< seq-replay classifications
    std::uint64_t restarts = 0;      ///< collector restarts detected
    std::uint64_t epochs_sealed = 0; ///< barrier advances
    std::uint64_t rows_merged = 0;   ///< staged rows folded globally
    std::uint64_t delta_bytes = 0;   ///< bytes of accepted datagrams
  };
  [[nodiscard]] Counters counters() const;

 private:
  struct Staged {
    std::vector<flow::DeltaRow> rows;  ///< label resolved into `services`
    std::vector<core::ServiceId> services;  ///< parallel to rows
    core::Detector::Stats stats;       ///< collector-cumulative
  };

  struct CollectorState {
    util::HourBin first_epoch = 0;
    /// Merged cumulative rows — exactly what this collector has shipped
    /// through merged_through (snapshot_for serves these back).
    core::FlatEvidenceMap<core::Evidence> cum;
    core::Detector::Stats cum_stats;  ///< merged cumulative flows/matched
    flow::SequenceTracker seq;
    std::optional<util::HourBin> merged_through;
    std::map<util::HourBin, Staged> staged;
    std::uint32_t restarts = 0;
  };

  OfferResult reject(std::uint32_t collector, std::size_t bytes,
                     std::string reason);
  /// Clones the merged global state into a new LiveSnapshot and swaps it
  /// into live_. Callers hold mu_ (publication points: construction,
  /// barrier advances, restore, clear).
  void publish_live_locked();
  /// Folds every sealable epoch; returns how many were sealed.
  unsigned try_seal();
  void seal_epoch(util::HourBin epoch);
  void refresh_health();
  [[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
      const CollectorState& st, std::uint32_t id) const;

  const core::RuleSet& rules_;
  AggregatorConfig config_;
  obs::Observability* obs_ = nullptr;
  mutable std::mutex mu_;
  core::Detector global_;
  /// Satisfaction predicate per service id (empty critical mask +
  /// required=0xffff for serviceless ids is never consulted: only rows
  /// with rules are folded).
  std::vector<std::optional<core::SatisfyRule>> satisfy_;
  std::map<std::uint32_t, std::unique_ptr<CollectorState>> collectors_;
  /// Last epoch sealed into the global map; the barrier next waits on
  /// last_sealed_+1 (or the earliest first_epoch before the first seal).
  std::optional<util::HourBin> last_sealed_;
  /// Epoch-swapped merge-prefix snapshot (see live()).
  util::SharedSlot<const LiveSnapshot> live_;
  Counters counters_;
  // Registry series (null without obs).
  std::shared_ptr<obs::Counter> m_offered_, m_rejected_, m_stale_,
      m_duplicates_, m_sealed_, m_rows_, m_bytes_;
  std::shared_ptr<obs::Gauge> m_merged_epoch_, m_staged_depth_;
  std::map<std::uint32_t, std::shared_ptr<obs::Gauge>> m_healthy_;
};

}  // namespace haystack::vantage
