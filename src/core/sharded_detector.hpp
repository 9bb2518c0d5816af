// Sharded, thread-parallel detector with a persistent worker pool and an
// epoch-published read side (ISSUE 8).
//
// The per-flow work is one hash lookup plus a bitset update, so a single
// core already absorbs an ISP's sampled flow volume (perfbench's
// `pipeline.serial_flows_per_s`). For headroom — or for replaying weeks
// of archived flows "within minutes" — the detector shards by
// subscriber: evidence for one subscriber lives in exactly one shard,
// shards share the immutable compiled rule version, and each shard owns a
// long-lived worker thread consuming its own bounded queue of observation
// chunks (pipeline::ShardPool). Batches stream through persistent workers
// instead of spawning threads per batch, enqueue_batch() lets an upstream
// pipeline stage keep feeding without a barrier, and blocking
// backpressure bounds memory when producers outrun the shards.
//
// Ordering contract: observations for one subscriber always route to the
// same shard queue (FIFO, single consumer), so per-subscriber relative
// order — and therefore the evidence bits — is identical to a sequential
// replay, for any shard count, queue capacity, or batching.
//
// Read side (ISSUE 8): reads no longer drain the whole pipeline. Each
// worker publishes immutable ShardViews into a ViewHub at wave
// boundaries; live_views() grabs them wait-free, and fresh_view() rides a
// publish token through the owning shard's queue so the returned view
// covers everything enqueued before the call — the same visibility the
// old drain-on-read contract gave, without quiescing any other shard or
// blocking producers. The synchronous accessors (detected/verdict/
// detection_hour/stats/for_each_evidence) now route through fresh views;
// their old behavior — an implicit full drain() of every shard queue on
// every read — is deprecated and gone. drain() itself remains for
// process_batch() and pipeline shutdown barriers.
//
// Rule hot-reload (ISSUE 8): reload_rules() compiles the next
// CompiledRuleVersion off the hot path (new SignatureIndex, InternTable
// deltas appended — the table is thread-safe and handles are stable),
// then atomically swaps the producer-side current version. Chunks are
// tagged with the version current at submit time, so each chunk is
// applied under exactly one version, per-shard applied versions are
// monotone (in-flight waves finish on the old version, the cutover token
// then flips the shard), and producers never stall.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/detector.hpp"
#include "core/intern.hpp"
#include "core/read_view.hpp"
#include "core/signature_index.hpp"
#include "obs/observability.hpp"
#include "pipeline/shard_pool.hpp"
#include "util/shared_slot.hpp"

namespace haystack::core {

/// One flow observation, direction-normalized.
struct Observation {
  SubscriberKey subscriber = 0;
  net::IpAddress server;
  std::uint16_t port = 0;
  std::uint64_t packets = 0;
  util::HourBin hour = 0;
};

/// One boundary-interned observation (ISSUE 6): the hitlist lookup is
/// already folded into a packed Signature, so shard queues carry 24-byte
/// POD items and workers never touch an IP address or a string. Producers
/// resolve `sig` with `current_version()->index->sig_of(server, port,
/// util::day_of(hour))`; kNoSig rides through and counts as a miss.
struct InternedObs {
  SubscriberKey subscriber = 0;
  std::uint64_t packets = 0;
  Signature sig = kNoSig;
  util::HourBin hour = 0;
};

/// Stable shard routing: evidence for one subscriber lives in exactly one
/// of `shards` partitions. Two-multiply avalanche (the murmur3 finalizer)
/// followed by a Lemire multiply-shift range mapping — no integer divide.
/// Shared with the serve-layer snapshots so a multi-shard snapshot routes
/// per-subscriber queries to the same view the worker published.
[[nodiscard]] inline std::size_t shard_of_key(SubscriberKey subscriber,
                                              std::size_t shards) noexcept {
  std::uint64_t h = subscriber;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<std::size_t>((static_cast<unsigned __int128>(h) *
                                   static_cast<unsigned __int128>(shards)) >>
                                  64U);
}

/// Detector sharded by subscriber key.
class ShardedDetector {
 public:
  /// Called by the owning worker right after a view publication; `prev`
  /// is the view that was replaced (the construction-time empty view for
  /// a shard's first publish — never null). The serve-layer AlertEngine
  /// hangs off this. Runs on the shard worker thread; must not call any
  /// read/drain API of this detector.
  using PublishHook =
      std::function<void(const ShardView* prev, const ShardView& now)>;

  /// `shards` worker partitions (>= 1), each with its own bounded chunk
  /// queue of `queue_capacity` entries. Shares `hitlist`/`rules` which
  /// must outlive the detector (or its first reload_rules()). When `obs`
  /// is non-null, each shard gets per-shard registry instruments (labels
  /// {{"shard", N}}), and the shard pool gives each worker its own
  /// detect-stage wave series and records backpressure flight events.
  ShardedDetector(const Hitlist& hitlist, const RuleSet& rules,
                  const DetectorConfig& config, unsigned shards,
                  std::size_t queue_capacity = 1024,
                  obs::Observability* obs = nullptr,
                  SnapshotPolicy snapshots = {});
  ~ShardedDetector();

  ShardedDetector(const ShardedDetector&) = delete;
  ShardedDetector& operator=(const ShardedDetector&) = delete;

  /// Processes a batch synchronously: partitions by subscriber shard,
  /// enqueues one chunk per shard, and waits for quiescence. Observations
  /// for one subscriber keep their relative order.
  void process_batch(std::span<const Observation> batch);

  /// Streaming path: like process_batch but without the barrier — the
  /// caller may keep enqueueing while shard workers consume. Blocks only
  /// when a shard queue is full (backpressure).
  void enqueue_batch(std::span<const Observation> batch);

  /// Streaming path for observations whose hitlist lookup was already
  /// resolved at the decode boundary (pipeline fast path). Identical
  /// semantics to enqueue_batch on the equivalent Observation stream.
  void enqueue_interned(std::span<const InternedObs> batch);

  /// Single-observation path, routed through the owning shard's queue —
  /// safe to call concurrently with process_batch/enqueue_batch from any
  /// thread. Applied by the time any read API returns.
  void observe(const Observation& obs);

  /// Quiescence barrier: returns once everything enqueued before the call
  /// has been applied. Retained for process_batch() and topological
  /// pipeline shutdown; read APIs no longer call this (they ride publish
  /// tokens through the owning shard only).
  void drain() const;

  // --- epoch-published read side (ISSUE 8) --------------------------------

  /// Wait-free point-in-time views, one per shard, each prefix-consistent
  /// at its own published epoch. Never blocks, never drains, safe under
  /// full ingest from any thread.
  [[nodiscard]] std::vector<std::shared_ptr<const ShardView>> live_views()
      const {
    return hub_.views();
  }
  [[nodiscard]] std::shared_ptr<const ShardView> live_view(
      unsigned shard) const {
    return hub_.view(shard);
  }

  /// Publishes-and-returns a view of one shard covering everything
  /// enqueued before the call: flushes that shard's coalescing buffer,
  /// rides a publish token through its queue, and waits for the resulting
  /// epoch. Blocks only on that one shard's backlog — other shards and
  /// all producers keep running. Must not be called from a shard worker.
  [[nodiscard]] std::shared_ptr<const ShardView> fresh_view(
      unsigned shard) const;

  /// fresh_view over every shard (tokens submitted first, then awaited,
  /// so shards refresh concurrently).
  [[nodiscard]] std::vector<std::shared_ptr<const ShardView>> fresh_views()
      const;

  [[nodiscard]] const ViewHub& view_hub() const noexcept { return hub_; }

  /// Shard owning a subscriber's evidence (stable for the detector's
  /// lifetime).
  [[nodiscard]] unsigned owner_shard(SubscriberKey subscriber) const {
    return static_cast<unsigned>(shard_of(subscriber));
  }

  /// Wiring-time hook; set before observations flow (not synchronized
  /// against running workers).
  void set_publish_hook(PublishHook hook) { publish_hook_ = std::move(hook); }

  // --- rule hot-reload (ISSUE 8) ------------------------------------------

  /// Compiles `rules` + `config` into the next version and cuts over:
  /// observations enqueued before the call finish under the old version,
  /// everything after applies under the new one, producers never stall.
  /// Each shard republishes its view on cutover, so a subsequent
  /// snapshot/fresh_view reports the new ruleset_version even with no
  /// traffic. Admin path: one reload at a time (concurrent reloads are
  /// serialized by version id; the highest id wins the producer side).
  /// Returns the new version id.
  std::uint64_t reload_rules(std::shared_ptr<const RuleSet> rules,
                             const DetectorConfig& config);

  /// The compiled version new observations are interned/tagged under.
  [[nodiscard]] std::shared_ptr<const CompiledRuleVersion> current_version()
      const {
    return version_.load();
  }

  /// Chunks whose tagged version id regressed below the shard's active
  /// version (always 0: producers tag under the same mutex the reload
  /// swaps under; the serve soak asserts it stays 0).
  [[nodiscard]] std::uint64_t cutover_regressions() const noexcept {
    return cutover_regressions_.load(std::memory_order_relaxed);
  }

  // --- detection reads (route through the snapshot layer) -----------------

  /// Hierarchy-aware detection. Served from a fresh view of the owning
  /// shard — covers everything enqueued before the call; no other shard
  /// is touched. (The pre-ISSUE-8 behavior — an implicit full drain() on
  /// every read — is deprecated and removed.)
  [[nodiscard]] bool detected(SubscriberKey subscriber,
                              ServiceId service) const;
  [[nodiscard]] std::optional<util::HourBin> detection_hour(
      SubscriberKey subscriber, ServiceId service) const;

  /// Loss-aware verdict, tagged with the view's ruleset_version.
  [[nodiscard]] Verdict verdict(SubscriberKey subscriber,
                                ServiceId service) const;

  /// Propagates the estimated channel loss to every shard. Quiesces the
  /// shard queues first (write path; loss transitions are rare).
  void set_observed_loss(double fraction) noexcept;

  /// Checkpoint support: routes the evidence row to its owning shard /
  /// installs the saved totals (in shard 0, so stats() reproduces them).
  /// Not safe concurrently with producers (restore is a cold path).
  void restore_evidence(SubscriberKey subscriber, ServiceId service,
                        const Evidence& evidence);
  void restore_stats(const Detector::Stats& stats);

  /// Visits evidence across all shards (single-threaded) over fresh
  /// views, shard-major in shard order.
  void for_each_evidence(
      const std::function<void(SubscriberKey, ServiceId, const Evidence&)>&
          fn) const;

  void clear();

  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }
  /// Aggregated throughput counters from fresh views of every shard.
  [[nodiscard]] Detector::Stats stats() const;
  /// Current version's configuration (by value: the version may be
  /// superseded by a concurrent reload).
  [[nodiscard]] DetectorConfig config() const noexcept {
    return current_version()->config;
  }
  /// Current version's rule set (checkpoint code resolves rule names
  /// through it). Do not hold the reference across reload_rules().
  [[nodiscard]] const RuleSet& rules() const noexcept {
    return *current_version()->rules;
  }

  /// Per-shard ingest-queue telemetry (depth/throughput/stalls).
  [[nodiscard]] telemetry::StageStats shard_queue_stats(
      unsigned shard) const;

  /// The current version's precompiled (IP, port, day) -> Signature
  /// index. The reference is invalidated by the next reload_rules();
  /// streaming producers should hold current_version() per wave instead.
  [[nodiscard]] const SignatureIndex& signature_index() const noexcept {
    return *current_version()->index;
  }

  /// Rule-name / monitored-domain-label intern table populated by the
  /// signature-index builds.
  /// Append-only across reloads: handles stay stable, deltas are
  /// interned without stalling producers (the table is thread-safe).
  [[nodiscard]] const InternTable& intern_table() const noexcept {
    return intern_;
  }
  [[nodiscard]] InternTable& intern_table() noexcept { return intern_; }

 private:
  /// One shard-queue item: a run of interned observations applied under
  /// exactly one compiled rule version, plus an optional publish request
  /// (empty-item chunks are pure tokens).
  struct Chunk {
    std::shared_ptr<const CompiledRuleVersion> version;
    std::vector<InternedObs> items;
    bool publish = false;
  };

  /// Producer-side coalescing bound (ISSUE 6): enqueue paths append into
  /// per-shard pending buffers under `pending_mu_` and submit a chunk
  /// only once it holds this many observations (or at the next
  /// drain/flush/token). Queue and worker-wakeup traffic then scales with
  /// flushes instead of with producer chunk boundaries. Per-subscriber
  /// FIFO is unaffected: appends are totally ordered by the mutex and a
  /// flush preserves append order.
  static constexpr std::size_t kCoalesceItems = 4096;

  /// Per-shard worker-owned state (only the owning worker touches it
  /// after construction).
  struct alignas(64) WorkState {
    std::uint64_t applied_chunks = 0;
    std::uint64_t applied_obs = 0;
    std::uint64_t obs_since_publish = 0;
    std::shared_ptr<const CompiledRuleVersion> active;
  };

  [[nodiscard]] std::size_t shard_of(SubscriberKey subscriber) const {
    return shard_of_key(subscriber, shards_.size());
  }

  /// Submits every non-empty pending buffer to its shard queue. Callers
  /// must hold pending_mu_ for the _locked variants.
  void flush_pending() const;
  void flush_shard_locked(std::size_t s) const;
  void submit_locked(std::size_t s, Chunk chunk) const;

  /// Worker-side: wave handler and view publication.
  void handle_wave(unsigned s, std::vector<Chunk>& wave);
  void publish_view(unsigned s, WorkState& ws);

  /// The one intake loop behind enqueue_batch / enqueue_interned /
  /// observe: `resolve` maps each item to its InternedObs, a miss folds
  /// into the owning shard's flow count, and a hit joins that shard's
  /// pending buffer, flushed once it holds kCoalesceItems.
  template <typename Item, typename Resolve>
  void intake(std::span<const Item> batch, Resolve resolve);

  /// Batched signature-lookup telemetry (one add per enqueue, not per
  /// observation).
  void bump_sig_counters(std::uint64_t lookups, std::uint64_t hits) {
    if (sig_lookups_) sig_lookups_->add(lookups);
    if (sig_hits_ && hits != 0) sig_hits_->add(hits);
  }

  /// Folds boundary-filtered misses into shard `s`'s flow accounting:
  /// stats().flows and the shard's detector_flows_total series stay
  /// exactly what a filter-free enqueue would have produced.
  void count_misses(std::size_t s, std::uint64_t misses) {
    if (misses == 0) return;
    missed_[s].v.fetch_add(misses, std::memory_order_relaxed);
    if (const auto& c = shards_[s]->instruments().flows) c->add(misses);
  }

  /// Per-shard miss counters, cache-line padded (producers on different
  /// shards must not false-share).
  struct alignas(64) PaddedCount {
    std::atomic<std::uint64_t> v{0};
  };

  std::vector<std::unique_ptr<Detector>> shards_;
  InternTable intern_;
  /// Producer-side current version: swapped by reload_rules under
  /// pending_mu_, loaded lock-free by readers.
  util::SharedSlot<const CompiledRuleVersion> version_;
  std::uint64_t next_version_id_ = 2;  ///< under pending_mu_
  SnapshotPolicy policy_;
  ViewHub hub_;
  std::vector<WorkState> work_;
  PublishHook publish_hook_;
  std::atomic<std::uint64_t> cutover_regressions_{0};
  std::unique_ptr<PaddedCount[]> missed_;
  std::shared_ptr<obs::Counter> sig_lookups_;
  std::shared_ptr<obs::Counter> sig_hits_;
  std::shared_ptr<obs::Counter> publishes_;
  std::shared_ptr<obs::Counter> reloads_;
  std::shared_ptr<obs::Gauge> version_gauge_;
  // mutable: flushing the coalescing buffers and riding publish tokens
  // are logically const — they complete writes the API contract already
  // promised were visible.
  mutable std::mutex pending_mu_;
  mutable std::vector<std::vector<InternedObs>> pending_;
  mutable std::vector<std::uint64_t> submitted_;  ///< chunks, per shard
  mutable std::unique_ptr<pipeline::ShardPool<Chunk>> pool_;
};

}  // namespace haystack::core
