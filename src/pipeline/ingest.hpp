// Streaming ingest pipeline (the paper's deployment shape).
//
// The scalability claim — "identify millions of IoT devices within
// minutes" from sampled NetFlow/IPFIX at a 15M-subscriber ISP (Sec. 6) —
// rests on sustained ingest throughput, so detection runs as a streaming
// service: concurrent stages connected by bounded queues with blocking
// backpressure, not a batch replay. The routers meter packets into flows
// and export them (Secs. 3 and 6); the pipeline sees only their exports.
//
//   push_datagram ─▶ [header pass] ─▶ [bodies × W] ─┐
//   push_flows ──── normalize (caller's thread) ────┼─▶ [detect × shards]
//   push_observations ──────────────────────────────┘
//
// Each bracketed stage is a worker pool over BoundedQueues (the detect
// stage is the ShardedDetector's persistent per-shard pool); a full queue
// blocks the producer, so overload propagates back to the datagram source
// instead of growing memory. The datagram path's two stages start their
// threads on the first datagram, so a pipeline fed only flows or
// observations runs only its shard workers.
//
// Datagram decode is split in two. The header pass — one thread, in push
// order — sniffs the version word (NetFlow v9 or IPFIX) and runs the
// collector's stateful scan: duplicates, sequence and restarts, template
// learning, parking and recovery, malformed detection. Each wave it pops
// becomes one body batch: the datagrams, the body jobs that point into
// them, and a ticket. W = max(1, usable CPUs − 1) body workers
// ([bodies × W]) take batch t at worker t mod W, execute the jobs'
// compiled plans, normalize the rows, and hand them to the shards when
// their ticket comes up, one enqueue per batch. push_flows normalizes on
// its caller's thread and enqueues like push_observations does.
// drain() is a topological quiescence barrier; shutdown() closes intake
// and drains every stage in dependency order. Per-stage
// depth/throughput/stall counters surface as telemetry::StageStats.
//
// Determinism: the header pass scans datagrams in push order, body
// batches reach the shards in ticket (= push) order for any W, and
// per-subscriber observation order is preserved through the shard queues
// — so the final evidence map is bit-for-bit identical to a synchronous
// replay (asserted by tests/differential_test.cpp for any shard count,
// queue capacity and body-worker count). Concurrent push_flows callers
// are ordered only per caller, as concurrent push_observations are.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/sharded_detector.hpp"
#include "flow/flow_batch.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v9.hpp"
#include "flow/template_plan.hpp"
#include "obs/observability.hpp"
#include "pipeline/shard_pool.hpp"
#include "serve/control.hpp"

namespace haystack::pipeline {

/// Maps a decoded flow record to a direction-normalized observation;
/// nullopt drops the flow from analysis (e.g. no server-looking side).
/// Called concurrently from every body worker and from every push_flows
/// caller's thread, so it must be safe to call from many threads.
using Normalizer = std::function<std::optional<core::Observation>(
    const flow::FlowRecord&, util::HourBin)>;

/// Canonical-orientation normalizer: flows arrive subscriber→server (the
/// repo's generators and any pre-normalized feed); the subscriber address
/// is anonymized with a keyed hash before it becomes the evidence key.
[[nodiscard]] Normalizer default_normalizer(std::uint64_t anonymization_key);

struct IngestConfig {
  unsigned shards = 4;
  /// Per-stage queue capacity, in items (datagrams / observation chunks
  /// respectively).
  std::size_t queue_capacity = 1024;
  /// Adaptive-batching bound per consumer wake-up.
  std::size_t max_wave = 64;
  core::DetectorConfig detector{};
  /// Decode-stage duplicate-suppression window (datagrams per source).
  std::size_t dedup_window = 64;
  /// Key for default_normalizer when no normalizer is supplied.
  std::uint64_t anonymization_key = 0x68617973;  // "hays"
  /// Observability sink (ISSUE 5). When null, the pipeline owns a private
  /// obs::Observability — tests stay hermetic; a daemon embedding several
  /// pipelines passes one shared instance (e.g. &obs::Observability::
  /// global()) so a single scrape covers them all.
  obs::Observability* obs = nullptr;
  /// Stage-wave duration above which a kSlowWave flight event is recorded;
  /// 0 disables (the default keeps fault dumps free of timing noise).
  std::uint64_t slow_wave_ns = 0;
  /// Read-view publication policy (ISSUE 8): how often shard workers
  /// republish live views on their own (fresh snapshots and reload
  /// cutovers always refresh). 0 = on demand only.
  core::SnapshotPolicy snapshots{};
  /// Alerting thresholds for the serve-layer control plane.
  serve::AlertConfig alerts{};
};

/// The streaming service. One instance owns all stage threads.
class IngestPipeline {
 public:
  IngestPipeline(const core::Hitlist& hitlist, const core::RuleSet& rules,
                 const IngestConfig& config, Normalizer normalizer = {});
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Raw export datagram (NetFlow v9 or IPFIX, sniffed by version; any
  /// other version word counts as unknown_version). Blocks when the
  /// decode queue is full. False after shutdown().
  bool push_datagram(std::vector<std::uint8_t> bytes, util::HourBin hour);

  /// Already-decoded flow records, all of `hour`: normalized on the
  /// calling thread, then enqueued to the detect stage. Safe to call from
  /// many threads at once. False after shutdown().
  bool push_flows(std::vector<flow::FlowRecord> flows, util::HourBin hour);

  /// Already-normalized observations (enter at the detect stage).
  bool push_observations(std::vector<core::Observation> chunk);

  /// Topological quiescence barrier: once it returns, every input pushed
  /// before the call has flowed through all stages into the evidence map.
  void drain();

  /// Drain-then-stop: refuses new input, drains and joins every stage in
  /// dependency order. Idempotent; the detector stays readable afterwards.
  void shutdown();

  /// The detect stage. Reads are safe any time — they are served from
  /// epoch-published views covering everything already at the detect
  /// stage (ISSUE 8); call drain() first when upstream stages must be
  /// settled too.
  [[nodiscard]] core::ShardedDetector& detector() noexcept {
    return detector_;
  }
  [[nodiscard]] const core::ShardedDetector& detector() const noexcept {
    return detector_;
  }

  /// The live control plane (ISSUE 8): wait-free snapshots, fresh
  /// (token-refreshed) snapshots, versioned rule hot-reload, and
  /// threshold alerting — all safe under full ingest.
  [[nodiscard]] serve::ControlPlane& control() noexcept { return *control_; }
  [[nodiscard]] const serve::ControlPlane& control() const noexcept {
    return *control_;
  }

  /// Thin facade over the metric registry (ISSUE 5): every counter below
  /// reads the registry series of the same quantity, so this struct and a
  /// scrape can never disagree.
  struct Stats {
    telemetry::StageStats decode;     ///< datagram queue (header pass)
    telemetry::StageStats decode_body;  ///< body-batch queues, summed
    /// Always zero: no normalize queue exists (body workers and push_flows
    /// callers normalize). Kept only while benches still read it.
    telemetry::StageStats normalize;
    telemetry::StageStats detect;     ///< all shard queues aggregated
    std::vector<telemetry::StageStats> detect_shards;
    std::uint64_t datagrams = 0;           ///< accepted by push_datagram
    std::uint64_t malformed_datagrams = 0; ///< rejected by the codecs
    std::uint64_t unknown_version = 0;     ///< unsniffable version word
    std::uint64_t flows_decoded = 0;       ///< records out of the codecs
    std::uint64_t flows_in = 0;            ///< accepted by push_flows
    std::uint64_t observations = 0;        ///< entered the detect stage
    std::uint64_t observations_direct = 0; ///< via push_observations
    std::uint64_t dropped_direction = 0;   ///< normalizer returned nullopt
    std::uint64_t self_check_failures = 0; ///< conservation violations
    /// Decode-stage template-recovery telemetry (nf9 + IPFIX summed),
    /// exact after drain(): records decoded out of parked flowsets/sets,
    /// and flowsets/sets ever parked awaiting a template.
    std::uint64_t decode_recovered_records = 0;
    std::uint64_t decode_parked_flowsets = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// The pipeline's observability bundle (its own, or the one injected via
  /// IngestConfig::obs): scrape `observability().registry`, dump
  /// `observability().recorder`.
  [[nodiscard]] obs::Observability& observability() noexcept { return *obs_; }
  [[nodiscard]] const obs::Observability& observability() const noexcept {
    return *obs_;
  }

  /// Conservation self-check (ISSUE 5). Call after drain(): verifies that
  /// every flow that entered any intake left through exactly one of
  /// {observation, direction-drop}. A violation bumps
  /// pipeline_self_check_failures_total, records a kSelfCheckFailed flight
  /// event, and is returned with a reason.
  struct SelfCheck {
    bool ok = true;
    std::string detail;  ///< empty when ok
  };
  SelfCheck self_check();

 private:
  struct Datagram {
    util::HourBin hour = 0;
    std::vector<std::uint8_t> bytes;
  };
  /// Body-stage item: one header-pass wave. The datagrams travel with the
  /// jobs that point into them; job_ends[i] is the index past datagram
  /// i's last job.
  struct BodyBatch {
    std::uint64_t ticket = 0;
    std::vector<Datagram> datagrams;
    std::vector<std::uint32_t> job_ends;
    std::vector<flow::plan::BodyJob> jobs;
  };
  /// One body batch's (or one push_flows call's) observations, normalized
  /// under one pinned rule version and handed to the shards in one enqueue
  /// call. Each body worker owns one and reuses its capacity.
  struct NormalizedWave {
    std::shared_ptr<const core::CompiledRuleVersion> version;
    std::vector<core::InternedObs> interned;  ///< stock normalizer
    std::vector<core::Observation> generic;   ///< custom normalizer
    std::uint64_t dropped = 0;                ///< normalizer returned nullopt
  };

  /// The header pass: scans a wave and hands it to a body worker.
  void decode_wave(std::vector<Datagram>& wave);
  void body_wave(unsigned worker, std::vector<BodyBatch>& wave);
  /// Row → observation conversion, shared by the body workers and
  /// push_flows: appends `rows` (all of `hour`) to `out`.
  void normalize_rows(const flow::FlowBatch& rows, util::HourBin hour,
                      NormalizedWave& out) const;
  /// Books `out`'s counters, enqueues its observations, and empties it.
  void emit(NormalizedWave& out);

  IngestConfig config_;
  /// True when running the stock normalizer: rows go straight from SoA
  /// columns into interned observations, never materializing FlowRecord
  /// or core::Observation. Must be declared before normalizer_ (it is
  /// initialized from the constructor parameter before the move).
  bool fast_normalize_ = false;
  Normalizer normalizer_;

  // Observability must precede detector_: the member-init-list hands obs_
  // to the ShardedDetector (and the stage pools) at construction.
  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;  // never null
  struct StageInstruments {
    std::shared_ptr<obs::Histogram> wave_ns;
    std::shared_ptr<obs::Histogram> wave_items;
  };
  StageInstruments decode_obs_;
  StageInstruments body_obs_;

  // Declaration order is reverse-topological so default destruction (after
  // shutdown()) tears down consumers last-to-first.
  /// Declared before detector_ so it is destroyed after it: shard
  /// workers may invoke the alert publish hook until the detector joins
  /// them. Constructed (in the ctor body) right after detector_.
  std::unique_ptr<serve::ControlPlane> control_;
  core::ShardedDetector detector_;

  // Body stage. Each worker owns the batch its jobs decode into and the
  // wave its rows normalize to; they outlive the pool that uses them.
  // Batches commit to the shards in ticket order: a worker holding ticket
  // t waits until next_commit_ == t.
  struct BodyWorker {
    flow::FlowBatch rows;
    NormalizedWave out;
  };
  std::vector<BodyWorker> body_workers_;
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::uint64_t next_commit_ = 0;  // guarded by commit_mu_
  std::unique_ptr<ShardPool<BodyBatch>> bodies_;

  std::unique_ptr<ShardPool<Datagram>> decode_;

  // Header-pass state (touched only by the decode worker): codecs and the
  // next body batch's ticket.
  flow::nf9::Collector nf9_;
  flow::ipfix::Collector ipfix_;
  std::uint64_t next_ticket_ = 0;

  std::atomic<bool> closed_{false};
  bool shutdown_done_ = false;

  // Registry-backed counters (ISSUE 5): these *are* the pipeline's
  // throughput state — the Stats facade and the exporters read the same
  // atomics. Handles are resolved once at construction; the hot path is
  // one relaxed fetch_add, same as the ad-hoc atomics they replaced.
  std::shared_ptr<obs::Counter> datagrams_;
  std::shared_ptr<obs::Counter> malformed_;
  std::shared_ptr<obs::Counter> unknown_version_;
  std::shared_ptr<obs::Counter> flows_decoded_;
  std::shared_ptr<obs::Counter> flows_in_;
  std::shared_ptr<obs::Counter> observations_;
  std::shared_ptr<obs::Counter> observations_direct_;
  std::shared_ptr<obs::Counter> dropped_direction_;
  std::shared_ptr<obs::Counter> self_check_failures_;
  /// Per-batch body-decode cost (recorded by the body workers) and
  /// template-recovery snapshots (set by the header pass), read by scrapes
  /// and stats().
  std::shared_ptr<obs::Histogram> decode_ns_per_record_;
  std::shared_ptr<obs::Gauge> decode_recovered_;
  std::shared_ptr<obs::Gauge> decode_parked_;
};

}  // namespace haystack::pipeline
