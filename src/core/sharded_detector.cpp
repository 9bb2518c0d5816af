#include "core/sharded_detector.hpp"

#include <algorithm>
#include <utility>

namespace haystack::core {

ShardedDetector::ShardedDetector(const Hitlist& hitlist, const RuleSet& rules,
                                 const DetectorConfig& config,
                                 unsigned shards,
                                 std::size_t queue_capacity,
                                 obs::Observability* obs,
                                 SnapshotPolicy snapshots)
    : policy_{snapshots}, hub_{std::max(1U, shards)} {
  const unsigned n = hub_.shards();
  // Compile version 1: the boundary signature index, the rule-name intern
  // table, and the per-service dispatch tables, shared by every shard.
  auto v1 = compile_rules(hitlist, rules, config, /*id=*/1, nullptr,
                          &intern_);
  version_.store(v1);
  if (obs != nullptr) {
    sig_lookups_ = obs->registry.counter("signature_lookups_total");
    sig_hits_ = obs->registry.counter("signature_hits_total");
    publishes_ = obs->registry.counter("view_publishes_total");
    reloads_ = obs->registry.counter("ruleset_reloads_total");
    version_gauge_ = obs->registry.gauge("ruleset_version");
    version_gauge_->set(1);
    obs->registry.gauge("intern_table_size")
        ->set(static_cast<std::int64_t>(intern_.size()));
    obs->registry.gauge("signature_endpoints")
        ->set(static_cast<std::int64_t>(v1->index->endpoint_count()));
  }

  missed_ = std::make_unique<PaddedCount[]>(n);
  pending_.resize(n);
  submitted_.assign(n, 0);
  work_.resize(n);
  shards_.reserve(n);
  for (unsigned s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Detector>(v1));
    work_[s].active = v1;
    if (obs != nullptr) {
      // Per-shard counter/gauge series so hot increments never share a
      // cache line across shards; the time-to-detection histogram is one
      // series (detection transitions are rare).
      const obs::Labels shard_labels{{"shard", std::to_string(s)}};
      DetectorInstruments inst;
      inst.flows = obs->registry.counter("detector_flows_total", shard_labels);
      inst.matched =
          obs->registry.counter("detector_matched_total", shard_labels);
      inst.rules_satisfied =
          obs->registry.counter("detector_rules_satisfied_total", shard_labels);
      inst.evidence_entries =
          obs->registry.gauge("detector_evidence_entries", shard_labels);
      inst.evidence_bytes =
          obs->registry.gauge("detector_evidence_bytes", shard_labels);
      inst.time_to_detection_hours =
          obs->registry.histogram("detector_time_to_detection_hours");
      inst.recorder = &obs->recorder;
      inst.source = s;
      shards_.back()->set_instruments(std::move(inst));
    }
  }
  // Seed the hub with real (empty, epoch-0, version-1) views before any
  // chunk can flow, so live_view() is never version-less.
  for (unsigned s = 0; s < n; ++s) {
    auto v = std::make_shared<ShardView>();
    v->shard = s;
    v->ruleset_version = v1->id;
    v->compiled = v1;
    hub_.publish(std::move(v));
  }
  // Persistent workers: one long-lived thread per shard, consuming that
  // shard's chunk queue. The handler runs on worker s and touches only
  // shards_[s] / work_[s], so the hot path stays lock-free on evidence
  // state.
  pipeline::ShardPoolConfig pool_config{.shards = n,
                                        .queue_capacity = queue_capacity,
                                        .max_wave = 64,
                                        .obs = obs,
                                        .stage_tag = obs::kStageDetect};
  pool_ = std::make_unique<pipeline::ShardPool<Chunk>>(
      pool_config, [this](unsigned s, std::vector<Chunk>& wave) {
        handle_wave(s, wave);
      });
  // Every intake path ends here, so the shard workers start with the
  // detector rather than on its first chunk.
  pool_->start();
}

ShardedDetector::~ShardedDetector() {
  flush_pending();
  pool_->stop();
}

void ShardedDetector::handle_wave(unsigned s, std::vector<Chunk>& wave) {
  Detector& det = *shards_[s];
  WorkState& ws = work_[s];
  std::uint64_t flows = 0;
  std::uint64_t matched = 0;
  bool publish_due = false;
  // Evidence slots for distinct subscribers are effectively random lines
  // in a table far larger than cache, so the apply loop is
  // memory-latency-bound; prefetching a few items ahead overlaps those
  // misses.
  constexpr std::size_t kAhead = 8;
  for (const Chunk& chunk : wave) {
    // Version cutover: every chunk is applied under exactly the version
    // it was tagged with at submit time. Tagging happens under the same
    // mutex reload_rules swaps under, so per-shard tags are monotone;
    // the regression counter proves it in the serve soak.
    if (chunk.version != ws.active) {
      if (chunk.version->id > ws.active->id) {
        det.adopt_version(chunk.version);
        ws.active = chunk.version;
        publish_due = true;  // snapshots must see the new version promptly
      } else if (chunk.version->id < ws.active->id) {
        cutover_regressions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    flows += chunk.items.size();
    const std::size_t count = chunk.items.size();
    for (std::size_t i = 0; i < count; ++i) {
      if (i + kAhead < count) {
        const InternedObs& ahead = chunk.items[i + kAhead];
        det.prefetch_evidence(ahead.subscriber, ahead.sig);
      }
      const InternedObs& o = chunk.items[i];
      matched += det.observe_interned_uncounted(o.subscriber, o.sig,
                                                o.packets, o.hour)
                     ? 1U
                     : 0U;
    }
    ++ws.applied_chunks;
    ws.applied_obs += count;
    ws.obs_since_publish += count;
    if (chunk.publish) publish_due = true;
  }
  det.add_observation_counts(flows, matched);
  if (publish_due ||
      (policy_.auto_publish_observations > 0 &&
       ws.obs_since_publish >= policy_.auto_publish_observations)) {
    publish_view(s, ws);
  }
}

void ShardedDetector::publish_view(unsigned s, WorkState& ws) {
  const Detector& det = *shards_[s];
  auto v = std::make_shared<ShardView>();
  v->shard = s;
  v->epoch = ws.applied_chunks;
  v->observations = ws.applied_obs;
  v->satisfied = det.satisfied_total();
  v->ruleset_version = ws.active->id;
  v->compiled = ws.active;
  v->stats.flows =
      det.stats().flows + missed_[s].v.load(std::memory_order_relaxed);
  v->stats.matched = det.stats().matched;
  v->observed_loss = det.observed_loss();
  v->degraded = det.degraded();
  v->evidence = det.evidence_map();  // slot-order-preserving copy
  ws.obs_since_publish = 0;
  const std::shared_ptr<const ShardView> prev = hub_.view(s);
  const std::shared_ptr<const ShardView> now = std::move(v);
  hub_.publish(now);
  if (publishes_) publishes_->add(1);
  if (publish_hook_) publish_hook_(prev.get(), *now);
}

void ShardedDetector::submit_locked(std::size_t s, Chunk chunk) const {
  // Submit under pending_mu_ (callers hold it): every shard-queue
  // submission happens with the mutex held, so submissions occur in
  // append order and a concurrent flush can never overtake a full-chunk
  // submit for the same subscriber. Workers never take pending_mu_, so a
  // backpressure block here still makes progress.
  pool_->submit(static_cast<unsigned>(s), std::move(chunk));
  ++submitted_[s];
}

void ShardedDetector::flush_shard_locked(std::size_t s) const {
  if (pending_[s].empty()) return;
  // Tag with the version current *now*: reload_rules flushes every
  // pending buffer before swapping, so anything still pending was
  // appended (and interned) under the current version.
  Chunk chunk{version_.load(),
              std::move(pending_[s]), /*publish=*/false};
  pending_[s] = {};
  pending_[s].reserve(kCoalesceItems);
  submit_locked(s, std::move(chunk));
}

void ShardedDetector::flush_pending() const {
  std::lock_guard lock{pending_mu_};
  for (std::size_t s = 0; s < pending_.size(); ++s) flush_shard_locked(s);
}

template <typename Item, typename Resolve>
void ShardedDetector::intake(std::span<const Item> batch, Resolve resolve) {
  if (batch.empty()) return;
  const std::size_t n = shards_.size();
  std::uint64_t hits = 0;
  std::vector<std::uint64_t> misses(n, 0);
  // Partition preserving per-subscriber order, filtering misses at the
  // boundary (they carry no evidence — only a flow count) and coalescing
  // the matching minority into the per-shard pending chunks. Queue
  // traffic is then proportional to kCoalesceItems flushes, not to
  // producer chunk boundaries, and on wild traffic — where roughly half
  // the flows miss the hitlist — the shard queues carry only matches.
  {
    std::lock_guard lock{pending_mu_};
    for (const Item& item : batch) {
      const InternedObs o = resolve(item);
      const auto s = shard_of(o.subscriber);
      if (o.sig == kNoSig) {
        ++misses[s];
        continue;
      }
      ++hits;
      pending_[s].push_back(o);
      if (pending_[s].size() >= kCoalesceItems) flush_shard_locked(s);
    }
  }
  bump_sig_counters(batch.size(), hits);
  for (std::size_t s = 0; s < n; ++s) count_misses(s, misses[s]);
}

void ShardedDetector::observe(const Observation& obs) {
  enqueue_batch({&obs, 1});
}

void ShardedDetector::enqueue_batch(std::span<const Observation> batch) {
  const auto ver = current_version();
  intake(batch, [&index = *ver->index](const Observation& obs) {
    return InternedObs{
        obs.subscriber, obs.packets,
        index.sig_of(obs.server, obs.port, util::day_of(obs.hour)),
        obs.hour};
  });
}

void ShardedDetector::enqueue_interned(std::span<const InternedObs> batch) {
  intake(batch, [](const InternedObs& o) { return o; });
}

void ShardedDetector::process_batch(std::span<const Observation> batch) {
  enqueue_batch(batch);
  drain();
}

void ShardedDetector::drain() const {
  flush_pending();
  pool_->drain();
}

std::shared_ptr<const ShardView> ShardedDetector::fresh_view(
    unsigned shard) const {
  std::uint64_t target = 0;
  {
    std::lock_guard lock{pending_mu_};
    flush_shard_locked(shard);
    submit_locked(shard,
                  Chunk{version_.load(),
                        {},
                        /*publish=*/true});
    target = submitted_[shard];
  }
  // The token is chunk number `target` in this shard's FIFO; the wave
  // containing it publishes at epoch >= target, covering everything
  // enqueued before this call. No other shard is touched.
  hub_.wait_epoch(shard, target);
  return hub_.view(shard);
}

std::vector<std::shared_ptr<const ShardView>> ShardedDetector::fresh_views()
    const {
  const std::size_t n = shards_.size();
  std::vector<std::uint64_t> targets(n, 0);
  {
    std::lock_guard lock{pending_mu_};
    for (std::size_t s = 0; s < n; ++s) {
      flush_shard_locked(s);
      submit_locked(s, Chunk{version_.load(),
                             {},
                             /*publish=*/true});
      targets[s] = submitted_[s];
    }
  }
  // All tokens are in flight before any wait: shards refresh in parallel.
  std::vector<std::shared_ptr<const ShardView>> out;
  out.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    hub_.wait_epoch(static_cast<unsigned>(s), targets[s]);
    out.push_back(hub_.view(static_cast<unsigned>(s)));
  }
  return out;
}

std::uint64_t ShardedDetector::reload_rules(
    std::shared_ptr<const RuleSet> rules, const DetectorConfig& config) {
  std::uint64_t id = 0;
  {
    std::lock_guard lock{pending_mu_};
    id = next_version_id_++;
  }
  // Compile off the hot path: the new SignatureIndex build and the
  // intern-table deltas (thread-safe, append-only, stable handles) run
  // without pending_mu_, so producers never stall on a reload.
  const RuleSet& r = *rules;
  auto v = compile_rules(r.hitlist, r, config, id, rules, &intern_);
  {
    std::lock_guard lock{pending_mu_};
    // Flush everything appended under the pre-reload version first (the
    // flush tags it with the old version), then swap: in-flight waves
    // finish on the old version, everything after applies on the new one.
    for (std::size_t s = 0; s < pending_.size(); ++s) flush_shard_locked(s);
    const auto cur = version_.load();
    if (v->id > cur->id) {
      version_.store(v);
    }
    // Cutover tokens: wake every shard so it adopts and republishes even
    // with no traffic — the next snapshot reports the new version.
    for (std::size_t s = 0; s < pending_.size(); ++s) {
      submit_locked(s, Chunk{version_.load(),
                             {},
                             /*publish=*/true});
    }
  }
  if (reloads_) reloads_->add(1);
  if (version_gauge_) {
    version_gauge_->set(static_cast<std::int64_t>(current_version()->id));
  }
  return v->id;
}

bool ShardedDetector::detected(SubscriberKey subscriber,
                               ServiceId service) const {
  return fresh_view(owner_shard(subscriber))->detected(subscriber, service);
}

std::optional<util::HourBin> ShardedDetector::detection_hour(
    SubscriberKey subscriber, ServiceId service) const {
  return fresh_view(owner_shard(subscriber))
      ->detection_hour(subscriber, service);
}

Verdict ShardedDetector::verdict(SubscriberKey subscriber,
                                 ServiceId service) const {
  return fresh_view(owner_shard(subscriber))->verdict(subscriber, service);
}

void ShardedDetector::set_observed_loss(double fraction) noexcept {
  drain();
  for (const auto& shard : shards_) shard->set_observed_loss(fraction);
}

void ShardedDetector::restore_evidence(SubscriberKey subscriber,
                                       ServiceId service,
                                       const Evidence& evidence) {
  drain();
  shards_[shard_of(subscriber)]->restore_evidence(subscriber, service,
                                                  evidence);
}

void ShardedDetector::restore_stats(const Detector::Stats& stats) {
  drain();
  shards_[0]->restore_stats(stats);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    shards_[s]->restore_stats({});
  }
  // The restored totals already include any boundary-filtered misses.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    missed_[s].v.store(0, std::memory_order_relaxed);
  }
  // Republish so wait-free live views reflect the restored state too
  // (the fresh-view read APIs would refresh on their own).
  static_cast<void>(fresh_views());
}

void ShardedDetector::for_each_evidence(
    const std::function<void(SubscriberKey, ServiceId, const Evidence&)>& fn)
    const {
  // Fresh views preserve the live tables' slot order, so iteration order
  // matches a drained pass over the shards exactly.
  for (const auto& view : fresh_views()) {
    view->evidence.for_each([&](SubscriberKey subscriber, ServiceId service,
                                const Evidence& ev) {
      fn(subscriber, service, ev);
    });
  }
}

void ShardedDetector::clear() {
  drain();
  for (const auto& shard : shards_) shard->clear();
  // Republish so stale pre-clear detections never linger in live views.
  static_cast<void>(fresh_views());
}

Detector::Stats ShardedDetector::stats() const {
  Detector::Stats total;
  for (const auto& view : fresh_views()) {
    total.flows += view->stats.flows;  // includes boundary-filtered misses
    total.matched += view->stats.matched;
  }
  return total;
}

telemetry::StageStats ShardedDetector::shard_queue_stats(
    unsigned shard) const {
  return pool_->stats(shard);
}

}  // namespace haystack::core
