#include "pipeline/ingest.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "telemetry/anonymize.hpp"
#include "util/cpus.hpp"

namespace haystack::pipeline {

Normalizer default_normalizer(std::uint64_t anonymization_key) {
  return [anonymization_key](const flow::FlowRecord& rec, util::HourBin hour)
             -> std::optional<core::Observation> {
    return core::Observation{
        .subscriber = telemetry::anonymize(rec.key.src, anonymization_key),
        .server = rec.key.dst,
        .port = rec.key.dst_port,
        .packets = rec.packets,
        .hour = hour,
    };
  };
}

namespace {

// Export version word (first two bytes, network order): 9 = NetFlow v9,
// 10 = IPFIX.
[[nodiscard]] std::uint16_t sniff_version(
    const std::vector<std::uint8_t>& bytes) noexcept {
  if (bytes.size() < 2) return 0;
  return static_cast<std::uint16_t>((bytes[0] << 8) | bytes[1]);
}

}  // namespace

IngestPipeline::IngestPipeline(const core::Hitlist& hitlist,
                               const core::RuleSet& rules,
                               const IngestConfig& config,
                               Normalizer normalizer)
    : config_{config},
      fast_normalize_{!normalizer},
      normalizer_{normalizer ? std::move(normalizer)
                             : default_normalizer(config.anonymization_key)},
      owned_obs_{config.obs != nullptr
                     ? nullptr
                     : std::make_unique<obs::Observability>()},
      obs_{config.obs != nullptr ? config.obs : owned_obs_.get()},
      detector_{hitlist,
                rules,
                config.detector,
                std::max(1u, config.shards),
                config.queue_capacity,
                obs_,
                config.snapshots},
      nf9_{flow::nf9::CollectorConfig{.dedup_window = config.dedup_window,
                                      .recorder = &obs_->recorder}},
      ipfix_{flow::ipfix::CollectorConfig{.dedup_window = config.dedup_window,
                                          .recorder = &obs_->recorder}},
      datagrams_{obs_->registry.counter("pipeline_datagrams_total")},
      malformed_{obs_->registry.counter("pipeline_malformed_datagrams_total")},
      unknown_version_{
          obs_->registry.counter("pipeline_unknown_version_total")},
      flows_decoded_{obs_->registry.counter("pipeline_flows_decoded_total")},
      flows_in_{obs_->registry.counter("pipeline_flows_in_total")},
      observations_{obs_->registry.counter("pipeline_observations_total")},
      observations_direct_{
          obs_->registry.counter("pipeline_observations_direct_total")},
      dropped_direction_{
          obs_->registry.counter("pipeline_dropped_direction_total")},
      self_check_failures_{
          obs_->registry.counter("pipeline_self_check_failures_total")},
      decode_ns_per_record_{
          obs_->registry.histogram("decode_batch_ns_per_record")},
      decode_recovered_{
          obs_->registry.gauge("decode_recovered_records")},
      decode_parked_{obs_->registry.gauge("decode_parked_flowsets")} {
  // Wiring time: installs the alert engine as the detector's publish
  // hook before any observation can flow.
  control_ = std::make_unique<serve::ControlPlane>(detector_, config_.alerts,
                                                   obs_);
  auto make_stage = [this](std::uint32_t tag) {
    const obs::Labels labels{{"stage", obs::stage_name(tag)}};
    StageInstruments inst;
    inst.wave_ns = obs_->registry.histogram("stage_wave_ns", labels);
    inst.wave_items = obs_->registry.histogram("stage_wave_items", labels);
    return inst;
  };
  decode_obs_ = make_stage(obs::kStageDecode);
  body_obs_ = make_stage(obs::kStageDecodeBody);
  auto stage_config = [this](const StageInstruments& inst, std::uint32_t tag) {
    ShardPoolConfig stage{.shards = 1,
                         .queue_capacity = config_.queue_capacity,
                         .max_wave = config_.max_wave};
    stage.wave_ns = inst.wave_ns.get();
    stage.wave_items = inst.wave_items.get();
    stage.recorder = &obs_->recorder;
    stage.stage_tag = tag;
    stage.slow_wave_ns = config_.slow_wave_ns;
    return stage;
  };
  // Body stage: one queue per worker, each bounded to the datagrams the
  // decode queue holds (a batch is at most one decode wave). Workers take
  // one batch per wake-up, since each commit waits for its turn.
  ShardPoolConfig body = stage_config(body_obs_, obs::kStageDecodeBody);
  body.shards = std::max(1u, util::usable_cpus() - 1);
  body.queue_capacity = std::max<std::size_t>(
      1, config_.queue_capacity / std::max<std::size_t>(1, config_.max_wave));
  body.max_wave = 1;
  body_workers_.resize(body.shards);
  bodies_ = std::make_unique<ShardPool<BodyBatch>>(
      body, [this](unsigned worker, std::vector<BodyBatch>& wave) {
        body_wave(worker, wave);
      });
  decode_ = std::make_unique<ShardPool<Datagram>>(
      stage_config(decode_obs_, obs::kStageDecode),
      [this](unsigned, std::vector<Datagram>& wave) { decode_wave(wave); });
}

IngestPipeline::~IngestPipeline() { shutdown(); }

bool IngestPipeline::push_datagram(std::vector<std::uint8_t> bytes,
                                   util::HourBin hour) {
  if (closed_.load(std::memory_order_acquire)) return false;
  obs_->recorder.set_hour(hour);
  if (!decode_->submit(0, Datagram{hour, std::move(bytes)})) return false;
  datagrams_->add(1);
  return true;
}

bool IngestPipeline::push_flows(std::vector<flow::FlowRecord> flows,
                                util::HourBin hour) {
  if (closed_.load(std::memory_order_acquire)) return false;
  obs_->recorder.set_hour(hour);
  // Call-local batch and wave: any number of callers may be in here at
  // once. flows_in is booked before emit() so that, once drained, no
  // observation was counted without the flow it came from.
  flow::FlowBatch rows;
  rows.reserve(flows.size());
  for (const auto& rec : flows) rows.push(rec);
  NormalizedWave out;
  normalize_rows(rows, hour, out);
  flows_in_->add(flows.size());
  emit(out);
  return true;
}

bool IngestPipeline::push_observations(std::vector<core::Observation> chunk) {
  if (closed_.load(std::memory_order_acquire)) return false;
  if (!chunk.empty()) obs_->recorder.set_hour(chunk.back().hour);
  observations_->add(chunk.size());
  observations_direct_->add(chunk.size());
  detector_.enqueue_batch(chunk);
  return true;
}

void IngestPipeline::drain() {
  // Topological order: each stage's drain happens-before the next stage's
  // submitted-counter snapshot, so anything a stage forwarded downstream
  // is covered by the downstream barrier.
  decode_->drain();
  bodies_->drain();
  detector_.drain();
}

void IngestPipeline::shutdown() {
  if (shutdown_done_) return;
  shutdown_done_ = true;
  closed_.store(true, std::memory_order_release);
  // Stop in dependency order: each stage's consumers downstream are still
  // alive while it drains, so nothing deadlocks on a full queue.
  decode_->stop();
  bodies_->stop();
  detector_.drain();  // detect stage stays alive for reads
  obs_->recorder.record(obs::EventKind::kPipelineShutdown, 0,
                        observations_->value(), datagrams_->value());
}

void IngestPipeline::decode_wave(std::vector<Datagram>& wave) {
  BodyBatch batch;
  batch.job_ends.reserve(wave.size());
  for (const Datagram& dgram : wave) {
    bool ok = true;
    switch (sniff_version(dgram.bytes)) {
      case 9:
        ok = nf9_.scan(dgram.bytes, batch.jobs);
        break;
      case 10:
        ok = ipfix_.scan(dgram.bytes, batch.jobs);
        break;
      default:
        unknown_version_->add(1);
        break;
    }
    if (!ok) malformed_->add(1);
    batch.job_ends.push_back(static_cast<std::uint32_t>(batch.jobs.size()));
  }
  decode_recovered_->set(static_cast<std::int64_t>(
      nf9_.stats().recovered_records + ipfix_.stats().recovered_records));
  decode_parked_->set(static_cast<std::int64_t>(
      nf9_.stats().buffered_flowsets + ipfix_.stats().buffered_sets));
  if (batch.jobs.empty()) return;  // nothing to decode: no ticket
  // The jobs point into these datagrams' bytes; swapping the vectors
  // moves no datagram.
  batch.datagrams.swap(wave);
  batch.ticket = next_ticket_++;
  bodies_->submit(static_cast<unsigned>(batch.ticket % bodies_->shards()),
                  std::move(batch));
}

void IngestPipeline::body_wave(unsigned worker, std::vector<BodyBatch>& wave) {
  BodyWorker& self = body_workers_[worker];
  for (BodyBatch& batch : wave) {
    std::uint64_t decoded = 0;
    [[maybe_unused]] std::uint64_t decode_ns = 0;
    std::size_t job = 0;
    for (std::size_t d = 0; d < batch.datagrams.size(); ++d) {
      const std::size_t end = batch.job_ends[d];
      if (job == end) continue;
      self.rows.clear();
      [[maybe_unused]] std::chrono::steady_clock::time_point t0;
      if constexpr (!obs::kStripped) t0 = std::chrono::steady_clock::now();
      for (; job < end; ++job) flow::plan::execute(batch.jobs[job], self.rows);
      if constexpr (!obs::kStripped) {
        decode_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      }
      decoded += self.rows.size();
      normalize_rows(self.rows, batch.datagrams[d].hour, self.out);
    }
    if constexpr (!obs::kStripped) {
      if (decoded != 0) decode_ns_per_record_->record(decode_ns / decoded);
    }
    // Commit in ticket order: one enqueue per batch, in push order.
    std::unique_lock lock{commit_mu_};
    commit_cv_.wait(lock, [&] { return next_commit_ == batch.ticket; });
    lock.unlock();
    flows_decoded_->add(decoded);
    emit(self.out);
    lock.lock();
    ++next_commit_;
    lock.unlock();
    commit_cv_.notify_all();
  }
}

void IngestPipeline::normalize_rows(const flow::FlowBatch& rows,
                                    util::HourBin hour,
                                    NormalizedWave& out) const {
  if (fast_normalize_) {
    // Stock-normalizer fast path: read SoA columns straight into interned
    // observations — no FlowRecord, no core::Observation, no second
    // hitlist hash downstream. Exactly equivalent to the generic path
    // below under default_normalizer (which never drops a flow).
    //
    // Pin the compiled rule version once per wave: a hot-reload
    // mid-wave must not swap the index under us; emit() releases the pin
    // once the wave is enqueued.
    if (!out.version) out.version = detector_.current_version();
    const core::SignatureIndex& sig_index = *out.version->index;
    const std::uint64_t key = config_.anonymization_key;
    const util::DayBin day = util::day_of(hour);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out.interned.push_back(core::InternedObs{
          telemetry::anonymize(rows.src[i], key), rows.packets[i],
          sig_index.sig_of(rows.dst[i], rows.dst_port[i], day), hour});
    }
    return;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (auto obs = normalizer_(rows.record(i), hour)) {
      out.generic.push_back(*obs);
    } else {
      ++out.dropped;
    }
  }
}

void IngestPipeline::emit(NormalizedWave& out) {
  if (out.dropped != 0) dropped_direction_->add(out.dropped);
  const std::size_t n = out.interned.size() + out.generic.size();
  if (n != 0) {
    observations_->add(n);
    if (fast_normalize_) {
      detector_.enqueue_interned(out.interned);
    } else {
      detector_.enqueue_batch(out.generic);
    }
  }
  out.interned.clear();
  out.generic.clear();
  out.dropped = 0;
  out.version.reset();
}

IngestPipeline::Stats IngestPipeline::stats() const {
  Stats out;
  out.decode = decode_->stats_total();
  out.decode_body = bodies_->stats_total();
  out.detect_shards.reserve(detector_.shard_count());
  for (unsigned s = 0; s < detector_.shard_count(); ++s) {
    out.detect_shards.push_back(detector_.shard_queue_stats(s));
    out.detect += out.detect_shards.back();
  }
  out.datagrams = datagrams_->value();
  out.malformed_datagrams = malformed_->value();
  out.unknown_version = unknown_version_->value();
  out.flows_decoded = flows_decoded_->value();
  out.flows_in = flows_in_->value();
  out.observations = observations_->value();
  out.observations_direct = observations_direct_->value();
  out.dropped_direction = dropped_direction_->value();
  out.self_check_failures = self_check_failures_->value();
  out.decode_recovered_records =
      static_cast<std::uint64_t>(decode_recovered_->value());
  out.decode_parked_flowsets =
      static_cast<std::uint64_t>(decode_parked_->value());
  return out;
}

IngestPipeline::SelfCheck IngestPipeline::self_check() {
  drain();
  const Stats s = stats();
  SelfCheck out;
  auto fail = [&](std::string detail) {
    out.ok = false;
    if (!out.detail.empty()) out.detail += "; ";
    out.detail += detail;
  };
  // Flow conservation: every record that was normalized — out of the
  // decoders (by a body worker) or through push_flows (on its caller's
  // thread) — became exactly one observation or one direction-drop.
  // Direct observations bypass normalization, so they are subtracted from
  // the observation total.
  const std::uint64_t normalized = s.observations - s.observations_direct;
  const std::uint64_t entered = s.flows_decoded + s.flows_in;
  if (normalized + s.dropped_direction != entered) {
    fail("flow conservation: " + std::to_string(normalized) +
         " normalized + " + std::to_string(s.dropped_direction) +
         " dropped != " + std::to_string(entered) + " entered");
  }
  // Queue sanity: no stage may report consuming more than was produced.
  const struct {
    const char* name;
    const telemetry::StageStats& st;
  } stages[] = {{"decode", s.decode},
                {"decode_body", s.decode_body},
                {"detect", s.detect}};
  for (const auto& stage : stages) {
    if (stage.st.dequeued > stage.st.enqueued) {
      fail(std::string(stage.name) + " queue: dequeued " +
           std::to_string(stage.st.dequeued) + " > enqueued " +
           std::to_string(stage.st.enqueued));
    }
  }
  if (!out.ok) {
    self_check_failures_->add(1);
    obs_->recorder.record(obs::EventKind::kSelfCheckFailed, 0,
                          self_check_failures_->value(), 0);
  }
  return out;
}

}  // namespace haystack::pipeline
