#include "telemetry/border_fleet.hpp"

#include <unordered_map>
#include <utility>

#include "util/hash.hpp"

namespace haystack::telemetry {

namespace {

constexpr std::uint32_t kSourceIdBase = 100;

flow::nf9::ExporterConfig exporter_config(unsigned router,
                                          std::uint32_t boot_unix_secs) {
  return {
      .source_id = kSourceIdBase + router,
      .max_records_per_packet = 24,
      .template_refresh_packets = 16,
      .boot_unix_secs = boot_unix_secs,
  };
}

}  // namespace

BorderRouterFleet::BorderRouterFleet(const BorderFleetConfig& config)
    : config_{config},
      // The export path is UDP: duplicates are a fact of life, so the
      // central collector always runs duplicate suppression. The window
      // covers one hour's fan-in from the whole fleet.
      collector_{flow::nf9::CollectorConfig{
          .dedup_window = 64,
          .recorder =
              config.obs != nullptr ? &config.obs->recorder : nullptr}} {
  if (config.obs != nullptr) {
    auto& reg = config.obs->registry;
    exported_datagrams_ = reg.counter("fleet_exported_datagrams_total");
    unlabeled_metric_ = reg.counter("fleet_unlabeled_records_total");
    restarts_metric_ = reg.counter("fleet_restarts_total");
    loss_ppm_ = reg.gauge("fleet_estimated_loss_ppm");
  }
  exporters_.reserve(config.routers);
  for (unsigned r = 0; r < config.routers; ++r) {
    exporters_.emplace_back(exporter_config(r, 0));
    if (config.impairment) {
      flow::ImpairmentConfig link = *config.impairment;
      link.seed = util::splitmix64(link.seed ^ (0x9e3779b97f4a7c15ULL * r));
      links_.emplace_back(link);
    }
  }
}

unsigned BorderRouterFleet::router_of(const net::IpAddress& dst) const {
  return static_cast<unsigned>(dst.hash() % config_.routers);
}

flow::ImpairmentStats BorderRouterFleet::impairment_stats() const {
  flow::ImpairmentStats total;
  for (const auto& link : links_) {
    const auto& s = link.stats();
    total.datagrams_in += s.datagrams_in;
    total.delivered += s.delivered;
    total.dropped += s.dropped;
    total.duplicated += s.duplicated;
    total.reordered += s.reordered;
    total.truncated += s.truncated;
  }
  return total;
}

void BorderRouterFleet::maybe_restart(util::HourBin hour,
                                      std::uint32_t unix_secs) {
  // Scheduled exporter crash: the router's export process restarts with a
  // fresh sequence counter, a recent boot time, and no memory of having
  // announced templates.
  if (config_.restart_router && *config_.restart_router < exporters_.size() &&
      hour == config_.restart_hour && restarts_performed_ == 0) {
    const unsigned r = *config_.restart_router;
    exporters_[r] = flow::nf9::Exporter{exporter_config(r, unix_secs)};
    ++restarts_performed_;
    if (restarts_metric_) restarts_metric_->add(1);
    if (config_.obs != nullptr) {
      // Fleet-side view of the restart (the collector records its own
      // kExporterRestart when it detects the sequence reset on ingest).
      config_.obs->recorder.set_hour(hour);
      config_.obs->recorder.record(obs::EventKind::kExporterRestart,
                                   kSourceIdBase + r, restarts_performed_,
                                   /*b=*/1);
    }
  }
}

void BorderRouterFleet::note_loss(util::HourBin hour) {
  const double loss = collector_.estimated_loss();
  if (hour < util::kStudyHours) loss_series_.set(hour, loss);
  if (loss_ppm_) {
    loss_ppm_->set(static_cast<std::int64_t>(loss * 1'000'000.0));
  }
}

std::vector<std::vector<std::uint8_t>> BorderRouterFleet::announcements(
    util::HourBin hour, std::uint32_t unix_secs) {
  std::vector<std::vector<std::uint8_t>> packets;
  // Periodic options announcements (always in hour 0).
  if (hour % std::max(1u, config_.announce_every) == 0) {
    packets.reserve(config_.routers);
    for (unsigned r = 0; r < config_.routers; ++r) {
      packets.push_back(flow::nf9::encode_sampling_announcement(
          {.source_id = kSourceIdBase + r,
           .interval = config_.sampling,
           .algorithm = flow::nf9::SamplingAlgorithm::kRandom},
          unix_secs, announce_sequence_++));
    }
  }
  return packets;
}

std::vector<std::vector<std::uint8_t>> BorderRouterFleet::export_router(
    unsigned router, const std::vector<flow::FlowRecord>& records,
    std::uint32_t unix_secs) {
  std::vector<std::vector<std::uint8_t>> delivered;
  for (auto& packet : exporters_[router].export_flows(records, unix_secs)) {
    if (links_.empty()) {
      delivered.push_back(std::move(packet));
    } else {
      for (auto& datagram : links_[router].transmit(std::move(packet))) {
        delivered.push_back(std::move(datagram));
      }
    }
  }
  if (!links_.empty()) {
    // Hour boundary: anything still held for reordering arrives now.
    for (auto& datagram : links_[router].flush()) {
      delivered.push_back(std::move(datagram));
    }
  }
  if (exported_datagrams_) exported_datagrams_->add(delivered.size());
  return delivered;
}

std::vector<simnet::LabeledFlow> BorderRouterFleet::observe(
    const std::vector<simnet::LabeledFlow>& flows, util::HourBin hour) {
  const std::uint32_t unix_secs = 1574000000U + hour * 3600U;

  maybe_restart(hour, unix_secs);

  // Announcements ride the same UDP path conceptually, but are
  // retransmitted every cycle, so the model delivers them directly to the
  // registry.
  for (const auto& packet : announcements(hour, unix_secs)) {
    sampling_.ingest(packet);
  }

  // Partition by router and sample.
  std::vector<std::vector<flow::FlowRecord>> per_router(config_.routers);
  std::vector<std::vector<const simnet::LabeledFlow*>> labels(
      config_.routers);
  for (const auto& lf : flows) {
    const unsigned r = router_of(lf.flow.key.dst);
    util::Pcg32 rng = util::derive_rng(
        config_.seed ^ r, lf.flow.key.hash() ^ lf.flow.start_ms, hour);
    if (auto thin = flow::thin_flow(lf.flow, config_.sampling, rng)) {
      // Routers export records without a per-record sampling field when
      // options announcements carry it; clear the field so the collector
      // side must rely on the registry (provenance honesty).
      thin->sampling = 0;
      per_router[r].push_back(*thin);
      labels[r].push_back(&lf);
    }
  }

  // Export → (impaired) link → central ingest, per router. With an
  // impaired path, datagrams can be dropped, duplicated, reordered or
  // truncated, so decoded records are matched back to their labels by
  // flow key instead of by position.
  std::vector<simnet::LabeledFlow> merged;
  for (unsigned r = 0; r < config_.routers; ++r) {
    if (per_router[r].empty()) continue;
    std::vector<flow::FlowRecord> decoded;
    decoded.reserve(per_router[r].size());
    const auto deliver = [&](std::span<const std::uint8_t> datagram) {
      // Malformed (e.g. truncated) datagrams are the collector's problem:
      // it rejects them and accounts the loss via the sequence tracker.
      (void)collector_.ingest(datagram, decoded);
      // The sampling registry inspects every packet too (it ignores
      // non-options flowsets and tolerates malformed input).
      sampling_.ingest(datagram);
    };
    for (const auto& datagram : export_router(r, per_router[r], unix_secs)) {
      deliver(datagram);
    }

    const auto interval =
        sampling_.interval_of(kSourceIdBase + r).value_or(1);
    std::unordered_multimap<flow::FlowKey, const simnet::LabeledFlow*>
        by_key;
    by_key.reserve(labels[r].size());
    for (const auto* lf : labels[r]) by_key.emplace(lf->flow.key, lf);
    for (const auto& rec : decoded) {
      const auto it = by_key.find(rec.key);
      if (it == by_key.end()) {
        ++unlabeled_records_;
        continue;
      }
      simnet::LabeledFlow out = *it->second;
      by_key.erase(it);
      out.flow = rec;
      out.flow.sampling = interval;  // provenance: from the announcement
      merged.push_back(std::move(out));
    }
  }
  if (unlabeled_metric_ &&
      unlabeled_records_ > unlabeled_metric_->value()) {
    unlabeled_metric_->add(unlabeled_records_ - unlabeled_metric_->value());
  }
  note_loss(hour);
  return merged;
}

std::vector<std::vector<std::uint8_t>> BorderRouterFleet::export_hour(
    const std::vector<flow::FlowRecord>& records, util::HourBin hour) {
  const std::uint32_t unix_secs = 1574000000U + hour * 3600U;

  maybe_restart(hour, unix_secs);

  // On the wire the announcements are datagrams like any other; the fleet's
  // own registry still learns them so sampling() keeps reporting.
  std::vector<std::vector<std::uint8_t>> out =
      announcements(hour, unix_secs);
  for (const auto& packet : out) sampling_.ingest(packet);

  // Partition by router and sample, exactly as observe() does.
  std::vector<std::vector<flow::FlowRecord>> per_router(config_.routers);
  for (const auto& rec : records) {
    const unsigned r = router_of(rec.key.dst);
    util::Pcg32 rng = util::derive_rng(config_.seed ^ r,
                                       rec.key.hash() ^ rec.start_ms, hour);
    if (auto thin = flow::thin_flow(rec, config_.sampling, rng)) {
      thin->sampling = 0;  // carried by the announcements, not the record
      per_router[r].push_back(*thin);
    }
  }

  for (unsigned r = 0; r < config_.routers; ++r) {
    if (per_router[r].empty()) continue;
    for (auto& datagram : export_router(r, per_router[r], unix_secs)) {
      out.push_back(std::move(datagram));
    }
  }
  return out;
}

}  // namespace haystack::telemetry
