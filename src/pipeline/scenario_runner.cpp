#include "pipeline/scenario_runner.hpp"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "obs/export.hpp"
#include "simnet/backend.hpp"
#include "simnet/manual_analysis.hpp"
#include "simnet/population.hpp"
#include "simnet/wild_isp.hpp"
#include "telemetry/border_fleet.hpp"

namespace haystack::pipeline {

std::optional<StreamingReplayResult> replay_scenario_streaming(
    const simnet::Scenario& scenario, const StreamingReplayConfig& config,
    std::string* error) {
  simnet::Catalog catalog;
  if (!scenario.apply_overrides(catalog, error)) return std::nullopt;

  simnet::Backend backend{catalog, simnet::BackendConfig{}};
  const core::RuleSet rules = simnet::build_ruleset(backend);
  simnet::Population population{catalog,
                                scenario.apply(simnet::PopulationConfig{})};
  simnet::DomainRateModel rates{catalog, 7};
  simnet::WildIspSim wild{backend, population, rates,
                          scenario.apply(simnet::WildIspConfig{})};

  // WildIspSim already applies the scenario's packet sampling, so the
  // fleet exports at 1:1 — its job here is the wire: v9 encoding, options
  // announcements, and whatever impairment the scenario configures.
  // One Observability for the whole run: fleet wire events and pipeline
  // stage metrics land in the same registry/recorder, so the final scrape
  // tells the full story from exporter to evidence map.
  obs::Observability observability;

  telemetry::BorderFleetConfig fcfg;
  fcfg.seed = scenario.seed.value_or(2022);
  fcfg.routers = std::max(1u, config.routers);
  fcfg.sampling = 1;
  fcfg.impairment = scenario.impairment();
  fcfg.obs = &observability;
  telemetry::BorderRouterFleet fleet{fcfg};

  IngestConfig icfg;
  icfg.shards = scenario.pipeline_shards.value_or(config.shards);
  icfg.queue_capacity =
      scenario.pipeline_queue.value_or(config.queue_capacity);
  icfg.max_wave = scenario.pipeline_wave.value_or(config.max_wave);
  icfg.detector.threshold = config.threshold;
  icfg.anonymization_key = config.anonymization_key;
  icfg.obs = &observability;
  IngestPipeline pipe{rules.hitlist, rules, icfg};

  std::vector<flow::FlowRecord> records;
  for (util::HourBin h = config.start_hour;
       h < config.start_hour + config.hours; ++h) {
    records.clear();
    wild.hour_observations(
        h, [&](const simnet::WildObs& obs) { records.push_back(obs.flow); });
    for (auto& datagram : fleet.export_hour(records, h)) {
      pipe.push_datagram(std::move(datagram), h);
    }
  }
  StreamingReplayResult result;
  result.self_check = pipe.self_check();  // drains every stage first
  pipe.shutdown();
  result.stats = pipe.stats();
  if (config.capture_observability) {
    result.metrics_prometheus = obs::to_prometheus(observability.registry);
    result.flight_events = observability.recorder.dump();
  }
  result.datagrams = result.stats.datagrams;
  result.observations = result.stats.observations;

  // One fresh snapshot answers every row: ShardedDetector::detected()
  // would ride a publish token and copy a shard's evidence map per row.
  std::map<core::ServiceId, std::size_t> per_service;
  std::unordered_set<core::SubscriberKey> any;
  const serve::DetectionSnapshot snap = pipe.control().fresh_snapshot();
  snap.for_each_evidence([&](core::SubscriberKey subscriber,
                             core::ServiceId service, const core::Evidence&) {
    if (snap.detected(subscriber, service)) {
      ++per_service[service];
      any.insert(subscriber);
    }
  });
  result.subscribers_detected = any.size();
  for (const auto& rule : rules.rules) {
    const auto it = per_service.find(rule.service);
    if (it != per_service.end() && it->second > 0) {
      result.per_service.emplace_back(rule.name, it->second);
    }
  }
  std::sort(result.per_service.begin(), result.per_service.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  return result;
}

std::optional<VantageReplayResult> replay_scenario_vantage(
    const simnet::Scenario& scenario, const VantageReplayConfig& config,
    std::string* error) {
  simnet::Catalog catalog;
  if (!scenario.apply_overrides(catalog, error)) return std::nullopt;

  simnet::Backend backend{catalog, simnet::BackendConfig{}};
  const core::RuleSet rules = simnet::build_ruleset(backend);
  simnet::Population population{catalog,
                                scenario.apply(simnet::PopulationConfig{})};
  simnet::DomainRateModel rates{catalog, 7};
  simnet::WildIspSim wild{backend, population, rates,
                          scenario.apply(simnet::WildIspConfig{})};

  obs::Observability observability;

  vantage::FleetConfig fcfg;
  fcfg.collectors = scenario.vantage_collectors.value_or(config.collectors);
  fcfg.detector.threshold = config.threshold;
  fcfg.delta_impairment = scenario.delta_impairment();
  fcfg.ack_loss = scenario.ack_loss.value_or(0.0);
  fcfg.seed = scenario.seed.value_or(1);
  fcfg.kill_collector = scenario.vantage_kill_collector;
  fcfg.kill_hour = scenario.vantage_kill_hour;
  fcfg.restart_hour = scenario.vantage_restart_hour;
  vantage::Fleet fleet{rules.hitlist, rules, fcfg, &observability};

  // The same direction/anonymization mapping the streaming pipeline
  // applies, so the merged evidence map is comparable bit-for-bit with a
  // single-process replay of the identical flows.
  const Normalizer normalize = default_normalizer(config.anonymization_key);

  VantageReplayResult result;
  std::vector<core::Observation> hour_obs;
  for (util::HourBin h = config.start_hour;
       h < config.start_hour + config.hours; ++h) {
    hour_obs.clear();
    wild.hour_observations(h, [&](const simnet::WildObs& obs) {
      if (auto normalized = normalize(obs.flow, h)) {
        hour_obs.push_back(*normalized);
      }
    });
    result.observations += hour_obs.size();
    fleet.process_hour(h, hour_obs);
  }
  result.drained = fleet.finish();
  result.datagrams = fleet.datagrams_sent();
  result.delta_bytes = fleet.bytes_sent();
  result.retransmissions = fleet.total_retransmissions();

  const vantage::Aggregator& agg = fleet.aggregator();
  result.merged_through = agg.merged_through();
  result.counters = agg.counters();
  if (config.capture_observability) {
    result.metrics_prometheus = obs::to_prometheus(observability.registry);
    result.flight_events = observability.recorder.dump();
  }

  // Collect the evidence keys first, then query detection hours: both
  // accessors take the aggregator mutex, so calling detection_hour() from
  // inside the for_each_evidence callback would self-deadlock.
  std::vector<std::pair<core::SubscriberKey, core::ServiceId>> keys;
  agg.for_each_evidence([&](core::SubscriberKey subscriber,
                            core::ServiceId service, const core::Evidence&) {
    keys.emplace_back(subscriber, service);
  });
  std::map<core::ServiceId, std::size_t> per_service;
  std::unordered_set<core::SubscriberKey> any;
  for (const auto& [subscriber, service] : keys) {
    if (agg.detection_hour(subscriber, service)) {
      ++per_service[service];
      any.insert(subscriber);
    }
  }
  result.subscribers_detected = any.size();
  for (const auto& rule : rules.rules) {
    const auto it = per_service.find(rule.service);
    if (it != per_service.end() && it->second > 0) {
      result.per_service.emplace_back(rule.name, it->second);
    }
  }
  std::sort(result.per_service.begin(), result.per_service.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  return result;
}

}  // namespace haystack::pipeline
