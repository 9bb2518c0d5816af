#include "common.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace haystack::bench {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  // std::from_chars rejects a sign, so "-1" falls back instead of wrapping
  // to the maximum the way strtoull does.
  const char* const end = value + std::strlen(value);
  std::uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  return (ec == std::errc{} && ptr == end) ? parsed : fallback;
}

SimWorld::SimWorld() {
  const std::uint64_t seed = env_u64("HAYSTACK_SEED", 42);
  const auto lines =
      static_cast<std::uint32_t>(env_u64("HAYSTACK_LINES", 80'000));

  catalog_ = std::make_unique<simnet::Catalog>();
  simnet::BackendConfig backend_config;
  backend_config.seed = seed;
  backend_ = std::make_unique<simnet::Backend>(*catalog_, backend_config);
  simnet::GroundTruthConfig gt_config;
  gt_ = std::make_unique<simnet::GroundTruthSim>(*backend_, gt_config);
  rules_ = std::make_unique<core::RuleSet>(simnet::build_ruleset(*backend_));
  rates_ = std::make_unique<simnet::DomainRateModel>(*catalog_,
                                                     gt_config.seed);
  population_ = std::make_unique<simnet::Population>(
      *catalog_, simnet::PopulationConfig{.seed = 99, .lines = lines});
  wild_ = std::make_unique<simnet::WildIspSim>(
      *backend_, *population_, *rates_, simnet::WildIspConfig{});
}

std::uint32_t SimWorld::lines() const { return population_->line_count(); }

core::ServiceId SimWorld::service(const std::string& name) const {
  const auto* rule = rules_->rule_by_name(name);
  if (rule == nullptr) {
    std::fprintf(stderr, "unknown service: %s\n", name.c_str());
    std::abort();
  }
  return rule->service;
}

void WildSweep::run(util::HourBin first_hour, util::HourBin last_hour) {
  core::Detector hourly_det{world_.rules().hitlist, world_.rules(),
                            {.threshold = 0.4}};
  core::Detector daily_det{world_.rules().hitlist, world_.rules(),
                           {.threshold = 0.4}};

  auto collect = [](const core::Detector& det) {
    BinResult bin;
    det.for_each_evidence([&](core::SubscriberKey s, core::ServiceId sv,
                              const core::Evidence&) {
      if (det.detected(s, sv)) {
        bin.by_service[sv].insert(static_cast<simnet::LineId>(s));
      }
    });
    return bin;
  };

  for (util::HourBin h = first_hour; h < last_hour; ++h) {
    world_.wild().hour_observations(h, [&](const simnet::WildObs& o) {
      const auto hit = hourly_det.observe(o.line, o.flow.key.dst,
                                          o.flow.key.dst_port,
                                          o.flow.packets, h);
      daily_det.observe(o.line, o.flow.key.dst, o.flow.key.dst_port,
                        o.flow.packets, h);
      if (hit && on_match_) on_match_(o, *hit, h);
    });

    if (hourly_) hourly_(h, collect(hourly_det));
    hourly_det.clear();
    if (util::hour_of_day(h) == 23 || h + 1 == last_hour) {
      if (daily_) daily_(util::day_start(util::day_of(h)),
                         collect(daily_det));
      daily_det.clear();
    }
  }
}

std::size_t other32_count(const SimWorld& world, const BinResult& bin) {
  static const std::set<std::string> kExcluded = {
      "Alexa Enabled", "Amazon Product", "Fire TV", "Samsung IoT",
      "Samsung TV"};
  std::set<simnet::LineId> lines;
  for (const auto& rule : world.rules().rules) {
    if (kExcluded.contains(rule.name)) continue;
    const auto it = bin.by_service.find(rule.service);
    if (it == bin.by_service.end()) continue;
    lines.insert(it->second.begin(), it->second.end());
  }
  return lines.size();
}

std::size_t any_count(const BinResult& bin) {
  std::set<simnet::LineId> lines;
  for (const auto& [service, subs] : bin.by_service) {
    lines.insert(subs.begin(), subs.end());
  }
  return lines.size();
}

}  // namespace haystack::bench
