// Scenario configuration: text-driven overrides for the simulated world,
// so studies (different penetrations, sampling rates, population sizes)
// run without recompiling. Line-oriented format, '#' comments:
//
//   lines 200000
//   sampling 1000
//   rotation 0.03
//   dual_stack 0.35
//   base_active_prob 0.09
//   seed 42
//   penetration "Echo Dot" 0.05        # override one product
//   wild_extra "Alexa Enabled" 0.10    # override a unit's extra share
//   impair_drop 0.05                   # export-path fault injection
//   impair_duplicate 0.02
//   impair_reorder 0.02
//   impair_truncate 0.01
//   impair_seed 7
//   pipeline_shards 8                   # streaming-pipeline shape
//   pipeline_queue 1024
//   pipeline_wave 64
//   vantage_collectors 4                # multi-vantage fleet shape
//   delta_drop 0.05                     # delta-channel fault injection
//   delta_duplicate 0.02
//   delta_reorder 0.02
//   delta_truncate 0.01
//   delta_seed 7
//   ack_loss 0.1
//   vantage_kill_collector 1            # scripted mid-study crash
//   vantage_kill_hour 3
//   vantage_restart_hour 6
//
// Product/unit names are quoted; unknown names are reported as errors so
// typos fail loudly instead of silently simulating the default. Integer
// values are unsigned decimal: a sign, a fraction or trailing characters
// are errors. The keys that size threads and buffers up front are bounded:
// pipeline_shards and vantage_collectors at 256, pipeline_wave at 65,536.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "flow/impairment.hpp"
#include "simnet/catalog.hpp"
#include "simnet/population.hpp"
#include "simnet/wild_isp.hpp"

namespace haystack::simnet {

/// Parsed scenario.
struct Scenario {
  std::optional<std::uint64_t> seed;
  std::optional<std::uint32_t> lines;
  std::optional<std::uint32_t> sampling;
  std::optional<double> rotation;
  std::optional<double> dual_stack;
  std::optional<double> base_active_prob;
  std::vector<std::pair<std::string, double>> penetration_overrides;
  std::vector<std::pair<std::string, double>> wild_extra_overrides;
  std::optional<double> impair_drop;
  std::optional<double> impair_duplicate;
  std::optional<double> impair_reorder;
  std::optional<double> impair_truncate;
  std::optional<std::uint64_t> impair_seed;
  // Streaming-pipeline shape (pipeline::IngestPipeline): detector shards,
  // per-stage queue capacity, adaptive-batch wave bound. All >= 1;
  // shards <= 256, wave <= 65,536.
  std::optional<std::uint32_t> pipeline_shards;
  std::optional<std::uint32_t> pipeline_queue;
  std::optional<std::uint32_t> pipeline_wave;
  // Multi-vantage fleet shape (vantage::Fleet, ISSUE 7): collector count,
  // delta-channel impairment, ack loss, and the scripted mid-study
  // collector kill/restart.
  std::optional<std::uint32_t> vantage_collectors;
  std::optional<double> delta_drop;
  std::optional<double> delta_duplicate;
  std::optional<double> delta_reorder;
  std::optional<double> delta_truncate;
  std::optional<std::uint64_t> delta_seed;
  std::optional<double> ack_loss;
  std::optional<std::uint32_t> vantage_kill_collector;
  std::optional<std::uint32_t> vantage_kill_hour;
  std::optional<std::uint32_t> vantage_restart_hour;

  /// Applies the population-level settings over `base`.
  [[nodiscard]] PopulationConfig apply(PopulationConfig base) const;

  /// Applies the wild-simulation settings over `base`.
  [[nodiscard]] WildIspConfig apply(WildIspConfig base) const;

  /// Applies penetration/wild-extra overrides to a catalog copy. Returns
  /// false (with `error`) when a name does not exist.
  bool apply_overrides(Catalog& catalog, std::string* error = nullptr) const;

  /// Export-path impairment, when any impair_* key was given. nullopt
  /// means a pristine (lossless) export path.
  [[nodiscard]] std::optional<flow::ImpairmentConfig> impairment() const;

  /// Delta-channel impairment (collector → aggregator), when any delta_*
  /// key was given. nullopt means a pristine delta channel.
  [[nodiscard]] std::optional<flow::ImpairmentConfig> delta_impairment()
      const;
};

/// Parses a scenario file. Returns nullopt on syntax errors, with a
/// message in `error` when non-null.
[[nodiscard]] std::optional<Scenario> parse_scenario(
    std::istream& is, std::string* error = nullptr);

}  // namespace haystack::simnet
