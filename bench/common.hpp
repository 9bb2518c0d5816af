// Shared scaffolding for the figure/table reproduction binaries.
//
// Every bench builds the same simulated world (catalog, backend, ground
// truth, rules) and differs only in which series it extracts. SimWorld
// bundles the construction; WildSweep runs the two-week wild-ISP loop once
// and fans per-bin detection results out to the caller.
//
// Environment knobs (all optional):
//   HAYSTACK_LINES  — wild population size (default 80000; vantage_bench
//                     overrides its own default to 20000, and scale_bench
//                     to 1000000 — see README)
//   HAYSTACK_SEED   — global simulation seed (default: the library default)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/rules.hpp"
#include "simnet/backend.hpp"
#include "simnet/ground_truth.hpp"
#include "simnet/ixp.hpp"
#include "simnet/manual_analysis.hpp"
#include "simnet/population.hpp"
#include "simnet/rates.hpp"
#include "simnet/wild_isp.hpp"
#include "telemetry/vantage.hpp"
#include "util/table.hpp"

namespace haystack::bench {

/// Reads an environment integer with a default.
[[nodiscard]] std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// The fully constructed simulation world.
class SimWorld {
 public:
  SimWorld();

  [[nodiscard]] const simnet::Catalog& catalog() const { return *catalog_; }
  [[nodiscard]] const simnet::Backend& backend() const { return *backend_; }
  [[nodiscard]] const simnet::GroundTruthSim& gt() const { return *gt_; }
  [[nodiscard]] const core::RuleSet& rules() const { return *rules_; }
  [[nodiscard]] const simnet::DomainRateModel& rates() const {
    return *rates_;
  }
  [[nodiscard]] const simnet::Population& population() const {
    return *population_;
  }
  [[nodiscard]] const simnet::WildIspSim& wild() const { return *wild_; }

  /// Wild population size and the factor mapping it to the paper's 15M
  /// subscriber lines (used to print a "scaled to paper" column).
  [[nodiscard]] std::uint32_t lines() const;
  [[nodiscard]] double scale_to_paper() const {
    return 15e6 / static_cast<double>(lines());
  }

  /// Convenience: service id by rule name (aborts if absent).
  [[nodiscard]] core::ServiceId service(const std::string& name) const;

 private:
  std::unique_ptr<simnet::Catalog> catalog_;
  std::unique_ptr<simnet::Backend> backend_;
  std::unique_ptr<simnet::GroundTruthSim> gt_;
  std::unique_ptr<core::RuleSet> rules_;
  std::unique_ptr<simnet::DomainRateModel> rates_;
  std::unique_ptr<simnet::Population> population_;
  std::unique_ptr<simnet::WildIspSim> wild_;
};

/// Per-bin wild detection results delivered by WildSweep.
struct BinResult {
  /// Detected subscriber-line ids per service in this bin.
  std::map<core::ServiceId, std::set<simnet::LineId>> by_service;
};

/// Runs the wild-ISP simulation over [first_hour, last_hour), feeding a
/// D=0.4 detector, and invokes the callbacks at hour/day bin boundaries.
/// Also forwards every matched observation to `on_match` (may be null) for
/// usage-style analyses.
class WildSweep {
 public:
  using BinCallback = std::function<void(util::HourBin bin_start,
                                         const BinResult&)>;
  using MatchCallback = std::function<void(
      const simnet::WildObs&, const core::Hit&, util::HourBin)>;

  explicit WildSweep(const SimWorld& world) : world_{world} {}

  void set_hourly(BinCallback cb) { hourly_ = std::move(cb); }
  void set_daily(BinCallback cb) { daily_ = std::move(cb); }
  void set_on_match(MatchCallback cb) { on_match_ = std::move(cb); }

  void run(util::HourBin first_hour, util::HourBin last_hour);

 private:
  const SimWorld& world_;
  BinCallback hourly_;
  BinCallback daily_;
  MatchCallback on_match_;
};

/// Sum of detected lines across every service that is neither
/// Alexa/Amazon/Fire TV nor Samsung — the paper's "Other 32 IoT device
/// types" series.
[[nodiscard]] std::size_t other32_count(const SimWorld& world,
                                        const BinResult& bin);

/// Unique subscribers across *all* services in the bin.
[[nodiscard]] std::size_t any_count(const BinResult& bin);

}  // namespace haystack::bench
