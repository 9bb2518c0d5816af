// Wild ISP traffic simulation (paper Sec. 6.2).
//
// Generates what the ISP's border routers *export* for the whole subscriber
// population: already-sampled flow observations. Per (line, device, domain,
// hour) the unsampled packet count is Poisson(rate); under 1-in-N packet
// sampling the exported count is Poisson(rate/N) — the thinning identity —
// so the simulator draws the sampled count directly and never materializes
// the millions of invisible flows. A fast Bernoulli path handles the common
// tiny-rate case. Everything a unit domain contributes that does not vary
// by line or hour (its hosting record and, per usage mode, its sampled
// rate with the Bernoulli probability and Poisson limit derived from it)
// is resolved once, when the simulator is constructed.
//
// Each observation carries ground-truth labels (line, unit, domain) used by
// the evaluation harness only — the detector itself consumes just the
// subscriber address and the flow record.
//
// The generator draws each flow into a compact record of what its draws
// decided and builds the WildObs from it where the sink runs (DESIGN.md
// §12): on the calling thread, after block-parallel workers hand their
// records over.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "flow/record.hpp"
#include "simnet/backend.hpp"
#include "simnet/population.hpp"
#include "simnet/rates.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace haystack::simnet {

/// One sampled flow observation at the ISP border.
struct WildObs {
  LineId line = 0;
  net::IpAddress subscriber;       ///< the line's identifier that day
  UnitId unit = 0;                 ///< truth label (analysis only)
  unsigned domain_index = 0;       ///< truth label (analysis only)
  flow::FlowRecord flow;           ///< as exported (sampled counters)
};

/// Wild-simulation tunables.
struct WildIspConfig {
  std::uint64_t seed = 123;
  /// ISP packet-sampling interval (consistent across border routers).
  std::uint32_t sampling = 1000;
  /// Per device-hour probability of active use before diurnal weighting.
  double base_active_prob = 0.09;
  /// Per device-hour probability of a *heavy* session (voice assistant
  /// streaming music, TV playing video) — the sessions whose sampled
  /// packet counts cross the Sec. 7.1 active-use threshold.
  double heavy_session_prob = 0.008;
  /// Traffic multiplier of a heavy session on top of active_multiplier.
  double heavy_session_factor = 8.0;
};

/// Streaming generator of sampled ISP observations.
class WildIspSim {
 public:
  using Sink = std::function<void(const WildObs&)>;

  WildIspSim(const Backend& backend, const Population& population,
             const DomainRateModel& rates, const WildIspConfig& config);

  /// Emits every sampled observation for one hour into `sink`, in ascending
  /// line order. Population blocks are generated on
  /// min(usable CPUs − 1, blocks) worker threads into at most
  /// 2 · (workers + 1) block buffers and handed to `sink` on the calling
  /// thread in block order, so the sequence is identical at every worker
  /// count. With no spare CPU or fewer than two blocks it streams inline,
  /// unbuffered. An exception thrown by `sink` propagates after every
  /// worker has stopped. Safe to call concurrently on one instance.
  void hour_observations(util::HourBin hour, const Sink& sink) const;

  /// As above with an explicit worker count (0 streams inline); lets tests
  /// pin the ordering guarantee on any machine.
  void hour_observations(util::HourBin hour, const Sink& sink,
                         unsigned workers) const;

  /// True when a device instance (line, device index) is in active use in
  /// the given hour; exposed so the usage analysis (Fig. 18) can compare
  /// detector output against truth.
  [[nodiscard]] bool device_active(LineId line, std::uint32_t device_index,
                                   util::HourBin hour) const;

  /// True when the device runs a heavy session (streaming-class traffic)
  /// in the given hour. Heavy implies active.
  [[nodiscard]] bool device_heavy(LineId line, std::uint32_t device_index,
                                  util::HourBin hour) const;

  [[nodiscard]] const WildIspConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const Population& population() const noexcept {
    return population_;
  }

 private:
  struct Hour;  // per-hour constants shared by every line of the hour
  struct Draw;  // one flow as its draws decided it (the hand-off record)

  // A sampled rate λ and what sampled_count derives from λ alone.
  struct SampledRate {
    double lambda = 0.0;
    double bernoulli = 0.0;  // P(count = 1) on the λ < 0.05 path
    double limit = 0.0;      // e^−λ, the Poisson draw's Knuth limit
  };
  // How the kernel draws one domain's count in one usage mode, as integer
  // tests on the first word sampled_count would draw: the domain emits
  // when (word ^ flip) < gate. flip = 0 is the Bernoulli path (gate =
  // chance_threshold(bernoulli)); flip = ~0 is Knuth's loop, which counts
  // above zero when word ≥ poisson_zero_bound(limit). `exact` is false
  // where no single-word test exists (λ ≤ 0 draws nothing, λ ≥ 30 draws a
  // normal): the kernel then calls sampled_count itself.
  struct CountGate {
    std::uint64_t gate = 0;
    std::uint32_t flip = 0;
    bool exact = false;
  };
  // One unit domain: its hosting record, its sampled rate when the device
  // is idle, active or in a heavy session, and its address draw divisors.
  struct DomainPlan {
    const HostedDomain* hosting = nullptr;
    std::array<SampledRate, 3> rates;
    std::array<util::Bound, util::kStudyDays> daily;  // daily_ips[day]
    util::Bound v6;                                   // v6_ips
  };
  // One unit: its domains' plans and, per usage mode, their count gates
  // (counts[mode][k] belongs to domains[k]), and its idle duty cycle.
  struct UnitPlan {
    std::vector<DomainPlan> domains;
    std::array<std::vector<CountGate>, 3> counts;
    double duty = 1.0;
    std::uint64_t duty_gate = 0;  // chance_threshold(duty)
  };

  static std::uint64_t sampled_count(util::Pcg32& rng, const SampledRate& r);

  // The probability behind device_active (base_prob = base_active_prob)
  // and device_heavy (heavy_session_prob), as a chance_threshold: the base
  // probability scaled by the unit's diurnal strength at this hour.
  [[nodiscard]] std::uint64_t usage_gate(UnitId unit, util::HourBin hour,
                                         double base_prob) const;

  // Draws one line's flows for the hour, passing each Draw to emit.
  template <typename Emit>
  void line_draws(const Hour& h, LineId line, std::uint16_t identity,
                  std::span<const OwnedDevice> devices, Emit&& emit) const;

  // Draws every flow of block `block` for the hour, passing each to emit.
  template <typename Emit>
  void block_draws(const Hour& h, std::uint32_t block, Emit&& emit) const;

  // Builds the observation a Draw describes into `obs`.
  void build(const Hour& h, const Draw& d, WildObs& obs) const;

  const Backend& backend_;
  const Population& population_;
  WildIspConfig config_;
  // The per device-hour streams: usage draws and the flows themselves.
  util::RngFamily heavy_rng_;
  util::RngFamily active_rng_;
  util::RngFamily flow_rng_;
  // Unit ancestor chains, precomputed: chains_[u] lists u and all
  // ancestors.
  std::vector<std::vector<UnitId>> chains_;
  // units_[u].domains[k] resolves catalog().domains_of(u)[k].
  std::vector<UnitPlan> units_;
};

}  // namespace haystack::simnet
