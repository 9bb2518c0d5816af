// Wild ISP traffic simulation (paper Sec. 6.2).
//
// Generates what the ISP's border routers *export* for the whole subscriber
// population: already-sampled flow observations. Per (line, device, domain,
// hour) the unsampled packet count is Poisson(rate); under 1-in-N packet
// sampling the exported count is Poisson(rate/N) — the thinning identity —
// so the simulator draws the sampled count directly and never materializes
// the millions of invisible flows. A fast Bernoulli path handles the common
// tiny-rate case.
//
// Each observation carries ground-truth labels (line, unit, domain) used by
// the evaluation harness only — the detector itself consumes just the
// subscriber address and the flow record.
#pragma once

#include <cstdint>
#include <functional>

#include "flow/record.hpp"
#include "simnet/backend.hpp"
#include "simnet/population.hpp"
#include "simnet/rates.hpp"
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
  /// min(usable CPUs − 1, blocks) worker threads into at most workers + 1
  /// block buffers and handed to `sink` on the calling thread in block
  /// order, so the sequence is identical at every worker count. With no
  /// spare CPU or fewer than two blocks it streams inline, unbuffered. An
  /// exception thrown by `sink` propagates after every worker has stopped.
  /// Safe to call concurrently on one instance.
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

  // Per device-hour usage draw behind device_active (salt kActiveSalt) and
  // device_heavy (kHeavySalt): a Bernoulli with probability base_prob
  // scaled by the unit's diurnal strength.
  [[nodiscard]] bool usage_draw(LineId line, std::uint32_t device_index,
                                UnitId unit, util::HourBin hour,
                                double base_prob, std::uint64_t salt) const;

  // Generates one line's observations for the hour, passing each to emit.
  template <typename Emit>
  void line_observations(const Hour& h, LineId line,
                         std::span<const OwnedDevice> devices,
                         Emit&& emit) const;

  const Backend& backend_;
  const Population& population_;
  const DomainRateModel& rates_;
  WildIspConfig config_;
  // Unit ancestor chains, precomputed: chains_[u] lists u and all
  // ancestors.
  std::vector<std::vector<UnitId>> chains_;
};

}  // namespace haystack::simnet
