// Vantage-point pipelines (paper Figs. 3/4).
//
// A vantage point turns ground-truth flows into what its collector actually
// records (the instrumented home line sees the flows themselves, unsampled):
//
//   * IspVantage — border-router NetFlow: 1-in-N packet sampling (binomial
//     thinning per flow), then optionally a *real* NetFlow v9
//     encode-transmit-decode round trip, so the wire codec sits on the
//     measurement path exactly as in production.
//   * The IXP fabric's IPFIX vantage is simnet::WildIxpSim (simnet/ixp.hpp):
//     an order-of-magnitude lower sampling rate plus the established-TCP
//     guard the paper applies against spoofing.
//
// IspVantage preserves the simulation's ground-truth labels alongside each
// surviving flow so that evaluation code can compute visibility without
// re-identification.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flow/netflow_v9.hpp"
#include "flow/sampler.hpp"
#include "simnet/ground_truth.hpp"
#include "util/rng.hpp"

namespace haystack::telemetry {

/// ISP border NetFlow vantage.
class IspVantage {
 public:
  struct Config {
    std::uint64_t seed = 2020;
    std::uint32_t sampling = 1000;
    /// When set, every surviving flow batch is round-tripped through the
    /// NetFlow v9 exporter and collector.
    bool wire_roundtrip = true;
  };

  explicit IspVantage(const Config& config)
      : config_{config},
        exporter_{{.source_id = 7,
                   .max_records_per_packet = 24,
                   .template_refresh_packets = 16}} {}

  /// Applies packet sampling (and the optional wire round trip) to one
  /// hour's flows. Labels of surviving flows are preserved by order.
  [[nodiscard]] std::vector<simnet::LabeledFlow> observe(
      const std::vector<simnet::LabeledFlow>& flows, util::HourBin hour);

  /// Collector statistics of the wire path (templates, records, errors).
  [[nodiscard]] const flow::nf9::CollectorStats& wire_stats() const noexcept {
    return collector_.stats();
  }

 private:
  Config config_;
  flow::nf9::Exporter exporter_;
  flow::nf9::Collector collector_;
};

}  // namespace haystack::telemetry
