#include "telemetry/vantage.hpp"

#include <cassert>

#include "util/hash.hpp"

namespace haystack::telemetry {

namespace {

/// Round-trips `records` through exporter+collector and overwrites them
/// with the decoded result. The count must survive exactly; a codec bug
/// here is a hard failure, not silent data loss.
template <typename Exporter, typename Collector>
std::vector<flow::FlowRecord> roundtrip(Exporter& exporter,
                                        Collector& collector,
                                        const std::vector<flow::FlowRecord>&
                                            records,
                                        std::uint32_t time_token) {
  std::vector<flow::FlowRecord> decoded;
  decoded.reserve(records.size());
  for (const auto& packet : exporter.export_flows(records, time_token)) {
    const bool ok = collector.ingest(packet, decoded);
    assert(ok);
    (void)ok;
  }
  assert(decoded.size() == records.size());
  return decoded;
}

}  // namespace

std::vector<simnet::LabeledFlow> IspVantage::observe(
    const std::vector<simnet::LabeledFlow>& flows, util::HourBin hour) {
  std::vector<simnet::LabeledFlow> survivors;
  std::vector<flow::FlowRecord> records;
  for (const auto& lf : flows) {
    util::Pcg32 rng = util::derive_rng(
        config_.seed, lf.flow.key.hash() ^ lf.flow.start_ms, hour);
    if (auto thin = flow::thin_flow(lf.flow, config_.sampling, rng)) {
      simnet::LabeledFlow out = lf;
      out.flow = *thin;
      survivors.push_back(std::move(out));
      records.push_back(*thin);
    }
  }
  if (config_.wire_roundtrip && !records.empty()) {
    const auto decoded =
        roundtrip(exporter_, collector_, records, 1574000000U + hour * 3600U);
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      survivors[i].flow = decoded[i];
    }
  }
  return survivors;
}

}  // namespace haystack::telemetry
