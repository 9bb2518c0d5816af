// Tests for the deployment-grade pipelines: the multi-router border fleet
// (sampling provenance via options announcements) and the streaming
// datagram path checked against the synchronous collector.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/detector.hpp"
#include "flow/wire.hpp"
#include "pipeline/ingest.hpp"
#include "simnet/backend.hpp"
#include "simnet/ground_truth.hpp"
#include "simnet/manual_analysis.hpp"
#include "telemetry/border_fleet.hpp"

namespace haystack {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new simnet::Catalog();
    backend_ = new simnet::Backend(*catalog_, simnet::BackendConfig{});
    gt_ = new simnet::GroundTruthSim(*backend_, simnet::GroundTruthConfig{});
    rules_ = new core::RuleSet(simnet::build_ruleset(*backend_));
  }
  static void TearDownTestSuite() {
    delete rules_;
    delete gt_;
    delete backend_;
    delete catalog_;
  }
  static simnet::Catalog* catalog_;
  static simnet::Backend* backend_;
  static simnet::GroundTruthSim* gt_;
  static core::RuleSet* rules_;
};

simnet::Catalog* PipelineTest::catalog_ = nullptr;
simnet::Backend* PipelineTest::backend_ = nullptr;
simnet::GroundTruthSim* PipelineTest::gt_ = nullptr;
core::RuleSet* PipelineTest::rules_ = nullptr;

TEST_F(PipelineTest, FleetLearnsSamplingFromAnnouncements) {
  telemetry::BorderFleetConfig fleet_config;
  fleet_config.routers = 4;
  fleet_config.sampling = 1000;
  telemetry::BorderRouterFleet fleet{fleet_config};
  const auto out = fleet.observe(gt_->hour_flows(24), 24);
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(fleet.sampling().known_sources(), 4u);
  for (unsigned r = 0; r < 4; ++r) {
    EXPECT_EQ(fleet.sampling().interval_of(100 + r), 1000u);
  }
  // Every decoded record carries the announced interval, not a per-record
  // field (the exporters zeroed it).
  for (const auto& lf : out) {
    EXPECT_EQ(lf.flow.sampling, 1000u);
  }
  EXPECT_EQ(fleet.collector_stats().malformed_packets, 0u);
}

TEST_F(PipelineTest, FleetRoutesByDestinationConsistently) {
  telemetry::BorderFleetConfig fleet_config;
  fleet_config.routers = 4;
  fleet_config.sampling = 1000;
  telemetry::BorderRouterFleet fleet{fleet_config};
  const auto flows = gt_->hour_flows(30);
  std::map<net::IpAddress, unsigned> seen;
  for (const auto& lf : flows) {
    const unsigned r = fleet.router_of(lf.flow.key.dst);
    const auto [it, inserted] = seen.emplace(lf.flow.key.dst, r);
    EXPECT_EQ(it->second, r) << "destination flapped between routers";
  }
  // All routers get work.
  std::set<unsigned> used;
  for (const auto& [ip, r] : seen) used.insert(r);
  EXPECT_EQ(used.size(), 4u);
}

TEST_F(PipelineTest, FleetDetectionMatchesSingleVantageStatistically) {
  // The fleet pipeline must not bias detection: over the active window the
  // per-service detection outcomes should agree with the single-exporter
  // vantage for the strong (fast-detected) services.
  telemetry::BorderFleetConfig fleet_config;
  fleet_config.routers = 4;
  fleet_config.sampling = 1000;
  telemetry::BorderRouterFleet fleet{fleet_config};
  core::Detector det{rules_->hitlist, *rules_, {.threshold = 0.4}};
  for (util::HourBin h = 0; h < 48; ++h) {
    for (const auto& lf : fleet.observe(gt_->hour_flows(h), h)) {
      det.observe(1, lf.flow.key.dst, lf.flow.key.dst_port,
                  lf.flow.packets, h);
    }
  }
  for (const char* name : {"Alexa Enabled", "Amazon Product", "Fire TV",
                           "Philips Dev.", "Yi Camera"}) {
    const auto* rule = rules_->rule_by_name(name);
    ASSERT_NE(rule, nullptr);
    EXPECT_TRUE(det.detected(1, rule->service)) << name;
  }
}

using EvidenceRow =
    std::tuple<core::SubscriberKey, core::ServiceId, std::uint64_t,
               std::uint64_t, std::uint16_t, std::uint64_t, util::HourBin,
               util::HourBin>;

template <typename DetectorT>
std::vector<EvidenceRow> evidence_snapshot(const DetectorT& det) {
  std::vector<EvidenceRow> rows;
  det.for_each_evidence([&](core::SubscriberKey s, core::ServiceId sv,
                            const core::Evidence& ev) {
    rows.emplace_back(s, sv, ev.mask(0), ev.mask(1), ev.distinct(), ev.packets(),
                      ev.first_seen(), ev.satisfied_hour());
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST_F(PipelineTest, StreamingDatagramPathMatchesSynchronousCollector) {
  // End-to-end wire differential: two identical fleets export the same
  // hours (export_hour is deterministic, asserted datagram-for-datagram);
  // one stream feeds the staged IngestPipeline, the other a synchronous
  // collector + normalizer + detector on the calling thread. Evidence
  // must agree bit for bit.
  constexpr std::uint64_t kKey = 0x5eed;
  telemetry::BorderFleetConfig fcfg;
  fcfg.routers = 3;
  fcfg.sampling = 200;
  telemetry::BorderRouterFleet fleet_a{fcfg};
  telemetry::BorderRouterFleet fleet_b{fcfg};

  pipeline::IngestConfig icfg;
  icfg.shards = 4;
  icfg.queue_capacity = 8;  // small queues: stages genuinely overlap
  icfg.anonymization_key = kKey;
  pipeline::IngestPipeline pipe{rules_->hitlist, *rules_, icfg};

  flow::nf9::Collector sync_collector{
      flow::nf9::CollectorConfig{.dedup_window = icfg.dedup_window}};
  core::Detector sync_det{rules_->hitlist, *rules_, icfg.detector};
  const auto normalize = pipeline::default_normalizer(kKey);

  std::uint64_t datagrams = 0;
  for (util::HourBin h = 0; h < 6; ++h) {
    std::vector<flow::FlowRecord> records;
    for (const auto& lf : gt_->hour_flows(h)) records.push_back(lf.flow);
    auto wire_a = fleet_a.export_hour(records, h);
    const auto wire_b = fleet_b.export_hour(records, h);
    ASSERT_EQ(wire_a, wire_b) << "export_hour not deterministic, hour " << h;
    for (const auto& datagram : wire_b) {
      std::vector<flow::FlowRecord> decoded;
      (void)sync_collector.ingest(datagram, decoded);
      for (const auto& rec : decoded) {
        if (const auto obs = normalize(rec, h)) {
          sync_det.observe(obs->subscriber, obs->server, obs->port,
                           obs->packets, obs->hour);
        }
      }
    }
    for (auto& datagram : wire_a) {
      ASSERT_TRUE(pipe.push_datagram(std::move(datagram), h));
      ++datagrams;
    }
  }
  pipe.shutdown();

  const auto stats = pipe.stats();
  EXPECT_EQ(stats.datagrams, datagrams);
  EXPECT_EQ(stats.malformed_datagrams, 0u);
  EXPECT_EQ(stats.unknown_version, 0u);
  EXPECT_GT(stats.flows_decoded, 0u);
  // The default normalizer never drops a flow.
  EXPECT_EQ(stats.observations, stats.flows_decoded);
  EXPECT_EQ(pipe.detector().stats().flows, sync_det.stats().flows);
  EXPECT_EQ(evidence_snapshot(pipe.detector()), evidence_snapshot(sync_det));
}

TEST_F(PipelineTest, Version5DatagramCountsAsUnknownVersion) {
  // NetFlow v5 intake is gone: no exporter in the system writes it. A
  // well-formed v5 datagram (24-byte header, one 48-byte record) is an
  // unknown version word — counted, decoded to nothing — and the
  // conservation self-check still holds.
  flow::ByteWriter w;
  w.u16(5);           // version
  w.u16(1);           // record count
  w.u32(3'600'000);   // sysUptime
  w.u32(1574000000);  // unix secs
  w.u32(0);           // unix nsecs
  w.u32(0);           // flow sequence
  w.u8(0);            // engine type
  w.u8(1);            // engine id
  w.u16(0);           // sampling
  w.u32(0x0a000001);  // src
  w.u32(0x34000001);  // dst
  w.u32(0);           // next hop
  w.u16(0);           // input interface
  w.u16(0);           // output interface
  w.u32(3);           // packets
  w.u32(180);         // bytes
  w.u32(3'500'000);   // first
  w.u32(3'599'000);   // last
  w.u16(51000);       // src port
  w.u16(443);         // dst port
  w.u8(0);            // pad
  w.u8(0x1b);         // tcp flags
  w.u8(6);            // protocol
  w.u8(0);            // tos
  w.u16(0);           // src as
  w.u16(0);           // dst as
  w.u8(0);            // src mask
  w.u8(0);            // dst mask
  w.u16(0);           // pad
  ASSERT_EQ(w.size(), 24u + 48u);

  pipeline::IngestPipeline pipe{rules_->hitlist, *rules_,
                                pipeline::IngestConfig{}};
  ASSERT_TRUE(pipe.push_datagram(w.take(), /*hour=*/1));
  const auto check = pipe.self_check();
  EXPECT_TRUE(check.ok) << check.detail;
  const auto stats = pipe.stats();
  EXPECT_EQ(stats.datagrams, 1u);
  EXPECT_EQ(stats.unknown_version, 1u);
  EXPECT_EQ(stats.malformed_datagrams, 0u);
  EXPECT_EQ(stats.flows_decoded, 0u);
  EXPECT_EQ(stats.observations, 0u);
}

}  // namespace
}  // namespace haystack
