// Multi-vantage collection suite (ISSUE 7).
//
// The differential core: a fleet of N collectors shipping evidence deltas
// over an impaired channel to the crash-consistent aggregator must land,
// after finish(), on a merged evidence map BIT-FOR-BIT identical to one
// single-process Detector fed the union stream hour by hour — across
// clean channels, compound drop/duplicate/reorder/truncate impairment,
// lossy acks, collector counts {1, 4, 16}, and a scripted mid-study
// collector kill/restart that resyncs from the aggregator snapshot.
//
// Satellites pinned here:
//   - intern-order regression: two collectors that intern the same rule
//     names in different orders still merge correctly (labels travel as
//     strings in the delta, never as process-local handles);
//   - cleared-on-failed-restore: a corrupt HSAG blob leaves the
//     aggregator empty, global and per-collector state alike;
//   - merge-algebra properties over randomized masks/thresholds:
//     commutativity, idempotency, associativity, satisfaction
//     monotonicity, and replay-after-gap convergence;
//   - HSVD wire strictness: every strict prefix and every trailing byte
//     of a valid delta is rejected;
//   - concurrent offer/query (the TSan workload for `ctest -L vantage`).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "core/evidence_merge.hpp"
#include "flow/delta_wire.hpp"
#include "pipeline/scenario_runner.hpp"
#include "util/rng.hpp"
#include "vantage/fleet.hpp"

namespace haystack::vantage {
namespace {

using core::Evidence;
using core::Observation;
using core::ServiceId;
using core::SubscriberKey;

constexpr unsigned kHours = 48;

struct TestScenario {
  core::RuleSet rules;
  core::DetectorConfig config;
  /// Observation stream grouped by hour (index == hour), the order the
  /// fleet — and the baseline — consume it.
  std::vector<std::vector<Observation>> stream;
  SubscriberKey subscriber_pool = 0;
};

net::IpAddress service_ip(ServiceId s, std::uint16_t m) {
  return net::IpAddress::v4(0x0A000000U | (std::uint32_t{s} << 16) | m);
}

// Randomized rule universe + hour-bucketed observation stream; everything
// derives from `seed` (same recipe as tests/differential_test.cpp).
TestScenario make_scenario(std::uint64_t seed) {
  util::Pcg32 rng = util::derive_rng(seed, 0x7a9e, 0);
  TestScenario sc;

  constexpr double kThresholds[] = {0.1, 0.25, 0.4, 0.6, 0.8, 1.0};
  sc.config.threshold = kThresholds[seed % std::size(kThresholds)];

  const unsigned n_services = 3 + rng.bounded(6);
  for (unsigned s = 0; s < n_services; ++s) {
    core::DetectionRule rule;
    rule.service = static_cast<ServiceId>(s);
    rule.name = "svc" + std::to_string(s);
    rule.level = core::Level::kManufacturer;
    rule.monitored_domains = 1 + rng.bounded(16);
    for (std::uint16_t m = 0; m < rule.monitored_domains; ++m) {
      rule.monitored_indices.push_back(m);
    }
    if (s > 0 && rng.chance(0.5)) {
      rule.parent = static_cast<ServiceId>(rng.bounded(s));
    }
    if (rng.chance(0.4)) {
      rule.critical_monitored_index =
          static_cast<std::uint16_t>(rng.bounded(rule.monitored_domains));
      rule.critical_sufficient = rng.chance(0.5);
    }
    sc.rules.rules.push_back(std::move(rule));
  }
  for (const auto& rule : sc.rules.rules) {
    for (std::uint16_t m = 0; m < rule.monitored_domains; ++m) {
      for (util::DayBin day = 0; day < kHours / 24; ++day) {
        sc.rules.hitlist.add(service_ip(rule.service, m), 443, day,
                             {rule.service, m});
      }
    }
  }

  sc.subscriber_pool = 1 + rng.bounded(120);
  sc.stream.resize(kHours);
  const std::size_t n_obs = 500 + rng.bounded(2500);
  for (std::size_t i = 0; i < n_obs; ++i) {
    Observation obs;
    obs.subscriber =
        1 + rng.bounded(static_cast<std::uint32_t>(sc.subscriber_pool));
    obs.packets = 1 + rng.bounded(100);
    obs.hour = rng.bounded(kHours);
    const std::uint32_t kind = rng.bounded(10);
    const auto s = static_cast<ServiceId>(rng.bounded(n_services));
    const auto m = static_cast<std::uint16_t>(
        rng.bounded(sc.rules.rules[s].monitored_domains));
    if (kind < 7) {
      obs.server = service_ip(s, m);
      obs.port = 443;
    } else if (kind < 9) {
      obs.server = service_ip(s, m);
      obs.port = static_cast<std::uint16_t>(1024 + rng.bounded(50000));
    } else {
      obs.server = net::IpAddress::v4(0xC6336400U + rng.bounded(256));
      obs.port = 443;
    }
    sc.stream[obs.hour].push_back(obs);
  }
  return sc;
}

// Canonical bit-for-bit snapshot of an evidence holder (Detector or
// Aggregator — anything with for_each_evidence).
using EvidenceRow =
    std::tuple<SubscriberKey, ServiceId, std::uint64_t, std::uint64_t,
               std::uint16_t, std::uint64_t, util::HourBin, util::HourBin>;

template <typename T>
std::vector<EvidenceRow> snapshot(const T& holder) {
  std::vector<EvidenceRow> rows;
  holder.for_each_evidence(
      [&rows](SubscriberKey sub, ServiceId svc, const Evidence& ev) {
        rows.emplace_back(sub, svc, ev.mask(0), ev.mask(1), ev.distinct(),
                          ev.packets(), ev.first_seen(), ev.satisfied_hour());
      });
  std::sort(rows.begin(), rows.end());
  return rows;
}

template <typename T>
std::map<std::pair<SubscriberKey, ServiceId>, std::optional<util::HourBin>>
detection_map(const T& holder, const TestScenario& sc) {
  std::map<std::pair<SubscriberKey, ServiceId>, std::optional<util::HourBin>>
      out;
  for (SubscriberKey sub = 1; sub <= sc.subscriber_pool; ++sub) {
    for (const auto& rule : sc.rules.rules) {
      out[{sub, rule.service}] = holder.detection_hour(sub, rule.service);
    }
  }
  return out;
}

// Single-process baseline over the identical hour-ordered stream.
core::Detector run_baseline(const TestScenario& sc) {
  core::Detector baseline{sc.rules.hitlist, sc.rules, sc.config};
  for (util::HourBin h = 0; h < sc.stream.size(); ++h) {
    for (const Observation& obs : sc.stream[h]) {
      baseline.observe(obs.subscriber, obs.server, obs.port, obs.packets,
                       obs.hour);
    }
  }
  return baseline;
}

void expect_fleet_matches_baseline(const TestScenario& sc,
                                   const FleetConfig& fcfg,
                                   const char* what) {
  const core::Detector baseline = run_baseline(sc);
  Fleet fleet{sc.rules.hitlist, sc.rules, fcfg};
  for (util::HourBin h = 0; h < sc.stream.size(); ++h) {
    fleet.process_hour(h, sc.stream[h]);
  }
  ASSERT_TRUE(fleet.finish()) << what;
  EXPECT_EQ(fleet.aggregator().merged_through(),
            std::optional<util::HourBin>{kHours - 1})
      << what;
  EXPECT_EQ(snapshot(fleet.aggregator()), snapshot(baseline)) << what;
  EXPECT_EQ(detection_map(fleet.aggregator(), sc),
            detection_map(baseline, sc))
      << what;
  EXPECT_EQ(fleet.aggregator().stats().flows, baseline.stats().flows) << what;
  EXPECT_EQ(fleet.aggregator().stats().matched, baseline.stats().matched)
      << what;
}

class VantageDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VantageDifferentialTest, CleanChannelMatchesAcrossFleetSizes) {
  const TestScenario sc = make_scenario(GetParam());
  for (const unsigned collectors : {1u, 4u, 16u}) {
    FleetConfig fcfg;
    fcfg.collectors = collectors;
    fcfg.detector = sc.config;
    fcfg.seed = GetParam();
    expect_fleet_matches_baseline(
        sc, fcfg, ("collectors=" + std::to_string(collectors)).c_str());
  }
}

TEST_P(VantageDifferentialTest, ImpairedDeltaChannelStillMatchesBitForBit) {
  const TestScenario sc = make_scenario(GetParam());
  flow::ImpairmentConfig impair;
  impair.seed = GetParam() ^ 0xde17a;
  impair.drop = 0.15;
  impair.duplicate = 0.10;
  impair.reorder = 0.10;
  impair.truncate = 0.05;
  for (const unsigned collectors : {1u, 4u, 16u}) {
    FleetConfig fcfg;
    fcfg.collectors = collectors;
    fcfg.detector = sc.config;
    fcfg.seed = GetParam();
    fcfg.delta_impairment = impair;
    fcfg.ack_loss = 0.2;
    expect_fleet_matches_baseline(
        sc, fcfg,
        ("impaired collectors=" + std::to_string(collectors)).c_str());
  }
}

TEST_P(VantageDifferentialTest, MidStudyKillRestartMatchesBitForBit) {
  const TestScenario sc = make_scenario(GetParam());
  flow::ImpairmentConfig impair;
  impair.seed = GetParam() ^ 0x6b11;
  impair.drop = 0.10;
  impair.duplicate = 0.05;
  impair.reorder = 0.05;
  FleetConfig fcfg;
  fcfg.collectors = 4;
  fcfg.detector = sc.config;
  fcfg.seed = GetParam();
  fcfg.delta_impairment = impair;
  fcfg.kill_collector = static_cast<unsigned>(GetParam() % 4);
  fcfg.kill_hour = 12 + static_cast<util::HourBin>(GetParam() % 8);
  fcfg.restart_hour = 30 + static_cast<util::HourBin>(GetParam() % 8);
  expect_fleet_matches_baseline(sc, fcfg, "kill/restart");

  // And the degenerate restart-next-hour case on a clean channel.
  FleetConfig quick = fcfg;
  quick.delta_impairment.reset();
  quick.kill_hour = 20;
  quick.restart_hour = 21;
  expect_fleet_matches_baseline(sc, quick, "kill/restart next hour");
}

INSTANTIATE_TEST_SUITE_P(Scenarios, VantageDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 12));

// --- merge-algebra property tests (satellite) ---

Evidence random_evidence(util::Pcg32& rng) {
  Evidence ev;
  // Sparse-ish masks so merges actually change bit populations; distinct
  // is derived from the mask by the packed layout.
  for (unsigned i = 0; i < 2; ++i) {
    std::uint64_t word = 0;
    const unsigned bits = rng.bounded(12);
    for (unsigned b = 0; b < bits; ++b) word |= 1ULL << rng.bounded(64);
    ev.set_mask(i, word);
  }
  ev.set_packets(rng.bounded(100000));
  ev.set_first_seen(rng.bounded(500));
  ev.set_satisfied_hour(rng.chance(0.5) ? Evidence::kNever
                                        : rng.bounded(500));
  return ev;
}

bool same(const Evidence& a, const Evidence& b) {
  return a.mask(0) == b.mask(0) && a.mask(1) == b.mask(1) &&
         a.distinct() == b.distinct() && a.packets() == b.packets() &&
         a.first_seen() == b.first_seen() &&
         a.satisfied_hour() == b.satisfied_hour();
}

TEST(VantageMergeProperties, CommutativeIdempotentAssociative) {
  util::Pcg32 rng = util::derive_rng(7, 0x3e6e, 0);
  for (int i = 0; i < 2000; ++i) {
    const Evidence a = random_evidence(rng);
    const Evidence b = random_evidence(rng);
    const Evidence c = random_evidence(rng);

    Evidence ab = a;
    core::merge_evidence(ab, b);
    Evidence ba = b;
    core::merge_evidence(ba, a);
    EXPECT_TRUE(same(ab, ba)) << "merge must be commutative (iteration "
                              << i << ")";

    Evidence aa = a;
    core::merge_evidence(aa, a);
    EXPECT_TRUE(same(aa, a)) << "merge must be idempotent (iteration " << i
                             << ")";

    Evidence ab_c = ab;
    core::merge_evidence(ab_c, c);
    Evidence bc = b;
    core::merge_evidence(bc, c);
    Evidence a_bc = a;
    core::merge_evidence(a_bc, bc);
    EXPECT_TRUE(same(ab_c, a_bc))
        << "merge must be associative (iteration " << i << ")";
  }
}

TEST(VantageMergeProperties, SatisfactionIsMonotoneUnderMerge) {
  util::Pcg32 rng = util::derive_rng(11, 0x3e6e, 1);
  for (int i = 0; i < 2000; ++i) {
    core::DetectionRule rule;
    rule.service = 0;
    rule.name = "r";
    rule.monitored_domains =
        static_cast<std::uint16_t>(1 + rng.bounded(128));
    if (rng.chance(0.5)) {
      rule.critical_monitored_index =
          static_cast<std::uint16_t>(rng.bounded(rule.monitored_domains));
      rule.critical_sufficient = rng.chance(0.5);
    }
    const double threshold = 0.05 + 0.95 * (rng.bounded(1000) / 1000.0);
    const core::SatisfyRule satisfy =
        core::compile_satisfy_rule(rule, threshold);

    const Evidence a = random_evidence(rng);
    const Evidence b = random_evidence(rng);
    Evidence merged = a;
    core::merge_evidence(merged, b);
    if (core::evidence_satisfies(a, satisfy)) {
      EXPECT_TRUE(core::evidence_satisfies(merged, satisfy))
          << "satisfied evidence must stay satisfied after a merge "
             "(iteration "
          << i << ")";
    }
    // And satisfaction only ever depends on the mask/distinct, which the
    // merge grows: popcount(merged) >= popcount(a).
    EXPECT_GE(merged.distinct(), a.distinct());
  }
}

// Seals three epochs from two real collectors, then delivers the deltas to
// a second aggregator in a hostile order — a gap (epoch 2 before 0 and 1),
// replays, and a stale post-merge retransmission — and requires exact
// convergence to the in-order aggregator.
TEST(VantageMergeProperties, ReplayAfterGapConvergesExactly) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const TestScenario sc = make_scenario(seed);
    AggregatorConfig acfg;
    acfg.detector = sc.config;

    CollectorConfig c0cfg;
    c0cfg.id = 0;
    c0cfg.detector = sc.config;
    CollectorConfig c1cfg = c0cfg;
    c1cfg.id = 1;
    Collector c0{sc.rules.hitlist, sc.rules, c0cfg};
    Collector c1{sc.rules.hitlist, sc.rules, c1cfg};

    std::vector<std::vector<std::uint8_t>> d0;
    std::vector<std::vector<std::uint8_t>> d1;
    for (util::HourBin h = 0; h < 3; ++h) {
      for (const Observation& obs : sc.stream[h]) {
        ((obs.subscriber % 2 == 0) ? c0 : c1).ingest(obs);
      }
      d0.push_back(c0.seal_epoch(h));
      d1.push_back(c1.seal_epoch(h));
    }

    Aggregator in_order{sc.rules.hitlist, sc.rules, acfg};
    in_order.add_collector(0, 0);
    in_order.add_collector(1, 0);
    for (util::HourBin h = 0; h < 3; ++h) {
      EXPECT_TRUE(in_order.offer(d0[h]).accepted);
      EXPECT_TRUE(in_order.offer(d1[h]).accepted);
    }
    ASSERT_EQ(in_order.merged_through(), std::optional<util::HourBin>{2});

    Aggregator hostile{sc.rules.hitlist, sc.rules, acfg};
    hostile.add_collector(0, 0);
    hostile.add_collector(1, 0);
    EXPECT_TRUE(hostile.offer(d0[2]).accepted);  // gap: epochs 0,1 missing
    EXPECT_TRUE(hostile.offer(d1[0]).accepted);
    EXPECT_TRUE(hostile.offer(d0[0]).accepted);  // seals epoch 0
    EXPECT_EQ(hostile.merged_through(), std::optional<util::HourBin>{0});
    EXPECT_TRUE(hostile.offer(d0[1]).accepted);
    EXPECT_TRUE(hostile.offer(d0[1]).accepted);  // duplicate of staged
    EXPECT_TRUE(hostile.offer(d1[2]).accepted);
    EXPECT_TRUE(hostile.offer(d1[1]).accepted);  // seals epochs 1 and 2
    ASSERT_EQ(hostile.merged_through(), std::optional<util::HourBin>{2});
    const auto stale = hostile.offer(d0[2]);  // replay of a merged epoch
    EXPECT_TRUE(stale.accepted);
    EXPECT_EQ(stale.detail, "stale");

    EXPECT_EQ(snapshot(hostile), snapshot(in_order)) << "seed=" << seed;
    EXPECT_EQ(hostile.stats().flows, in_order.stats().flows);
    EXPECT_EQ(hostile.stats().matched, in_order.stats().matched);
    EXPECT_GT(hostile.counters().duplicates, 0U);
    EXPECT_EQ(hostile.counters().stale, 1U);
  }
}

// --- intern-order regression (satellite) ---

// Two collectors touch the same two rules in OPPOSITE first-use order, so
// their delta label tables disagree position-by-position; the aggregator
// must remap by name, never by table index.
TEST(VantageInternOrder, CollectorsWithDifferentLabelOrdersMergeCorrectly) {
  core::RuleSet rules;
  for (const char* name : {"alpha", "beta"}) {
    core::DetectionRule rule;
    rule.service = static_cast<ServiceId>(rules.rules.size());
    rule.name = name;
    rule.monitored_domains = 2;
    rule.monitored_indices = {0, 1};
    rules.rules.push_back(std::move(rule));
  }
  for (const auto& rule : rules.rules) {
    for (std::uint16_t m = 0; m < 2; ++m) {
      rules.hitlist.add(service_ip(rule.service, m), 443, 0,
                        {rule.service, m});
    }
  }
  core::DetectorConfig dcfg;
  dcfg.threshold = 1.0;  // both domains required

  const auto obs = [](SubscriberKey sub, ServiceId svc, std::uint16_t m) {
    Observation o;
    o.subscriber = sub;
    o.server = service_ip(svc, m);
    o.port = 443;
    o.packets = 3;
    o.hour = 0;
    return o;
  };

  CollectorConfig c0cfg;
  c0cfg.detector = dcfg;
  CollectorConfig c1cfg = c0cfg;
  c1cfg.id = 1;
  Collector c0{rules.hitlist, rules, c0cfg};
  Collector c1{rules.hitlist, rules, c1cfg};
  // Collector 0's lowest subscriber touches alpha; collector 1's lowest
  // touches beta — their label tables come out in opposite orders.
  c0.ingest(obs(1, 0, 0));
  c0.ingest(obs(2, 1, 0));
  c1.ingest(obs(3, 1, 1));
  c1.ingest(obs(4, 0, 1));
  const auto bytes0 = c0.seal_epoch(0);
  const auto bytes1 = c1.seal_epoch(0);

  flow::EvidenceDelta delta0;
  flow::EvidenceDelta delta1;
  ASSERT_TRUE(flow::decode_delta(bytes0, delta0));
  ASSERT_TRUE(flow::decode_delta(bytes1, delta1));
  ASSERT_EQ(delta0.labels, (std::vector<std::string>{"alpha", "beta"}));
  ASSERT_EQ(delta1.labels, (std::vector<std::string>{"beta", "alpha"}));

  AggregatorConfig acfg;
  acfg.detector = dcfg;
  Aggregator agg{rules.hitlist, rules, acfg};
  agg.add_collector(0, 0);
  agg.add_collector(1, 0);
  EXPECT_TRUE(agg.offer(bytes0).accepted);
  EXPECT_TRUE(agg.offer(bytes1).accepted);
  ASSERT_EQ(agg.merged_through(), std::optional<util::HourBin>{0});

  core::Detector single{rules.hitlist, rules, dcfg};
  for (const auto& o :
       {obs(1, 0, 0), obs(2, 1, 0), obs(3, 1, 1), obs(4, 0, 1)}) {
    single.observe(o.subscriber, o.server, o.port, o.packets, o.hour);
  }
  EXPECT_EQ(snapshot(agg), snapshot(single));
  // Spot-check the remap: subscriber 4 touched "alpha" (service 0) even
  // though its row's label index is 1 in collector 1's table.
  const auto ev = agg.evidence(4, 0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->mask(0), 2U);  // domain position 1
}

// --- crash-consistent save/restore (satellite) ---

class VantageRestoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sc_ = make_scenario(3);
    fcfg_.collectors = 3;
    fcfg_.detector = sc_.config;
  }

  // Runs half the study and returns the fleet (merged state non-trivial).
  std::unique_ptr<Fleet> half_study() {
    auto fleet = std::make_unique<Fleet>(sc_.rules.hitlist, sc_.rules, fcfg_);
    for (util::HourBin h = 0; h < kHours / 2; ++h) {
      fleet->process_hour(h, sc_.stream[h]);
    }
    return fleet;
  }

  TestScenario sc_;
  FleetConfig fcfg_;
};

TEST_F(VantageRestoreTest, SaveRestoreRoundTripsBitForBit) {
  auto fleet = half_study();
  const Aggregator& agg = fleet->aggregator();
  const auto blob = agg.save();

  AggregatorConfig acfg;
  acfg.detector = sc_.config;
  Aggregator restored{sc_.rules.hitlist, sc_.rules, acfg};
  std::string err;
  ASSERT_TRUE(restored.restore(blob, &err)) << err;
  EXPECT_EQ(snapshot(restored), snapshot(agg));
  EXPECT_EQ(restored.merged_through(), agg.merged_through());
  EXPECT_EQ(restored.stats().flows, agg.stats().flows);
  EXPECT_EQ(restored.stats().matched, agg.stats().matched);
  for (std::uint32_t id = 0; id < fcfg_.collectors; ++id) {
    EXPECT_EQ(restored.acked_through(id), agg.acked_through(id));
    EXPECT_EQ(restored.snapshot_for(id), agg.snapshot_for(id));
  }
}

TEST_F(VantageRestoreTest, RestoredAggregatorResumesWithoutDoubleCounting) {
  auto fleet = half_study();
  const auto blob = fleet->aggregator().save();
  std::string err;
  ASSERT_TRUE(fleet->aggregator().restore(blob, &err)) << err;
  // Staged-but-unmerged epochs died with the "crash"; the unacked deltas
  // are still queued collector-side and retransmit during the remaining
  // hours, so the run must still finish bit-for-bit.
  for (util::HourBin h = kHours / 2; h < kHours; ++h) {
    fleet->process_hour(h, sc_.stream[h]);
  }
  ASSERT_TRUE(fleet->finish());
  const core::Detector baseline = run_baseline(sc_);
  EXPECT_EQ(snapshot(fleet->aggregator()), snapshot(baseline));
  EXPECT_EQ(fleet->aggregator().stats().flows, baseline.stats().flows);
}

TEST_F(VantageRestoreTest, FailedRestoreClearsAllState) {
  auto fleet = half_study();
  Aggregator& agg = fleet->aggregator();
  ASSERT_FALSE(snapshot(agg).empty());
  auto blob = agg.save();

  // Corrupt the header threshold: structurally valid prefix, wrong world.
  blob[11] ^= 0xff;
  std::string err;
  EXPECT_FALSE(agg.restore(blob, &err));
  EXPECT_FALSE(err.empty());

  // Cleared-on-failed-restore: nothing survives, global or per-collector.
  EXPECT_TRUE(snapshot(agg).empty());
  EXPECT_EQ(agg.merged_through(), std::nullopt);
  EXPECT_EQ(agg.stats().flows, 0U);
  EXPECT_EQ(agg.stats().matched, 0U);
  for (std::uint32_t id = 0; id < fcfg_.collectors; ++id) {
    EXPECT_EQ(agg.acked_through(id), std::nullopt);
    EXPECT_TRUE(agg.snapshot_for(id).empty());
  }
}

TEST_F(VantageRestoreTest, TruncatedAndGarbageBlobsAllClear) {
  auto fleet = half_study();
  Aggregator& agg = fleet->aggregator();
  const auto blob = agg.save();
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{4}, std::size_t{17}, blob.size() / 2,
        blob.size() - 1}) {
    AggregatorConfig acfg;
    acfg.detector = sc_.config;
    Aggregator victim{sc_.rules.hitlist, sc_.rules, acfg};
    std::vector<std::uint8_t> cutblob{blob.begin(),
                                      blob.begin() + static_cast<long>(cut)};
    EXPECT_FALSE(victim.restore(cutblob));
    EXPECT_TRUE(snapshot(victim).empty());
    EXPECT_EQ(victim.merged_through(), std::nullopt);
  }
}

// --- HSVD wire strictness ---

flow::EvidenceDelta sample_delta() {
  flow::EvidenceDelta delta;
  delta.collector = 7;
  delta.seq = 42;
  delta.epoch = 13;
  delta.kind = flow::DeltaKind::kDelta;
  delta.threshold_bits = std::bit_cast<std::uint64_t>(0.4);
  delta.flows = 1234;
  delta.matched = 99;
  delta.labels = {"alexa", "ring-doorbell"};
  flow::DeltaRow row;
  row.subscriber = 0x1122334455667788ULL;
  row.label = 1;
  row.mask0 = 0b1011;
  row.mask1 = 1ULL << 63;
  row.packets = 555;
  row.first_seen = 12;
  delta.rows.push_back(row);
  row.subscriber = 0x99;
  row.label = 0;
  delta.rows.push_back(row);
  // Both optional widths the other way: no second mask word, a packet
  // counter past 32 bits.
  row.subscriber = 0xab;
  row.mask1 = 0;
  row.packets = 0x1'0000'0007ULL;
  row.first_seen = 200;
  delta.rows.push_back(row);
  return delta;
}

TEST(VantageDeltaWire, RoundTripsEveryField) {
  const flow::EvidenceDelta delta = sample_delta();
  const auto bytes = flow::encode_delta(delta);
  flow::EvidenceDelta out;
  std::string err;
  ASSERT_TRUE(flow::decode_delta(bytes, out, &err)) << err;
  EXPECT_EQ(out.collector, delta.collector);
  EXPECT_EQ(out.seq, delta.seq);
  EXPECT_EQ(out.epoch, delta.epoch);
  EXPECT_EQ(out.kind, delta.kind);
  EXPECT_EQ(out.threshold_bits, delta.threshold_bits);
  EXPECT_EQ(out.flows, delta.flows);
  EXPECT_EQ(out.matched, delta.matched);
  EXPECT_EQ(out.labels, delta.labels);
  ASSERT_EQ(out.rows.size(), delta.rows.size());
  for (std::size_t i = 0; i < out.rows.size(); ++i) {
    EXPECT_EQ(out.rows[i].subscriber, delta.rows[i].subscriber);
    EXPECT_EQ(out.rows[i].label, delta.rows[i].label);
    EXPECT_EQ(out.rows[i].mask0, delta.rows[i].mask0);
    EXPECT_EQ(out.rows[i].mask1, delta.rows[i].mask1);
    EXPECT_EQ(out.rows[i].packets, delta.rows[i].packets);
    EXPECT_EQ(out.rows[i].first_seen, delta.rows[i].first_seen);
  }
  // Canonical: re-encoding the parse reproduces the input byte-for-byte.
  EXPECT_EQ(flow::encode_delta(out), bytes);
}

TEST(VantageDeltaWire, EveryPrefixAndAnyTrailingByteRejected) {
  const auto bytes = flow::encode_delta(sample_delta());
  flow::EvidenceDelta out;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(flow::decode_delta(
        std::span<const std::uint8_t>{bytes.data(), len}, out))
        << "prefix length " << len;
  }
  auto extended = bytes;
  extended.push_back(0);
  EXPECT_FALSE(flow::decode_delta(extended, out));
}

TEST(VantageDeltaWire, RejectsStructuralCorruption) {
  flow::EvidenceDelta out;
  {
    auto bytes = flow::encode_delta(sample_delta());
    bytes[0] ^= 0xff;  // magic
    EXPECT_FALSE(flow::decode_delta(bytes, out));
  }
  {
    auto bytes = flow::encode_delta(sample_delta());
    bytes[7] ^= 0xff;  // version
    EXPECT_FALSE(flow::decode_delta(bytes, out));
  }
  {
    auto delta = sample_delta();
    delta.rows[0].label = 9;  // out-of-range label index
    EXPECT_FALSE(flow::decode_delta(flow::encode_delta(delta), out));
  }
  {
    auto bytes = flow::encode_delta(sample_delta());
    bytes[20] = 2;  // kind byte past kSnapshot
    EXPECT_FALSE(flow::decode_delta(bytes, out));
  }
}

// --- aggregator admission control ---

TEST(VantageAggregator, RejectsForeignAndMalformedDeltas) {
  const TestScenario sc = make_scenario(1);
  AggregatorConfig acfg;
  acfg.detector = sc.config;
  Aggregator agg{sc.rules.hitlist, sc.rules, acfg};
  agg.add_collector(0, 0);

  CollectorConfig ccfg;
  ccfg.detector = sc.config;
  Collector c0{sc.rules.hitlist, sc.rules, ccfg};
  for (const Observation& obs : sc.stream[0]) c0.ingest(obs);

  // Unknown collector id.
  {
    Collector stranger{sc.rules.hitlist, sc.rules,
                       CollectorConfig{.id = 9, .detector = sc.config}};
    const auto r = agg.offer(stranger.seal_epoch(0));
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.detail, "unknown collector");
  }
  // Threshold mismatch.
  {
    core::DetectorConfig other = sc.config;
    other.threshold = sc.config.threshold / 2 + 0.01;
    Collector wrong{sc.rules.hitlist, sc.rules,
                    CollectorConfig{.id = 0, .detector = other}};
    const auto r = agg.offer(wrong.seal_epoch(0));
    EXPECT_FALSE(r.accepted);
  }
  // Snapshot kind on the delta path.
  {
    flow::EvidenceDelta snap;
    snap.kind = flow::DeltaKind::kSnapshot;
    snap.threshold_bits = std::bit_cast<std::uint64_t>(sc.config.threshold);
    const auto r = agg.offer(flow::encode_delta(snap));
    EXPECT_FALSE(r.accepted);
  }
  // Unknown rule name.
  {
    flow::EvidenceDelta alien;
    alien.collector = 0;
    alien.kind = flow::DeltaKind::kDelta;
    alien.threshold_bits = std::bit_cast<std::uint64_t>(sc.config.threshold);
    alien.labels = {"no-such-rule"};
    flow::DeltaRow row;
    row.label = 0;
    row.subscriber = 1;
    alien.rows.push_back(row);
    const auto r = agg.offer(flow::encode_delta(alien));
    EXPECT_FALSE(r.accepted);
  }
  // Garbage bytes.
  EXPECT_FALSE(agg.offer(std::vector<std::uint8_t>{1, 2, 3}).accepted);

  EXPECT_EQ(agg.counters().rejected, 5U);
  EXPECT_EQ(agg.merged_through(), std::nullopt);  // nothing ever staged
  // And the legitimate delta still lands.
  EXPECT_TRUE(agg.offer(c0.seal_epoch(0)).accepted);
  EXPECT_EQ(agg.merged_through(), std::optional<util::HourBin>{0});
}

TEST(VantageAggregator, RejectsRetiredDeltaVersionOne) {
  // HSVD version 1 (fixed 40-byte rows) is no longer decoded: a datagram
  // whose version word says 1 is refused and leaves the aggregator's
  // merged state as it was.
  const TestScenario sc = make_scenario(1);
  AggregatorConfig acfg;
  acfg.detector = sc.config;
  Aggregator agg{sc.rules.hitlist, sc.rules, acfg};
  agg.add_collector(0, 0);

  CollectorConfig ccfg;
  ccfg.detector = sc.config;
  Collector c0{sc.rules.hitlist, sc.rules, ccfg};
  for (const Observation& obs : sc.stream[0]) c0.ingest(obs);
  ASSERT_TRUE(agg.offer(c0.seal_epoch(0)).accepted);
  const auto before = agg.save();
  const auto merged = agg.merged_through();

  for (const Observation& obs : sc.stream[1]) c0.ingest(obs);
  auto retired = c0.seal_epoch(1);
  ASSERT_EQ(retired[7], flow::kDeltaVersion);
  retired[7] = 1;  // big-endian u32 version word after the magic
  flow::EvidenceDelta out;
  std::string error;
  EXPECT_FALSE(flow::decode_delta(retired, out, &error));
  EXPECT_EQ(error, "unsupported version");

  EXPECT_FALSE(agg.offer(retired).accepted);
  EXPECT_EQ(agg.counters().rejected, 1U);
  EXPECT_EQ(agg.merged_through(), merged);
  EXPECT_EQ(agg.save(), before);
}

TEST(VantageAggregator, HeartbeatHealthTracksLag) {
  const TestScenario sc = make_scenario(2);
  AggregatorConfig acfg;
  acfg.detector = sc.config;
  acfg.stale_after = 3;
  Aggregator agg{sc.rules.hitlist, sc.rules, acfg};
  agg.add_collector(0, 0);
  agg.add_collector(1, 0);

  CollectorConfig c0cfg;
  c0cfg.detector = sc.config;
  Collector c0{sc.rules.hitlist, sc.rules, c0cfg};
  CollectorConfig c1cfg = c0cfg;
  c1cfg.id = 1;
  Collector c1{sc.rules.hitlist, sc.rules, c1cfg};

  // Collector 0 keeps sealing; collector 1 goes silent: after stale_after
  // epochs of lag its heartbeat health flips false, stalling no one (the
  // barrier just waits).
  std::vector<std::vector<std::uint8_t>> held;
  for (util::HourBin h = 0; h < 6; ++h) {
    EXPECT_TRUE(agg.offer(c0.seal_epoch(h)).accepted);
    held.push_back(c1.seal_epoch(h));  // sealed but never transmitted
  }
  EXPECT_TRUE(agg.healthy(0));
  EXPECT_FALSE(agg.healthy(1));
  EXPECT_EQ(agg.merged_through(), std::nullopt);  // barrier held the line

  for (const auto& bytes : held) EXPECT_TRUE(agg.offer(bytes).accepted);
  EXPECT_TRUE(agg.healthy(0));
  EXPECT_TRUE(agg.healthy(1));
  EXPECT_EQ(agg.merged_through(), std::optional<util::HourBin>{5});
}

TEST(VantageCollector, RetransmitsWithBoundedBackoffUntilAcked) {
  const TestScenario sc = make_scenario(4);
  CollectorConfig ccfg;
  ccfg.detector = sc.config;
  ccfg.initial_backoff = 1;
  ccfg.max_backoff = 4;
  Collector col{sc.rules.hitlist, sc.rules, ccfg};
  for (const Observation& obs : sc.stream[0]) col.ingest(obs);
  const auto original = col.seal_epoch(0);
  EXPECT_EQ(col.unacked(), 1U);

  // Backoff 1 → first retransmission on the second tick, then the gap
  // doubles (3 ticks, then 5) and clamps at the max_backoff of 4.
  std::vector<unsigned> due_ticks;
  for (unsigned tick = 1; tick <= 16; ++tick) {
    for (auto& bytes : col.tick()) {
      EXPECT_EQ(bytes, original);  // verbatim original datagram
      due_ticks.push_back(tick);
    }
  }
  EXPECT_EQ(due_ticks, (std::vector<unsigned>{2, 5, 10, 15}));
  EXPECT_EQ(col.retransmissions(), 4U);

  col.handle_ack(0);
  EXPECT_EQ(col.unacked(), 0U);
  EXPECT_EQ(col.acked_through(), std::optional<util::HourBin>{0});
  for (unsigned tick = 0; tick < 8; ++tick) {
    EXPECT_TRUE(col.tick().empty());
  }
}

// --- concurrency (the TSan workload for `ctest -L vantage`) ---

TEST(VantageConcurrency, ConcurrentOffersAndQueriesConvergeDeterministically) {
  const TestScenario sc = make_scenario(5);
  constexpr util::HourBin kEpochs = 24;

  // Pre-seal both collectors' deltas so the threads only touch the
  // aggregator.
  std::vector<std::vector<std::uint8_t>> d0;
  std::vector<std::vector<std::uint8_t>> d1;
  {
    CollectorConfig c0cfg;
    c0cfg.detector = sc.config;
    CollectorConfig c1cfg = c0cfg;
    c1cfg.id = 1;
    Collector c0{sc.rules.hitlist, sc.rules, c0cfg};
    Collector c1{sc.rules.hitlist, sc.rules, c1cfg};
    for (util::HourBin h = 0; h < kEpochs; ++h) {
      for (const Observation& obs : sc.stream[h]) {
        ((obs.subscriber % 2 == 0) ? c0 : c1).ingest(obs);
      }
      d0.push_back(c0.seal_epoch(h));
      d1.push_back(c1.seal_epoch(h));
    }
  }

  AggregatorConfig acfg;
  acfg.detector = sc.config;
  Aggregator sequential{sc.rules.hitlist, sc.rules, acfg};
  sequential.add_collector(0, 0);
  sequential.add_collector(1, 0);
  for (util::HourBin h = 0; h < kEpochs; ++h) {
    ASSERT_TRUE(sequential.offer(d0[h]).accepted);
    ASSERT_TRUE(sequential.offer(d1[h]).accepted);
  }

  obs::Observability observability;
  Aggregator concurrent{sc.rules.hitlist, sc.rules, acfg, &observability};
  concurrent.add_collector(0, 0);
  concurrent.add_collector(1, 0);
  std::thread t0{[&] {
    for (const auto& bytes : d0) EXPECT_TRUE(concurrent.offer(bytes).accepted);
  }};
  std::thread t1{[&] {
    for (const auto& bytes : d1) EXPECT_TRUE(concurrent.offer(bytes).accepted);
  }};
  std::thread reader{[&] {
    std::uint64_t sink = 0;
    for (int i = 0; i < 3000; ++i) {
      sink += concurrent.counters().offered;
      sink += concurrent.merged_through().value_or(0);
      sink += concurrent.healthy(0) ? 1 : 0;
      sink += concurrent.stats().flows;
      if (const auto ev = concurrent.evidence(1, 0)) sink += ev->packets();
    }
    EXPECT_GE(sink, 0U);
  }};
  t0.join();
  t1.join();
  reader.join();

  EXPECT_EQ(concurrent.merged_through(),
            std::optional<util::HourBin>{kEpochs - 1});
  EXPECT_EQ(snapshot(concurrent), snapshot(sequential));
  EXPECT_EQ(concurrent.stats().flows, sequential.stats().flows);
}

// --- scenario plumbing (parser keys + end-to-end runner) ---

TEST(VantageScenario, ParsesVantageAndDeltaChannelKeys) {
  std::istringstream text{R"(
vantage_collectors 6
delta_drop 0.1
delta_duplicate 0.05
delta_reorder 0.02
delta_truncate 0.01
delta_seed 99
ack_loss 0.2
vantage_kill_collector 2
vantage_kill_hour 8
vantage_restart_hour 16
)"};
  std::string err;
  const auto scenario = simnet::parse_scenario(text, &err);
  ASSERT_TRUE(scenario.has_value()) << err;
  EXPECT_EQ(scenario->vantage_collectors, 6U);
  EXPECT_EQ(scenario->ack_loss, 0.2);
  EXPECT_EQ(scenario->vantage_kill_collector, 2U);
  EXPECT_EQ(scenario->vantage_kill_hour, 8U);
  EXPECT_EQ(scenario->vantage_restart_hour, 16U);
  const auto impair = scenario->delta_impairment();
  ASSERT_TRUE(impair.has_value());
  EXPECT_EQ(impair->seed, 99U);
  EXPECT_EQ(impair->drop, 0.1);
  EXPECT_EQ(impair->duplicate, 0.05);
  EXPECT_EQ(impair->reorder, 0.02);
  EXPECT_EQ(impair->truncate, 0.01);

  // No delta_* keys → pristine channel; bad probability → parse error.
  std::istringstream plain{"vantage_collectors 2\n"};
  const auto bare = simnet::parse_scenario(plain);
  ASSERT_TRUE(bare.has_value());
  EXPECT_FALSE(bare->delta_impairment().has_value());
  std::istringstream bad{"delta_drop 1.5\n"};
  EXPECT_FALSE(simnet::parse_scenario(bad).has_value());
  std::istringstream zero{"vantage_collectors 0\n"};
  EXPECT_FALSE(simnet::parse_scenario(zero).has_value());
}

TEST(VantageScenario, EndToEndRunnerDrains) {
  std::istringstream text{R"(
lines 1500
seed 11
vantage_collectors 3
delta_drop 0.1
delta_duplicate 0.05
ack_loss 0.1
)"};
  const auto scenario = simnet::parse_scenario(text);
  ASSERT_TRUE(scenario.has_value());
  pipeline::VantageReplayConfig cfg;
  cfg.hours = 6;
  cfg.capture_observability = true;
  std::string err;
  const auto result = pipeline::replay_scenario_vantage(*scenario, cfg, &err);
  ASSERT_TRUE(result.has_value()) << err;
  EXPECT_TRUE(result->drained);
  EXPECT_EQ(result->merged_through, std::optional<util::HourBin>{5});
  EXPECT_GT(result->observations, 0U);
  EXPECT_GT(result->datagrams, 0U);
  EXPECT_GT(result->counters.epochs_sealed, 0U);
  EXPECT_NE(result->metrics_prometheus.find("vantage_epochs_sealed_total"),
            std::string::npos);
}

}  // namespace
}  // namespace haystack::vantage
