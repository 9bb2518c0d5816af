// Live control plane suite (ISSUE 8).
//
// The differential core: a DetectionSnapshot taken from fresh views of a
// running ShardedDetector — with NO drain() anywhere on the read path —
// must answer bit-for-bit identically to one single-process Detector fed
// the identical stream, across shard counts {1, 4, 16}: evidence rows,
// detection hours, loss-aware verdicts (including the ruleset_version
// tag), throughput counters, and the Fig. 12-style drill-downs.
//
// Satellites pinned here:
//   - published-epoch consistency: per-shard epochs, versions, and
//     observation counts are monotone under full ingest, views are
//     internally consistent (never torn), and ViewHub epoch regressions
//     stay zero;
//   - hot-reload cutover: verdicts rendered before the reload carry the
//     old version id, verdicts after carry the new one, evaluation
//     semantics actually switch at the boundary, and no answer ever
//     mixes requirements from two versions;
//   - the sustained soak: queries (live + fresh), reloads, and threshold
//     alerts all running against 8 shards at full ingest rate (the TSan
//     workload for `ctest -L serve`);
//   - AlertEngine kind-by-kind unit semantics and the flight-recorder /
//     source-tag wiring;
//   - vantage tier: Aggregator::live() is merge-prefix-consistent
//     mid-epoch, equals the post-seal answer once the barrier closes,
//     and never blocks a reader across collector kill/restart, failed
//     restore, and clear().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "core/rule_version.hpp"
#include "core/sharded_detector.hpp"
#include "serve/control.hpp"
#include "util/rng.hpp"
#include "util/shared_slot.hpp"
#include "vantage/fleet.hpp"

namespace haystack::serve {
namespace {

using core::Evidence;
using core::Observation;
using core::ServiceId;
using core::SubscriberKey;

constexpr unsigned kHours = 48;

struct TestScenario {
  core::RuleSet rules;
  core::DetectorConfig config;
  std::vector<std::vector<Observation>> stream;  ///< index == hour
  SubscriberKey subscriber_pool = 0;
};

net::IpAddress service_ip(ServiceId s, std::uint16_t m) {
  return net::IpAddress::v4(0x0A000000U | (std::uint32_t{s} << 16) | m);
}

// Randomized rule universe + hour-bucketed observation stream; everything
// derives from `seed` (same recipe as tests/differential_test.cpp and
// tests/vantage_test.cpp, so failures cross-reference).
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

using EvidenceRow =
    std::tuple<SubscriberKey, ServiceId, std::uint64_t, std::uint64_t,
               std::uint16_t, std::uint64_t, util::HourBin, util::HourBin>;

template <typename T>
std::vector<EvidenceRow> evidence_rows(const T& holder) {
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

void expect_verdicts_match(const DetectionSnapshot& snap,
                           const core::Detector& baseline,
                           const TestScenario& sc, const char* what) {
  for (SubscriberKey sub = 1; sub <= sc.subscriber_pool; ++sub) {
    for (const auto& rule : sc.rules.rules) {
      const core::Verdict got = snap.verdict(sub, rule.service);
      const core::Verdict want = baseline.verdict(sub, rule.service);
      ASSERT_EQ(got.detected, want.detected)
          << what << " sub=" << sub << " svc=" << rule.service;
      ASSERT_EQ(got.confidence, want.confidence)
          << what << " sub=" << sub << " svc=" << rule.service;
      ASSERT_EQ(got.hour, want.hour)
          << what << " sub=" << sub << " svc=" << rule.service;
      ASSERT_EQ(got.ruleset_version, want.ruleset_version)
          << what << " sub=" << sub << " svc=" << rule.service;
    }
  }
}

// --- the differential core -------------------------------------------------

class ServeDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

// A fresh snapshot of a streaming ShardedDetector — taken while the
// detector is live, with no drain() call anywhere — must equal the
// single-process drained-synchronous pass bit for bit, for any shard
// count. The deprecated drain-on-read accessors are gone; detected()/
// verdict()/stats()/for_each_evidence on the detector itself must give
// the same answers through the snapshot layer.
TEST_P(ServeDifferentialTest, SnapshotMatchesDrainedSyncAcrossShardCounts) {
  const TestScenario sc = make_scenario(GetParam());
  const core::Detector baseline = run_baseline(sc);
  const auto baseline_rows = evidence_rows(baseline);
  const auto baseline_map = detection_map(baseline, sc);

  for (const unsigned shards : {1U, 4U, 16U}) {
    const std::string what = "shards=" + std::to_string(shards);
    core::ShardedDetector det{sc.rules.hitlist, sc.rules, sc.config, shards,
                              /*queue_capacity=*/64};
    for (util::HourBin h = 0; h < sc.stream.size(); ++h) {
      det.enqueue_batch(sc.stream[h]);
    }

    // Snapshot layer, not drain: fresh views ride publish tokens only.
    const DetectionSnapshot snap{det.fresh_views()};
    EXPECT_EQ(evidence_rows(snap), baseline_rows) << what;
    EXPECT_EQ(detection_map(snap, sc), baseline_map) << what;
    expect_verdicts_match(snap, baseline, sc, what.c_str());
    EXPECT_EQ(snap.stats().flows, baseline.stats().flows) << what;
    EXPECT_EQ(snap.stats().matched, baseline.stats().matched) << what;
    EXPECT_EQ(snap.satisfied(), baseline.satisfied_total()) << what;
    EXPECT_EQ(snap.min_ruleset_version(), 1U) << what;
    EXPECT_EQ(snap.max_ruleset_version(), 1U) << what;

    // The detector's own read accessors route through the same layer.
    EXPECT_EQ(evidence_rows(det), baseline_rows) << what;
    EXPECT_EQ(detection_map(det, sc), baseline_map) << what;
    EXPECT_EQ(det.stats().flows, baseline.stats().flows) << what;
    EXPECT_EQ(det.view_hub().epoch_regressions(), 0U) << what;

    // Fig. 12 drill-down: per-service detected counts equal the baseline
    // census; heavy-hitter rank 1 carries the true maximum.
    std::map<ServiceId, std::uint64_t> expected_detected;
    std::map<SubscriberKey, std::uint32_t> per_sub;
    for (const auto& [key, hour] : baseline_map) {
      if (!hour) continue;
      ++expected_detected[key.second];
      ++per_sub[key.first];
    }
    std::uint64_t census_total = 0;
    for (const auto& row : snap.service_counts()) {
      EXPECT_EQ(row.detected_subscribers, expected_detected[row.service])
          << what << " svc=" << row.service;
      census_total += row.detected_subscribers;
    }
    std::uint64_t baseline_total = 0;
    for (const auto& [svc, n] : expected_detected) baseline_total += n;
    EXPECT_EQ(census_total, baseline_total) << what;
    if (!per_sub.empty()) {
      std::uint32_t max_services = 0;
      for (const auto& [sub, n] : per_sub) {
        max_services = std::max(max_services, n);
      }
      const auto top = snap.heavy_hitters(1);
      ASSERT_EQ(top.size(), 1U) << what;
      EXPECT_EQ(top[0].detected_services, max_services) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ServeDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 8));

// A snapshot is a value: one taken before ingest keeps answering from its
// epoch-0 views no matter how much traffic lands afterwards.
TEST(ServeSnapshot, SnapshotsAreImmutableValues) {
  const TestScenario sc = make_scenario(3);
  core::ShardedDetector det{sc.rules.hitlist, sc.rules, sc.config, 4};
  const DetectionSnapshot before{det.live_views()};
  EXPECT_EQ(before.observations(), 0U);
  EXPECT_TRUE(evidence_rows(before).empty());

  for (util::HourBin h = 0; h < sc.stream.size(); ++h) {
    det.enqueue_batch(sc.stream[h]);
  }
  const DetectionSnapshot after{det.fresh_views()};
  EXPECT_GT(after.observations(), 0U);
  EXPECT_FALSE(evidence_rows(after).empty());

  // The old snapshot is untouched: still epoch 0, still empty.
  EXPECT_EQ(before.observations(), 0U);
  EXPECT_TRUE(evidence_rows(before).empty());
  for (const auto e : before.epochs()) EXPECT_EQ(e, 0U);
}

// --- published-epoch consistency (property tests) --------------------------

// Under full ingest, a concurrent reader must see per-shard epochs,
// versions, and observation counts move monotonically, and every view it
// grabs must be internally consistent — the satisfied counter equals the
// number of satisfied evidence rows in the same view (a torn read could
// not keep them equal).
TEST(ServeProperty, EpochsMonotoneAndViewsNeverTorn) {
  const TestScenario sc = make_scenario(5);
  constexpr unsigned kShards = 8;
  core::ShardedDetector det{sc.rules.hitlist, sc.rules, sc.config, kShards,
                            /*queue_capacity=*/256, nullptr,
                            {.auto_publish_observations = 1000}};

  // The reader overlaps the ingest by construction: ingest starts after
  // the reader's first completed iteration and ends only after the reader
  // has completed one more once the last pass is enqueued.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> iterations{0};
  const auto await_iteration_after = [&iterations](std::uint64_t seen) {
    while (iterations.load(std::memory_order_acquire) <= seen) {
      std::this_thread::yield();
    }
  };
  std::thread ingest{[&] {
    await_iteration_after(0);
    for (int pass = 0; pass < 4; ++pass) {
      for (util::HourBin h = 0; h < sc.stream.size(); ++h) {
        det.enqueue_batch(sc.stream[h]);
      }
    }
    await_iteration_after(iterations.load(std::memory_order_acquire));
    done.store(true, std::memory_order_release);
  }};

  std::vector<std::uint64_t> last_epoch(kShards, 0);
  std::vector<std::uint64_t> last_obs(kShards, 0);
  std::vector<std::uint64_t> last_version(kShards, 0);
  while (!done.load(std::memory_order_acquire)) {
    const auto views = det.live_views();
    ASSERT_EQ(views.size(), kShards);
    for (unsigned s = 0; s < kShards; ++s) {
      const auto& v = *views[s];
      ASSERT_EQ(v.shard, s);
      ASSERT_GE(v.epoch, last_epoch[s]);
      ASSERT_GE(v.observations, last_obs[s]);
      ASSERT_GE(v.ruleset_version, last_version[s]);
      if (v.epoch > 0) {
        ASSERT_NE(v.compiled, nullptr);
        ASSERT_EQ(v.compiled->id, v.ruleset_version);
        std::uint64_t satisfied_rows = 0;
        v.evidence.for_each([&](SubscriberKey, ServiceId,
                                const Evidence& ev) {
          satisfied_rows += ev.satisfied_hour() != Evidence::kNever ? 1U : 0U;
        });
        ASSERT_EQ(satisfied_rows, v.satisfied)
            << "torn view: shard " << s << " epoch " << v.epoch;
      }
      last_epoch[s] = v.epoch;
      last_obs[s] = v.observations;
      last_version[s] = v.ruleset_version;
    }
    iterations.fetch_add(1, std::memory_order_release);
  }
  ingest.join();
  EXPECT_GT(iterations.load(), 0U);
  EXPECT_EQ(det.view_hub().epoch_regressions(), 0U);
  EXPECT_EQ(det.cutover_regressions(), 0U);

  // And the final fresh snapshot still equals the sequential replay of
  // the 4x-repeated stream (packets accumulate; masks idempotent).
  TestScenario repeated = sc;
  for (auto& hour : repeated.stream) {
    const auto once = hour;
    for (int extra = 1; extra < 4; ++extra) {
      hour.insert(hour.end(), once.begin(), once.end());
    }
  }
  const core::Detector baseline = run_baseline(repeated);
  const DetectionSnapshot snap{det.fresh_views()};
  EXPECT_EQ(evidence_rows(snap), evidence_rows(baseline));
  EXPECT_EQ(snap.satisfied(), baseline.satisfied_total());
}

// --- hot-reload cutover ----------------------------------------------------

// Deterministic cutover semantics on a hand-built one-service rule set:
// threshold 1.0 requires all 4 monitored domains, the reload drops the
// requirement to 1. Verdicts rendered before the reload are tagged v1,
// after it v2; evaluation genuinely switches (the same evidence that was
// insufficient under v1 satisfies under v2 once the next observation is
// applied under the new version).
TEST(ServeReload, CutoverRetagsAndChangesEvaluation) {
  core::RuleSet rules;
  core::DetectionRule rule;
  rule.service = 0;
  rule.name = "svc0";
  rule.level = core::Level::kManufacturer;
  rule.monitored_domains = 4;
  for (std::uint16_t m = 0; m < 4; ++m) rule.monitored_indices.push_back(m);
  rules.rules.push_back(rule);
  for (std::uint16_t m = 0; m < 4; ++m) {
    for (util::DayBin day = 0; day < 2; ++day) {
      rules.hitlist.add(service_ip(0, m), 443, day, {0, m});
    }
  }
  const SubscriberKey sub = 7;

  core::ShardedDetector det{rules.hitlist, rules, {.threshold = 1.0}, 4};
  det.enqueue_batch(std::vector<Observation>{
      {sub, service_ip(0, 0), 443, 3, 0}});

  core::Verdict v = det.verdict(sub, 0);
  EXPECT_FALSE(v.detected);
  EXPECT_EQ(v.ruleset_version, 1U);
  EXPECT_EQ(det.current_version()->id, 1U);

  // Hot-reload: same rules, threshold 0.25 => one domain suffices.
  const auto reloaded = std::make_shared<const core::RuleSet>(rules);
  const std::uint64_t id = det.reload_rules(reloaded, {.threshold = 0.25});
  EXPECT_EQ(id, 2U);
  EXPECT_EQ(det.current_version()->id, 2U);

  // The cutover republishes every shard even with no traffic: a snapshot
  // reports the new version uniformly.
  const DetectionSnapshot cut{det.fresh_views()};
  EXPECT_EQ(cut.min_ruleset_version(), 2U);
  EXPECT_EQ(cut.max_ruleset_version(), 2U);

  // The old single-domain evidence was never stamped under v1 and a
  // reload does not rewrite history: still undetected, but now tagged v2.
  v = det.verdict(sub, 0);
  EXPECT_FALSE(v.detected);
  EXPECT_EQ(v.ruleset_version, 2U);

  // The next observation applies under v2's relaxed requirement.
  det.enqueue_batch(std::vector<Observation>{
      {sub, service_ip(0, 1), 443, 2, 1}});
  v = det.verdict(sub, 0);
  EXPECT_TRUE(v.detected);
  EXPECT_EQ(v.hour, std::optional<util::HourBin>{1});
  EXPECT_EQ(v.ruleset_version, 2U);
  EXPECT_EQ(det.cutover_regressions(), 0U);

  // config()/rules() follow the current version.
  EXPECT_DOUBLE_EQ(det.config().threshold, 0.25);
}

// Concurrent reloads serialize by version id: the highest id wins the
// producer side and every shard converges to it.
TEST(ServeReload, ConcurrentReloadsConvergeToHighestVersion) {
  const TestScenario sc = make_scenario(2);
  core::ShardedDetector det{sc.rules.hitlist, sc.rules, sc.config, 4};
  const auto shared_rules = std::make_shared<const core::RuleSet>(sc.rules);

  std::vector<std::thread> admins;
  for (int t = 0; t < 4; ++t) {
    admins.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        det.reload_rules(shared_rules,
                         {.threshold = 0.3 + 0.1 * (t % 3)});
      }
    });
  }
  for (auto& a : admins) a.join();

  // 4 threads x 8 reloads after construction-time v1.
  EXPECT_EQ(det.current_version()->id, 33U);
  const DetectionSnapshot snap{det.fresh_views()};
  EXPECT_EQ(snap.min_ruleset_version(), 33U);
  EXPECT_EQ(snap.max_ruleset_version(), 33U);
  EXPECT_EQ(det.cutover_regressions(), 0U);
}

// --- the sustained soak (queries + reloads + alerts under full ingest) -----

// The acceptance soak: 8 shards at full ingest rate while one thread
// hammers live and fresh snapshots, another cycles rule hot-reloads, and
// the alert engine rides every publication. Every answer must be tagged
// with exactly one version (never a mix), per-shard versions must be
// monotone, and the run must end with zero cutover/epoch regressions and
// at least one new-detection alert (each pass plants a fresh "beacon"
// subscriber that fully covers service 0).
TEST(ServeSoak, QueriesReloadsAlertsUnderFullIngest) {
  const TestScenario sc = make_scenario(1);
  constexpr unsigned kShards = 8;
  constexpr int kPasses = 6;
  obs::Observability obs;
  core::ShardedDetector det{sc.rules.hitlist, sc.rules,
                            {.threshold = 0.4},  kShards,
                            /*queue_capacity=*/256, &obs,
                            {.auto_publish_observations = 1000}};
  ControlPlane control{det, {.min_new_detections = 1}, &obs};
  const auto shared_rules = std::make_shared<const core::RuleSet>(sc.rules);
  const std::uint16_t beacon_domains = sc.rules.rules[0].monitored_domains;

  std::atomic<bool> done{false};
  std::thread ingest{[&] {
    std::vector<Observation> beacon;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (util::HourBin h = 0; h < sc.stream.size(); ++h) {
        det.enqueue_batch(sc.stream[h]);
      }
      // One brand-new subscriber per pass covers every monitored domain
      // of service 0 -> a guaranteed coverage-met transition.
      beacon.clear();
      const SubscriberKey sub = 1'000'000 + static_cast<SubscriberKey>(pass);
      for (std::uint16_t m = 0; m < beacon_domains; ++m) {
        beacon.push_back({sub, service_ip(0, m), 443, 1,
                          static_cast<util::HourBin>(pass % kHours)});
      }
      det.enqueue_batch(beacon);
    }
    done.store(true, std::memory_order_release);
  }};

  // Both control-plane loops run at least a handful of iterations even if
  // ingest outruns them (the stream is small; the TSan build is not).
  std::thread admin{[&] {
    int i = 0;
    while (i < 4 || !done.load(std::memory_order_acquire)) {
      control.reload(shared_rules,
                     {.threshold = (i++ % 2) == 0 ? 0.4 : 0.6});
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }};

  std::vector<std::uint64_t> last_version(kShards, 0);
  std::uint64_t fresh_queries = 0;
  while (fresh_queries < 8 || !done.load(std::memory_order_acquire)) {
    const bool fresh = (fresh_queries++ % 4) == 0;
    const DetectionSnapshot snap =
        fresh ? control.fresh_snapshot() : control.snapshot();
    ASSERT_LE(snap.min_ruleset_version(), snap.max_ruleset_version());
    for (unsigned s = 0; s < kShards; ++s) {
      const auto& view = snap.view(s);
      ASSERT_GE(view.ruleset_version, last_version[s]);
      last_version[s] = view.ruleset_version;
    }
    // No mixed-version answers: a verdict carries exactly the version of
    // the one view that rendered it.
    for (SubscriberKey sub = 1; sub <= 16; ++sub) {
      const core::Verdict v = snap.verdict(sub, 0);
      ASSERT_EQ(v.ruleset_version,
                snap.view(det.owner_shard(sub)).ruleset_version);
    }
    static_cast<void>(snap.service_counts());
    static_cast<void>(snap.heavy_hitters(4));
  }
  ingest.join();
  admin.join();

  EXPECT_EQ(det.cutover_regressions(), 0U);
  EXPECT_EQ(det.view_hub().epoch_regressions(), 0U);
  EXPECT_GT(control.queries_served(), 0U);
  EXPECT_GT(control.reloads_applied(), 0U);
  EXPECT_GE(control.alerts().new_detection_alerts(), 1U);

  // After the dust settles every shard is on the final version.
  const DetectionSnapshot final_snap = control.fresh_snapshot();
  EXPECT_EQ(final_snap.min_ruleset_version(),
            final_snap.max_ruleset_version());
  EXPECT_EQ(final_snap.max_ruleset_version(), det.current_version()->id);

  // Alert events rode the flight recorder with the serve source tag.
  bool saw_alert_event = false;
  for (const auto& e : obs.recorder.dump()) {
    if (e.kind != obs::EventKind::kAlertNewDetection) continue;
    saw_alert_event = true;
    EXPECT_EQ(e.source >> 24U, std::uint32_t{'q'});
    EXPECT_LT(e.source & 0x00ffffffU, kShards);
  }
  EXPECT_TRUE(saw_alert_event);
}

// --- AlertEngine unit semantics --------------------------------------------

core::ShardView make_view(unsigned shard, std::uint64_t epoch,
                          std::uint64_t satisfied, double loss,
                          bool degraded) {
  core::ShardView v;
  v.shard = shard;
  v.epoch = epoch;
  v.satisfied = satisfied;
  v.ruleset_version = 1;
  v.observed_loss = loss;
  v.degraded = degraded;
  return v;
}

TEST(ServeAlerts, EngineRaisesEachKindOnItsEdge) {
  obs::Observability obs;
  AlertEngine engine{{.min_new_detections = 2, .loss_spike_delta = 0.05},
                     &obs};

  // First publication has no predecessor delta to alert on.
  const auto first = make_view(3, 1, 5, 0.0, false);
  engine.on_publish(nullptr, first);
  EXPECT_EQ(engine.total_alerts(), 0U);

  // +1 detection: below min_new_detections.
  const auto small = make_view(3, 2, 6, 0.0, false);
  engine.on_publish(&first, small);
  EXPECT_EQ(engine.new_detection_alerts(), 0U);

  // +2 detections: fires.
  const auto big = make_view(3, 3, 8, 0.0, false);
  engine.on_publish(&small, big);
  EXPECT_EQ(engine.new_detection_alerts(), 1U);

  // Loss creeps under the spike delta: quiet. Jumps past it: fires.
  const auto creep = make_view(3, 4, 8, 0.04, false);
  engine.on_publish(&big, creep);
  EXPECT_EQ(engine.loss_spike_alerts(), 0U);
  const auto spike = make_view(3, 5, 8, 0.12, false);
  engine.on_publish(&creep, spike);
  EXPECT_EQ(engine.loss_spike_alerts(), 1U);

  // Degraded edge fires once; staying degraded does not re-fire.
  const auto degraded = make_view(3, 6, 8, 0.12, true);
  engine.on_publish(&spike, degraded);
  EXPECT_EQ(engine.confidence_degraded_alerts(), 1U);
  const auto still = make_view(3, 7, 8, 0.12, true);
  engine.on_publish(&degraded, still);
  EXPECT_EQ(engine.confidence_degraded_alerts(), 1U);

  EXPECT_EQ(engine.total_alerts(), 3U);

  // Every event carries the serve source tag for shard 3.
  std::size_t alert_events = 0;
  for (const auto& e : obs.recorder.dump()) {
    if (e.kind != obs::EventKind::kAlertNewDetection &&
        e.kind != obs::EventKind::kAlertConfidenceDegraded &&
        e.kind != obs::EventKind::kAlertLossSpike) {
      continue;
    }
    ++alert_events;
    EXPECT_EQ(e.source, alert_source(3));
  }
  EXPECT_EQ(alert_events, 3U);
}

TEST(ServeAlerts, NullObservabilityStillCountsTotals) {
  AlertEngine engine{{.min_new_detections = 1}};
  const auto a = make_view(0, 1, 0, 0.0, false);
  const auto b = make_view(0, 2, 4, 0.0, false);
  engine.on_publish(&a, b);
  EXPECT_EQ(engine.new_detection_alerts(), 1U);
}

// --- ViewHub unit semantics ------------------------------------------------

TEST(ServeViewHub, SeedsEmptyViewsAndKeepsEpochsMonotone) {
  core::ViewHub hub{2};
  for (unsigned s = 0; s < 2; ++s) {
    const auto v = hub.view(s);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->shard, s);
    EXPECT_EQ(v->epoch, 0U);
  }

  auto v5 = std::make_shared<core::ShardView>(make_view(0, 5, 0, 0.0, false));
  hub.publish(v5);
  EXPECT_EQ(hub.view(0)->epoch, 5U);

  // A regression is counted and dropped; the published view survives.
  hub.publish(std::make_shared<core::ShardView>(
      make_view(0, 4, 0, 0.0, false)));
  EXPECT_EQ(hub.view(0)->epoch, 5U);
  EXPECT_EQ(hub.epoch_regressions(), 1U);

  // Equal-epoch republish is allowed (rule cutovers re-seed at the same
  // epoch) and does not count as a regression.
  auto v5b = std::make_shared<core::ShardView>(make_view(0, 5, 9, 0.0, false));
  hub.publish(v5b);
  EXPECT_EQ(hub.view(0)->satisfied, 9U);
  EXPECT_EQ(hub.epoch_regressions(), 1U);

  // Shard 1 is independent.
  EXPECT_EQ(hub.view(1)->epoch, 0U);
}

TEST(ServeViewHub, WaitEpochWakesWhenTargetPublishes) {
  core::ViewHub hub{1};
  std::atomic<bool> woke{false};
  std::thread waiter{[&] {
    hub.wait_epoch(0, 3);
    woke.store(true, std::memory_order_release);
  }};
  hub.publish(std::make_shared<core::ShardView>(
      make_view(0, 1, 0, 0.0, false)));
  hub.publish(std::make_shared<core::ShardView>(
      make_view(0, 3, 0, 0.0, false)));
  waiter.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
  // Already-satisfied targets return immediately.
  hub.wait_epoch(0, 2);
}

// --- vantage tier: aggregator live snapshots -------------------------------

using vantage::Aggregator;
using vantage::AggregatorConfig;
using vantage::Collector;
using vantage::CollectorConfig;
using vantage::Fleet;
using vantage::FleetConfig;

// Mid-epoch offers must never surface through live(): the snapshot only
// ever advances when the barrier seals, so a reader sees state as of a
// sealed epoch — never a half-merged one.
TEST(ServeVantage, LiveSnapshotIsMergePrefixConsistent) {
  const TestScenario sc = make_scenario(4);
  AggregatorConfig acfg;
  acfg.detector = sc.config;
  CollectorConfig c0cfg;
  c0cfg.id = 0;
  c0cfg.detector = sc.config;
  CollectorConfig c1cfg = c0cfg;
  c1cfg.id = 1;
  Collector c0{sc.rules.hitlist, sc.rules, c0cfg};
  Collector c1{sc.rules.hitlist, sc.rules, c1cfg};

  Aggregator agg{sc.rules.hitlist, sc.rules, acfg};
  agg.add_collector(0, 0);
  agg.add_collector(1, 0);

  for (const Observation& obs : sc.stream[0]) {
    ((obs.subscriber % 2 == 0) ? c0 : c1).ingest(obs);
  }
  const auto d0 = c0.seal_epoch(0);
  const auto d1 = c1.seal_epoch(0);

  const auto before = agg.live();
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->merged_through, std::nullopt);
  EXPECT_EQ(before->epochs_sealed, 0U);

  // Half the epoch lands: staged, not sealed — live() must not move.
  ASSERT_TRUE(agg.offer(d0).accepted);
  const auto mid = agg.live();
  EXPECT_EQ(mid->merged_through, std::nullopt);
  EXPECT_EQ(mid->epochs_sealed, 0U);
  std::size_t mid_rows = 0;
  mid->evidence.for_each(
      [&](SubscriberKey, ServiceId, const Evidence&) { ++mid_rows; });
  EXPECT_EQ(mid_rows, 0U);

  // The second delta closes the barrier: live() now equals the locked
  // query surface exactly.
  ASSERT_TRUE(agg.offer(d1).accepted);
  const auto sealed = agg.live();
  EXPECT_EQ(sealed->merged_through, std::optional<util::HourBin>{0});
  EXPECT_EQ(sealed->epochs_sealed, 1U);
  EXPECT_EQ(sealed->merged_through, agg.merged_through());
  std::vector<EvidenceRow> live_rows;
  sealed->evidence.for_each(
      [&](SubscriberKey sub, ServiceId svc, const Evidence& ev) {
        live_rows.emplace_back(sub, svc, ev.mask(0), ev.mask(1), ev.distinct(),
                               ev.packets(), ev.first_seen(), ev.satisfied_hour());
      });
  std::sort(live_rows.begin(), live_rows.end());
  EXPECT_EQ(live_rows, evidence_rows(agg));
  EXPECT_EQ(sealed->stats.flows, agg.stats().flows);

  // The mid-epoch snapshot a reader may still hold is untouched.
  EXPECT_EQ(mid->epochs_sealed, 0U);

  // Failed restore honors the cleared-on-failed-restore contract on the
  // live surface too.
  const std::vector<std::uint8_t> garbage{0xde, 0xad, 0xbe, 0xef};
  EXPECT_FALSE(agg.restore(garbage));
  const auto cleared = agg.live();
  EXPECT_EQ(cleared->merged_through, std::nullopt);
  std::size_t cleared_rows = 0;
  cleared->evidence.for_each(
      [&](SubscriberKey, ServiceId, const Evidence&) { ++cleared_rows; });
  EXPECT_EQ(cleared_rows, 0U);
  // ...and the sealed snapshot taken before the wipe still answers.
  EXPECT_EQ(sealed->epochs_sealed, 1U);
}

// A reader spinning on live() across a scripted collector kill/restart
// study is never blocked and only ever sees the sealed prefix advance;
// the final snapshot equals the single-process baseline bit for bit.
TEST(ServeVantage, KillRestartNeverBlocksLiveReader) {
  const TestScenario sc = make_scenario(6);
  FleetConfig fcfg;
  fcfg.collectors = 4;
  fcfg.detector = sc.config;
  fcfg.seed = 6;
  fcfg.kill_collector = 2;
  fcfg.kill_hour = 12;
  fcfg.restart_hour = 30;
  Fleet fleet{sc.rules.hitlist, sc.rules, fcfg};

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader{[&] {
    std::uint64_t last_sealed = 0;
    std::optional<util::HourBin> last_through;
    do {  // at least one read even if the study outruns this thread
      const auto s = fleet.aggregator().live();
      ASSERT_NE(s, nullptr);
      ASSERT_GE(s->epochs_sealed, last_sealed);
      if (last_through && s->merged_through) {
        ASSERT_GE(*s->merged_through, *last_through);
      }
      last_sealed = s->epochs_sealed;
      last_through = s->merged_through;
      reads.fetch_add(1, std::memory_order_relaxed);
    } while (!done.load(std::memory_order_acquire));
  }};

  for (util::HourBin h = 0; h < sc.stream.size(); ++h) {
    fleet.process_hour(h, sc.stream[h]);
  }
  ASSERT_TRUE(fleet.finish());
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads.load(), 0U);

  const core::Detector baseline = run_baseline(sc);
  const auto live = fleet.aggregator().live();
  EXPECT_EQ(live->merged_through, std::optional<util::HourBin>{kHours - 1});
  std::vector<EvidenceRow> rows;
  live->evidence.for_each(
      [&](SubscriberKey sub, ServiceId svc, const Evidence& ev) {
        rows.emplace_back(sub, svc, ev.mask(0), ev.mask(1), ev.distinct(),
                          ev.packets(), ev.first_seen(), ev.satisfied_hour());
      });
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, evidence_rows(baseline));
  EXPECT_EQ(detection_map(*live, sc), detection_map(baseline, sc));

  // clear() publishes an empty snapshot; held ones stay valid.
  fleet.aggregator().clear();
  const auto empty = fleet.aggregator().live();
  std::size_t empty_rows = 0;
  empty->evidence.for_each(
      [&](SubscriberKey, ServiceId, const Evidence&) { ++empty_rows; });
  EXPECT_EQ(empty_rows, 0U);
  EXPECT_EQ(empty->merged_through, std::nullopt);
  EXPECT_EQ(live->merged_through, std::optional<util::HourBin>{kHours - 1});
}


// ---------------------------------------------------------------------------
// util::SharedSlot — the TSan-clean published-pointer slot under the
// ViewHub, the compiled-rule version, and the aggregator LiveSnapshot.
// ---------------------------------------------------------------------------

TEST(ServeSharedSlot, LoadStoreRoundTripAndRetiredValueReleased) {
  util::SharedSlot<const int> slot;
  EXPECT_EQ(slot.load(), nullptr);

  auto a = std::make_shared<const int>(7);
  slot.store(a);
  EXPECT_EQ(*slot.load(), 7);
  EXPECT_EQ(a.use_count(), 2);  // slot + local

  slot.store(std::make_shared<const int>(9));
  EXPECT_EQ(*slot.load(), 9);
  EXPECT_EQ(a.use_count(), 1);  // retired value dropped by the slot
}

TEST(ServeSharedSlot, ConcurrentReadersAlwaysSeeAPublishedValue) {
  util::SharedSlot<const std::uint64_t> slot{
      std::make_shared<const std::uint64_t>(0)};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      do {
        const auto p = slot.load();
        ASSERT_NE(p, nullptr);
        // Writers publish increasing values; a reader may see repeats but
        // never travel backwards (single writer, one slot).
        EXPECT_GE(*p, last);
        last = *p;
        reads.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }
  for (std::uint64_t v = 1; v <= 2000; ++v) {
    slot.store(std::make_shared<const std::uint64_t>(v));
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(reads.load(), 0U);
  EXPECT_EQ(*slot.load(), 2000U);
}

}  // namespace
}  // namespace haystack::serve
