// Tests for the sharded detector: equivalence with the single-shard
// detector on identical input, shard routing stability, and batch
// processing under concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/sharded_detector.hpp"
#include "simnet/backend.hpp"
#include "simnet/manual_analysis.hpp"
#include "simnet/population.hpp"
#include "simnet/wild_isp.hpp"

namespace haystack::core {
namespace {

class ShardedDetectorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new simnet::Catalog();
    backend_ = new simnet::Backend(*catalog_, simnet::BackendConfig{});
    rules_ = new RuleSet(simnet::build_ruleset(*backend_));

    // One wild day of observations as a reusable batch.
    simnet::Population population{*catalog_, {.lines = 20'000}};
    simnet::DomainRateModel rates{*catalog_, 7};
    simnet::WildIspSim wild{*backend_, population, rates,
                            simnet::WildIspConfig{}};
    batch_ = new std::vector<Observation>();
    for (util::HourBin h = 0; h < 24; ++h) {
      wild.hour_observations(h, [&](const simnet::WildObs& o) {
        batch_->push_back({o.line, o.flow.key.dst, o.flow.key.dst_port,
                           o.flow.packets, h});
      });
    }
  }
  static void TearDownTestSuite() {
    delete batch_;
    delete rules_;
    delete backend_;
    delete catalog_;
  }

  static simnet::Catalog* catalog_;
  static simnet::Backend* backend_;
  static RuleSet* rules_;
  static std::vector<Observation>* batch_;
};

simnet::Catalog* ShardedDetectorTest::catalog_ = nullptr;
simnet::Backend* ShardedDetectorTest::backend_ = nullptr;
RuleSet* ShardedDetectorTest::rules_ = nullptr;
std::vector<Observation>* ShardedDetectorTest::batch_ = nullptr;

TEST_F(ShardedDetectorTest, ParallelMatchesSequential) {
  ShardedDetector one{rules_->hitlist, *rules_, {.threshold = 0.4}, 1};
  ShardedDetector eight{rules_->hitlist, *rules_, {.threshold = 0.4}, 8};
  one.process_batch(*batch_);
  eight.process_batch(*batch_);

  EXPECT_EQ(one.stats().flows, eight.stats().flows);
  EXPECT_EQ(one.stats().matched, eight.stats().matched);

  // Identical detection verdicts and hours for every subscriber/service.
  std::size_t compared = 0;
  one.for_each_evidence([&](SubscriberKey s, ServiceId sv,
                            const Evidence& ev) {
    ++compared;
    EXPECT_EQ(one.detected(s, sv), eight.detected(s, sv));
    EXPECT_EQ(one.detection_hour(s, sv), eight.detection_hour(s, sv));
    (void)ev;
  });
  EXPECT_GT(compared, 1000u);

  std::size_t count_one = 0;
  std::size_t count_eight = 0;
  one.for_each_evidence(
      [&](SubscriberKey, ServiceId, const Evidence&) { ++count_one; });
  eight.for_each_evidence(
      [&](SubscriberKey, ServiceId, const Evidence&) { ++count_eight; });
  EXPECT_EQ(count_one, count_eight);
}

// Full per-subscriber evidence state as a sortable value, so two detectors
// can be compared bit for bit rather than through sampled queries.
using EvidenceRow =
    std::tuple<SubscriberKey, ServiceId, std::uint64_t, std::uint64_t,
               std::uint16_t, std::uint64_t, util::HourBin, util::HourBin>;

std::vector<EvidenceRow> snapshot(const ShardedDetector& det) {
  std::vector<EvidenceRow> rows;
  det.for_each_evidence(
      [&](SubscriberKey s, ServiceId sv, const Evidence& ev) {
        rows.emplace_back(s, sv, ev.mask(0), ev.mask(1), ev.distinct(),
                          ev.packets(), ev.first_seen(), ev.satisfied_hour());
      });
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST_F(ShardedDetectorTest, ObserveMatchesProcessBatch) {
  // Streaming observations one at a time and processing them as one batch
  // must land in the identical evidence state.
  ShardedDetector streamed{rules_->hitlist, *rules_, {.threshold = 0.4}, 4};
  ShardedDetector batched{rules_->hitlist, *rules_, {.threshold = 0.4}, 4};
  for (const auto& obs : *batch_) streamed.observe(obs);
  batched.process_batch(*batch_);

  EXPECT_EQ(streamed.stats().flows, batched.stats().flows);
  EXPECT_EQ(streamed.stats().matched, batched.stats().matched);
  const auto a = snapshot(streamed);
  const auto b = snapshot(batched);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST_F(ShardedDetectorTest, DeterministicAcrossShardCounts) {
  // The shard count is a throughput knob, never an accuracy knob: every
  // shard count must produce the same evidence bits, and repeated runs at
  // the same count must be byte-identical (thread scheduling invisible).
  ShardedDetector baseline{rules_->hitlist, *rules_, {.threshold = 0.4}, 1};
  baseline.process_batch(*batch_);
  const auto expected = snapshot(baseline);
  ASSERT_FALSE(expected.empty());

  for (const unsigned shards : {2u, 4u, 8u, 16u}) {
    ShardedDetector det{rules_->hitlist, *rules_, {.threshold = 0.4},
                        shards};
    det.process_batch(*batch_);
    EXPECT_EQ(snapshot(det), expected) << "shards=" << shards;
  }
  ShardedDetector again{rules_->hitlist, *rules_, {.threshold = 0.4}, 8};
  again.process_batch(*batch_);
  EXPECT_EQ(snapshot(again), expected);
}

TEST_F(ShardedDetectorTest, SingleObservePathWorks) {
  ShardedDetector det{rules_->hitlist, *rules_, {.threshold = 0.4}, 4};
  for (const auto& obs : *batch_) det.observe(obs);
  EXPECT_EQ(det.stats().flows, batch_->size());
}

TEST_F(ShardedDetectorTest, ClearResetsAllShards) {
  ShardedDetector det{rules_->hitlist, *rules_, {.threshold = 0.4}, 4};
  det.process_batch(*batch_);
  det.clear();
  std::size_t remaining = 0;
  det.for_each_evidence(
      [&](SubscriberKey, ServiceId, const Evidence&) { ++remaining; });
  EXPECT_EQ(remaining, 0u);
}

TEST_F(ShardedDetectorTest, PointReadsOnADrainedDetectorPublishOncePerShard) {
  constexpr unsigned kShards = 4;
  ShardedDetector det{rules_->hitlist, *rules_, {.threshold = 0.4}, kShards};
  det.process_batch(*batch_);
  const std::uint64_t before = det.view_hub().publishes();
  std::size_t detections = 0;
  for (std::size_t i = 0; i < batch_->size(); i += 97) {
    const SubscriberKey subscriber = (*batch_)[i].subscriber;
    for (ServiceId service = 0; service < 4; ++service) {
      detections += det.detected(subscriber, service) ? 1 : 0;
      (void)det.detection_hour(subscriber, service);
      (void)det.verdict(subscriber, service);
    }
  }
  EXPECT_GT(detections, 0u);
  // The first read of each shard publishes its drained state; every later
  // read finds that view current.
  EXPECT_LE(det.view_hub().publishes() - before, kShards);
}

TEST_F(ShardedDetectorTest, ReadsAfterMutatorsSeeTheChange) {
  ShardedDetector det{rules_->hitlist, *rules_, {.threshold = 0.4}, 4};
  det.process_batch(*batch_);
  SubscriberKey subscriber = 0;
  ServiceId service = 0;
  bool found = false;
  det.for_each_evidence([&](SubscriberKey s, ServiceId sv, const Evidence&) {
    if (!found && det.live_view(det.owner_shard(s))->detected(s, sv)) {
      subscriber = s;
      service = sv;
      found = true;
    }
  });
  ASSERT_TRUE(found);
  const unsigned shard = det.owner_shard(subscriber);
  const auto current = [&] {
    // Two reads: the second finds the view current and publishes nothing.
    (void)det.detected(subscriber, service);
    const std::uint64_t publishes = det.view_hub().publishes();
    (void)det.detected(subscriber, service);
    EXPECT_EQ(det.view_hub().publishes(), publishes);
  };

  current();
  const Evidence kept = *det.fresh_view(shard)->evidence.find(subscriber,
                                                              service);
  det.restore_evidence(subscriber, service, Evidence{});
  EXPECT_FALSE(det.detected(subscriber, service));
  det.restore_evidence(subscriber, service, kept);
  EXPECT_TRUE(det.detected(subscriber, service));

  current();
  det.set_observed_loss(0.3);
  EXPECT_DOUBLE_EQ(det.fresh_view(shard)->observed_loss, 0.3);
  EXPECT_EQ(det.verdict(subscriber, service).detected,
            det.fresh_view(shard)->verdict(subscriber, service).detected);
  det.set_observed_loss(0.0);

  current();
  det.restore_stats({.flows = 1234, .matched = 56});
  EXPECT_EQ(det.fresh_view(0)->stats.flows, 1234u);
  EXPECT_EQ(det.fresh_view(0)->stats.matched, 56u);

  current();
  det.clear();
  EXPECT_FALSE(det.detected(subscriber, service));
  EXPECT_EQ(det.fresh_view(shard)->evidence.size(), 0u);
}

TEST_F(ShardedDetectorTest, ShardCountClampedToAtLeastOne) {
  ShardedDetector det{rules_->hitlist, *rules_, {}, 0};
  EXPECT_EQ(det.shard_count(), 1u);
}

}  // namespace
}  // namespace haystack::core
