// Tests for the telemetry layer: counters, heavy-hitter views, direction
// normalization / anonymization, and the IXP vantage's established-TCP
// guard.
#include <gtest/gtest.h>

#include "net/asn.hpp"
#include "pipeline/bounded_queue.hpp"
#include "telemetry/anonymize.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/vantage.hpp"

namespace haystack::telemetry {
namespace {

TEST(UniqueCounterTest, CountsDistinct) {
  UniqueCounter<int> counter;
  EXPECT_TRUE(counter.add(1));
  EXPECT_FALSE(counter.add(1));
  EXPECT_TRUE(counter.add(2));
  EXPECT_EQ(counter.count(), 2u);
  EXPECT_TRUE(counter.contains(1));
  counter.clear();
  EXPECT_EQ(counter.count(), 0u);
}

TEST(HeavyHitterTest, TopFractionByBytes) {
  HeavyHitterView hh;
  // Ten IPs, weights 10..1.
  for (std::uint32_t i = 0; i < 10; ++i) {
    hh.add_reference(net::IpAddress::v4(i), (10 - i) * 100);
  }
  // Mark the top-3 and one light IP visible.
  hh.mark_visible(net::IpAddress::v4(0));
  hh.mark_visible(net::IpAddress::v4(1));
  hh.mark_visible(net::IpAddress::v4(2));
  hh.mark_visible(net::IpAddress::v4(9));
  EXPECT_DOUBLE_EQ(hh.visible_fraction_of_top(0.1), 1.0);   // top-1
  EXPECT_DOUBLE_EQ(hh.visible_fraction_of_top(0.3), 1.0);   // top-3
  EXPECT_DOUBLE_EQ(hh.visible_fraction_of_top(0.5), 0.6);   // 3 of top-5
  EXPECT_DOUBLE_EQ(hh.visible_fraction(), 0.4);
  EXPECT_EQ(hh.reference_count(), 10u);
}

TEST(HourlySeriesTest, BoundsAndAccumulation) {
  HourlySeries series;
  series.add(0, 2.0);
  series.add(0, 3.0);
  series.set(10, 7.0);
  EXPECT_DOUBLE_EQ(series.at(0), 5.0);
  EXPECT_DOUBLE_EQ(series.at(10), 7.0);
  EXPECT_DOUBLE_EQ(series.at(1), 0.0);
  EXPECT_EQ(series.values().size(), util::kStudyHours);
  EXPECT_THROW((void)series.at(util::kStudyHours), std::out_of_range);
}

TEST(HourlySeriesTest, OutOfRangeWritesThrowAndLeaveSeriesIntact) {
  HourlySeries series;
  series.set(3, 1.5);
  EXPECT_THROW(series.set(util::kStudyHours, 9.0), std::out_of_range);
  EXPECT_THROW(series.add(util::kStudyHours + 100, 9.0), std::out_of_range);
  EXPECT_DOUBLE_EQ(series.at(3), 1.5);  // failed writes changed nothing
  EXPECT_EQ(series.values().size(), util::kStudyHours);
}

TEST(HeavyHitterTest, EmptyReferenceSetYieldsZeroNotDivideByZero) {
  HeavyHitterView hh;
  EXPECT_DOUBLE_EQ(hh.visible_fraction_of_top(0.1), 0.0);
  EXPECT_DOUBLE_EQ(hh.visible_fraction(), 0.0);
  EXPECT_EQ(hh.reference_count(), 0u);
  // Visibility marks without references must not fabricate coverage.
  hh.mark_visible(net::IpAddress::v4(1));
  EXPECT_DOUBLE_EQ(hh.visible_fraction_of_top(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hh.visible_fraction(), 0.0);
}

TEST(HeavyHitterTest, ByteTiesAtTopFractionBoundaryAreDeterministic) {
  HeavyHitterView hh;
  // Two clear heavies, then four IPs tied at 100 bytes straddling the
  // top-50% cut (top-3 of 6). Which tied IPs make the cut is an internal
  // ordering detail, so the test marks *all* tied IPs visible — the
  // fraction must then be exact regardless of the tie-break.
  hh.add_reference(net::IpAddress::v4(0), 1000);
  hh.add_reference(net::IpAddress::v4(1), 900);
  for (std::uint32_t i = 2; i < 6; ++i) {
    hh.add_reference(net::IpAddress::v4(i), 100);
  }
  hh.mark_visible(net::IpAddress::v4(0));
  for (std::uint32_t i = 2; i < 6; ++i) {
    hh.mark_visible(net::IpAddress::v4(i));
  }
  // Top-3 = {1000, 900, one of the tied 100s}: the heavy at 900 is the
  // only invisible candidate, so exactly 2 of 3 are visible no matter
  // which tied IP wins the last slot.
  EXPECT_DOUBLE_EQ(hh.visible_fraction_of_top(0.5), 2.0 / 3.0);
  // With no visibility marks at all the answer is exactly zero.
  hh.clear();
  for (std::uint32_t i = 0; i < 4; ++i) {
    hh.add_reference(net::IpAddress::v4(i), 100);  // all tied
  }
  EXPECT_DOUBLE_EQ(hh.visible_fraction_of_top(0.5), 0.0);
}

// --- StageStats aggregation (ISSUE 5 satellite) ----------------------------

TEST(StageStatsTest, AggregationSumsHighWatersAndMaxesMaxDepth) {
  StageStats total;
  StageStats a;
  a.enqueued = 100;
  a.dequeued = 90;
  a.max_depth = 900;
  a.high_water_sum = 900;
  a.capacity = 1024;
  StageStats b;
  b.enqueued = 50;
  b.dequeued = 50;
  b.max_depth = 400;
  b.high_water_sum = 400;
  b.capacity = 1024;
  total += a;
  total += b;
  EXPECT_EQ(total.enqueued, 150u);
  EXPECT_EQ(total.dequeued, 140u);
  // The stage never had a queue deeper than 900 — but it buffered up to
  // 1300 items simultaneously. Summing max_depth would fabricate the
  // former; maxing high_water_sum would understate the latter.
  EXPECT_EQ(total.max_depth, 900u);
  EXPECT_EQ(total.high_water_sum, 1300u);
  EXPECT_EQ(total.capacity, 2048u);
}

TEST(StageStatsTest, QueueSnapshotKeepsDequeuedWithinEnqueued) {
  // Live BoundedQueue snapshots must satisfy dequeued <= enqueued and
  // report a single queue's high_water_sum equal to its max_depth.
  pipeline::BoundedQueue<int> queue{4};
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  auto stats = queue.stats();
  EXPECT_LE(stats.dequeued, stats.enqueued);
  EXPECT_EQ(stats.enqueued, 2u);
  EXPECT_EQ(stats.dequeued, 0u);
  (void)queue.pop();
  stats = queue.stats();
  EXPECT_LE(stats.dequeued, stats.enqueued);
  EXPECT_EQ(stats.dequeued, 1u);
  EXPECT_EQ(stats.high_water_sum, stats.max_depth);
  EXPECT_EQ(stats.max_depth, 2u);
}

TEST(AnonymizeTest, KeyedAndStable) {
  const auto ip = *net::IpAddress::parse("100.64.1.2");
  EXPECT_EQ(anonymize(ip, 7), anonymize(ip, 7));
  EXPECT_NE(anonymize(ip, 7), anonymize(ip, 8));
  EXPECT_NE(anonymize(ip, 7),
            anonymize(*net::IpAddress::parse("100.64.1.3"), 7));
}

class DirectionTest : public ::testing::Test {
 protected:
  DirectionTest() {
    asns_.add_as({64520, "CDN", net::AsRole::kCdn});
    asns_.announce(*net::Prefix::parse("23.0.0.0/12"), 64520);
  }
  net::AsnRegistry asns_;
};

TEST_F(DirectionTest, SubscriberToServerKept) {
  flow::FlowRecord rec;
  rec.key.src = *net::IpAddress::parse("100.64.1.2");
  rec.key.src_port = 50000;
  rec.key.dst = *net::IpAddress::parse("140.1.0.1");
  rec.key.dst_port = 443;
  NormalizedFlow norm;
  ASSERT_TRUE(normalize_direction(rec, asns_, norm));
  EXPECT_EQ(norm.subscriber, rec.key.src);
  EXPECT_EQ(norm.server, rec.key.dst);
  EXPECT_EQ(norm.server_port, 443);
}

TEST_F(DirectionTest, ReverseDirectionFlipped) {
  flow::FlowRecord rec;
  rec.key.src = *net::IpAddress::parse("140.1.0.1");
  rec.key.src_port = 443;
  rec.key.dst = *net::IpAddress::parse("100.64.1.2");
  rec.key.dst_port = 50000;
  NormalizedFlow norm;
  ASSERT_TRUE(normalize_direction(rec, asns_, norm));
  EXPECT_EQ(norm.subscriber, rec.key.dst);
  EXPECT_EQ(norm.server, rec.key.src);
  EXPECT_EQ(norm.server_port, 443);
}

TEST_F(DirectionTest, CdnOriginCountsAsServerRegardlessOfPort) {
  flow::FlowRecord rec;
  rec.key.src = *net::IpAddress::parse("100.64.1.2");
  rec.key.src_port = 50000;
  rec.key.dst = *net::IpAddress::parse("23.0.0.9");
  rec.key.dst_port = 12345;  // odd port, but CDN AS
  NormalizedFlow norm;
  ASSERT_TRUE(normalize_direction(rec, asns_, norm));
  EXPECT_EQ(norm.server, rec.key.dst);
}

TEST_F(DirectionTest, PeerToPeerDropped) {
  flow::FlowRecord rec;
  rec.key.src = *net::IpAddress::parse("100.64.1.2");
  rec.key.src_port = 50000;
  rec.key.dst = *net::IpAddress::parse("100.64.1.9");
  rec.key.dst_port = 51000;
  NormalizedFlow norm;
  EXPECT_FALSE(normalize_direction(rec, asns_, norm));
}

TEST(IxpVantageTest, EstablishedTcpGuardDropsSynOnly) {
  IxpVantage vantage{{.sampling = 1, .wire_roundtrip = false,
                      .require_established_tcp = true}};
  simnet::LabeledFlow syn_only;
  syn_only.flow.key.src = net::IpAddress::v4(1);
  syn_only.flow.key.dst = net::IpAddress::v4(2);
  syn_only.flow.key.proto = 6;
  syn_only.flow.tcp_flags = flow::tcpflags::kSyn;
  syn_only.flow.packets = 10;

  simnet::LabeledFlow established = syn_only;
  established.flow.tcp_flags =
      flow::tcpflags::kSyn | flow::tcpflags::kAck | flow::tcpflags::kPsh;

  simnet::LabeledFlow udp = syn_only;
  udp.flow.key.proto = 17;
  udp.flow.tcp_flags = 0;

  const auto out =
      vantage.observe({syn_only, established, udp}, 0);
  // SYN-only is dropped; the established TCP flow and UDP pass.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].flow.shows_established_tcp());
  EXPECT_TRUE(out[1].flow.shows_established_tcp());
}

}  // namespace
}  // namespace haystack::telemetry
