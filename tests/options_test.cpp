// Tests for NetFlow v9 options handling: the sampling-rate announcement
// round trip and the per-source registry semantics.
#include <gtest/gtest.h>

#include "flow/options.hpp"

namespace haystack::flow::nf9 {
namespace {

TEST(OptionsTest, AnnouncementRoundtrip) {
  SamplingRegistry registry;
  const auto packet = encode_sampling_announcement(
      {.source_id = 7, .interval = 1000,
       .algorithm = SamplingAlgorithm::kRandom},
      1574000000, 1);
  EXPECT_TRUE(registry.ingest(packet));
  EXPECT_EQ(registry.interval_of(7), 1000u);
  EXPECT_EQ(registry.algorithm_of(7), SamplingAlgorithm::kRandom);
  EXPECT_EQ(registry.known_sources(), 1u);
}

TEST(OptionsTest, SourcesAreIndependent) {
  SamplingRegistry registry;
  registry.ingest(encode_sampling_announcement(
      {.source_id = 1, .interval = 1000,
       .algorithm = SamplingAlgorithm::kRandom},
      1, 1));
  registry.ingest(encode_sampling_announcement(
      {.source_id = 2, .interval = 10000,
       .algorithm = SamplingAlgorithm::kDeterministic},
      1, 1));
  EXPECT_EQ(registry.interval_of(1), 1000u);
  EXPECT_EQ(registry.interval_of(2), 10000u);
  EXPECT_EQ(registry.interval_of(3), std::nullopt);
  EXPECT_EQ(registry.algorithm_of(2), SamplingAlgorithm::kDeterministic);
}

TEST(OptionsTest, ReannouncementUpdates) {
  SamplingRegistry registry;
  registry.ingest(encode_sampling_announcement(
      {.source_id = 5, .interval = 1000,
       .algorithm = SamplingAlgorithm::kRandom},
      1, 1));
  registry.ingest(encode_sampling_announcement(
      {.source_id = 5, .interval = 2000,
       .algorithm = SamplingAlgorithm::kRandom},
      2, 2));
  EXPECT_EQ(registry.interval_of(5), 2000u);
}

TEST(OptionsTest, DataBeforeTemplateIsIgnored) {
  // Strip the options-template flowset from an announcement: the registry
  // must not learn from the orphaned data flowset.
  SamplingRegistry registry;
  const auto full = encode_sampling_announcement(
      {.source_id = 9, .interval = 500,
       .algorithm = SamplingAlgorithm::kRandom},
      1, 1);
  // Parse the flowset boundaries: header is 20 bytes; first flowset is the
  // options template.
  const std::size_t tmpl_len =
      (static_cast<std::size_t>(full[22]) << 8) | full[23];
  std::vector<std::uint8_t> without_template;
  without_template.insert(without_template.end(), full.begin(),
                          full.begin() + 20);
  without_template.insert(without_template.end(),
                          full.begin() + 20 + static_cast<long>(tmpl_len),
                          full.end());
  EXPECT_FALSE(registry.ingest(without_template));
  EXPECT_EQ(registry.interval_of(9), std::nullopt);
}

TEST(OptionsTest, NonV9Rejected) {
  SamplingRegistry registry;
  std::vector<std::uint8_t> junk(20, 0);
  junk[1] = 10;  // IPFIX version
  EXPECT_FALSE(registry.ingest(junk));
}

}  // namespace
}  // namespace haystack::flow::nf9

// --- IPFIX options parity -------------------------------------------------

#include "flow/ipfix.hpp"

namespace haystack::flow::ipfix {
namespace {

TEST(IpfixOptionsTest, SamplingAnnouncementRoundtrip) {
  Collector collector;
  std::vector<FlowRecord> out;
  const auto msg = encode_sampling_options(42, 10000, 1574000000, 0);
  EXPECT_TRUE(collector.ingest(msg, out));
  EXPECT_TRUE(out.empty());  // options data is not flow data
  EXPECT_EQ(collector.stats().options_templates_learned, 1u);
  EXPECT_EQ(collector.announced_sampling(42), 10000u);
  EXPECT_EQ(collector.announced_sampling(43), std::nullopt);
}

TEST(IpfixOptionsTest, ReannouncementUpdatesAndDomainsIndependent) {
  Collector collector;
  std::vector<FlowRecord> out;
  collector.ingest(encode_sampling_options(1, 1000, 1, 0), out);
  collector.ingest(encode_sampling_options(2, 5000, 1, 0), out);
  collector.ingest(encode_sampling_options(1, 2000, 2, 0), out);
  EXPECT_EQ(collector.announced_sampling(1), 2000u);
  EXPECT_EQ(collector.announced_sampling(2), 5000u);
}

TEST(IpfixOptionsTest, OptionsInterleaveWithFlowData) {
  Exporter exporter{{.observation_domain = 9}};
  Collector collector;
  std::vector<FlowRecord> out;
  // Announce, then export flows, then re-announce.
  collector.ingest(encode_sampling_options(9, 10000, 1, 0), out);
  FlowRecord rec;
  rec.key.src = net::IpAddress::v4(1);
  rec.key.dst = net::IpAddress::v4(2);
  rec.packets = 3;
  rec.bytes = 300;
  rec.sampling = 10000;
  for (const auto& m : exporter.export_flows(std::vector{rec}, 2)) {
    EXPECT_TRUE(collector.ingest(m, out));
  }
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(collector.announced_sampling(9), 10000u);
}

}  // namespace
}  // namespace haystack::flow::ipfix
