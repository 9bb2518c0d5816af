// Parameterized property suites: invariants that must hold across sweeps
// of seeds, sizes, and configuration values rather than at single points.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <set>
#include <thread>

#include "core/detector.hpp"
#include "pipeline/bounded_queue.hpp"
#include "dns/fqdn.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v9.hpp"
#include "flow/sampler.hpp"
#include "net/prefix_trie.hpp"
#include "util/rng.hpp"

namespace haystack {
namespace {

// ---------------------------------------------------------------------------
// Codec round trips across record counts and family mixes.

struct CodecCase {
  std::size_t records;
  unsigned v6_modulo;  // every Nth record is IPv6 (0 = none)
};

// gtest prints an unprintable parameter as a byte dump, padding included,
// and that dump lands in the ctest name; print the fields instead so the
// names are the same in every build.
void PrintTo(const CodecCase& c, std::ostream* os) {
  *os << "n" << c.records << "_v6mod" << c.v6_modulo;
}

class CodecRoundtrip : public ::testing::TestWithParam<CodecCase> {
 protected:
  static std::vector<flow::FlowRecord> make_records(const CodecCase& c) {
    std::vector<flow::FlowRecord> records;
    util::Pcg32 rng{99, c.records};
    for (std::size_t i = 0; i < c.records; ++i) {
      flow::FlowRecord rec;
      const bool v6 = c.v6_modulo != 0 && i % c.v6_modulo == 0;
      if (v6) {
        rec.key.src = net::IpAddress::v6(rng(), rng());
        rec.key.dst = net::IpAddress::v6(rng(), rng());
      } else {
        rec.key.src = net::IpAddress::v4(rng());
        rec.key.dst = net::IpAddress::v4(rng());
      }
      rec.key.src_port = static_cast<std::uint16_t>(rng());
      rec.key.dst_port = static_cast<std::uint16_t>(rng());
      rec.key.proto = rng.chance(0.8) ? 6 : 17;
      rec.tcp_flags = static_cast<std::uint8_t>(rng());
      rec.packets = 1 + rng.bounded(100000);
      rec.bytes = rec.packets * (40 + rng.bounded(1400));
      rec.start_ms = rng();
      rec.end_ms = rec.start_ms + rng.bounded(100000);
      rec.sampling = 1000;
      records.push_back(rec);
    }
    return records;
  }
};

TEST_P(CodecRoundtrip, NetflowV9Lossless) {
  auto input = make_records(GetParam());
  flow::nf9::Exporter exporter{{}};
  flow::nf9::Collector collector;
  std::vector<flow::FlowRecord> output;
  for (const auto& p : exporter.export_flows(input, 1)) {
    ASSERT_TRUE(collector.ingest(p, output));
  }
  // v9 timestamps are 32-bit on the wire; mask for comparison.
  for (auto& r : input) {
    r.start_ms &= 0xffffffffULL;
    r.end_ms &= 0xffffffffULL;
  }
  std::sort(input.begin(), input.end());
  std::sort(output.begin(), output.end());
  EXPECT_EQ(input, output);
}

TEST_P(CodecRoundtrip, IpfixLossless) {
  auto input = make_records(GetParam());
  flow::ipfix::Exporter exporter{{}};
  flow::ipfix::Collector collector;
  std::vector<flow::FlowRecord> output;
  for (const auto& m : exporter.export_flows(input, 1)) {
    ASSERT_TRUE(collector.ingest(m, output));
  }
  std::sort(input.begin(), input.end());
  std::sort(output.begin(), output.end());
  EXPECT_EQ(input, output);
  EXPECT_EQ(collector.stats().sequence_gaps, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecRoundtrip,
    ::testing::Values(CodecCase{1, 0}, CodecCase{7, 2}, CodecCase{24, 0},
                      CodecCase{25, 3}, CodecCase{100, 5},
                      CodecCase{999, 4}),
    [](const ::testing::TestParamInfo<CodecCase>& info) {
      return ::testing::PrintToString(info.param);
    });

// ---------------------------------------------------------------------------
// Sampling-thinning invariants across intervals.

class SamplerProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SamplerProperty, ThinningIsUnbiased) {
  const std::uint32_t interval = GetParam();
  util::Pcg32 rng{interval, 1};
  flow::FlowRecord rec;
  rec.key.src = net::IpAddress::v4(1);
  rec.key.dst = net::IpAddress::v4(2);
  rec.packets = 5000;
  rec.bytes = 5000 * 600;

  constexpr int kTrials = 30000;
  std::uint64_t total_sampled = 0;
  int visible = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (const auto thin = flow::thin_flow(rec, interval, rng)) {
      total_sampled += thin->packets;
      ++visible;
      EXPECT_LE(thin->packets, rec.packets);
      EXPECT_LE(thin->bytes, rec.bytes);
    }
  }
  // E[sampled] = packets/N regardless of N.
  const double expected = 5000.0 / interval * kTrials;
  EXPECT_NEAR(static_cast<double>(total_sampled), expected,
              expected * 0.1 + 5 * std::sqrt(expected));
  // Visibility matches 1-(1-1/N)^packets.
  const double p_visible =
      1.0 - std::pow(1.0 - 1.0 / interval, double(rec.packets));
  EXPECT_NEAR(static_cast<double>(visible) / kTrials, p_visible,
              0.02 + 3 * std::sqrt(p_visible * (1 - p_visible) / kTrials));
}

INSTANTIATE_TEST_SUITE_P(Intervals, SamplerProperty,
                         ::testing::Values(2u, 10u, 100u, 1000u, 10000u));

// ---------------------------------------------------------------------------
// FQDN invariants across random names.

class FqdnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FqdnProperty, NormalizationIsIdempotentAndRegistrableIsSuffix) {
  util::Pcg32 rng{GetParam(), 77};
  static constexpr const char* kTlds[] = {"com", "net", "io", "co.uk",
                                          "com.cn", "unknowntld"};
  for (int i = 0; i < 300; ++i) {
    std::string name;
    const unsigned labels = 1 + rng.bounded(4);
    for (unsigned l = 0; l < labels; ++l) {
      const unsigned len = 1 + rng.bounded(12);
      for (unsigned c = 0; c < len; ++c) {
        name += static_cast<char>(
            rng.chance(0.5) ? ('a' + rng.bounded(26))
                            : ('A' + rng.bounded(26)));
      }
      name += '.';
    }
    name += kTlds[rng.bounded(6)];

    const dns::Fqdn fqdn{name};
    ASSERT_TRUE(fqdn.valid()) << name;
    // Idempotent normalization.
    EXPECT_EQ(dns::Fqdn{fqdn.str()}.str(), fqdn.str());
    // registrable() is a suffix of the name and itself a fixed point.
    const dns::Fqdn reg = fqdn.registrable();
    EXPECT_TRUE(fqdn.is_subdomain_of(reg)) << fqdn.str();
    EXPECT_EQ(reg.registrable(), reg);
    // Label count of the registrable domain is suffix-label-count + 1
    // (or the whole name when shorter).
    EXPECT_LE(reg.label_count(), fqdn.label_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FqdnProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------------
// Trie vs linear scan, across random universes.

class TrieProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieProperty, MatchesLinearScan) {
  util::Pcg32 rng{GetParam(), 5};
  net::PrefixTrie<unsigned> trie;
  std::vector<net::Prefix> prefixes;
  for (int i = 0; i < 200; ++i) {
    const bool v6 = rng.chance(0.3);
    const net::IpAddress base =
        v6 ? net::IpAddress::v6(rng(), rng()) : net::IpAddress::v4(rng());
    const unsigned max_len = v6 ? 64 : 28;
    const auto prefix = net::Prefix::of(base, 4 + rng.bounded(max_len));
    trie.insert(prefix, static_cast<unsigned>(prefixes.size()));
    prefixes.push_back(prefix);
  }
  for (int i = 0; i < 1000; ++i) {
    const bool v6 = rng.chance(0.3);
    const net::IpAddress addr =
        v6 ? net::IpAddress::v6(rng(), rng()) : net::IpAddress::v4(rng());
    unsigned best_len = 0;
    bool found = false;
    for (const auto& p : prefixes) {
      if (p.contains(addr)) {
        found = true;
        best_len = std::max(best_len, p.length());
      }
    }
    const auto result = trie.lookup(addr);
    ASSERT_EQ(result.has_value(), found);
    if (result) {
      EXPECT_EQ(prefixes[*result].length(), best_len);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---------------------------------------------------------------------------
// Detector threshold monotonicity: raising D never creates detections.

class ThresholdProperty : public ::testing::TestWithParam<double> {
 protected:
  static core::RuleSet make_rules() {
    core::RuleSet rules;
    core::DetectionRule rule;
    rule.service = 0;
    rule.name = "svc";
    rule.monitored_domains = 12;
    for (std::uint16_t i = 0; i < 12; ++i) {
      rule.monitored_indices.push_back(i);
      for (util::DayBin d = 0; d < util::kStudyDays; ++d) {
        rules.hitlist.add(net::IpAddress::v4(0x0A000000U + i), 443, d,
                          {0, i});
      }
    }
    rules.rules.push_back(rule);
    return rules;
  }
};

TEST_P(ThresholdProperty, RequiredDomainsFormulaAndMonotonicity) {
  const double d = GetParam();
  const auto rules = make_rules();
  const auto& rule = rules.rules[0];
  // max(1, floor(D*N)).
  const unsigned expected = std::max(1u, static_cast<unsigned>(d * 12));
  EXPECT_EQ(rule.required_domains(d), expected);

  // Feed k distinct domains; detection iff k >= required.
  for (unsigned k = 1; k <= 12; ++k) {
    core::Detector det{rules.hitlist, rules, {.threshold = d}};
    for (unsigned i = 0; i < k; ++i) {
      det.observe(1, net::IpAddress::v4(0x0A000000U + i), 443, 1, 0);
    }
    EXPECT_EQ(det.detected(1, 0), k >= expected) << "k=" << k << " D=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdProperty,
                         ::testing::Values(0.05, 0.1, 0.25, 0.4, 0.5, 0.75,
                                           1.0));

// ---------------------------------------------------------------------------
// Bounded-queue delivery properties (ISSUE 3): across randomized
// capacities and producer counts, the queue must deliver every item
// exactly once — no drops, no duplicates — and preserve each producer's
// submission order (per-producer FIFO), the invariant the streaming
// pipeline's determinism rests on.

struct QueueCase {
  std::size_t capacity;
  unsigned producers;
  bool waves;  ///< consume via pop_wave instead of pop
};

void PrintTo(const QueueCase& c, std::ostream* os) {
  *os << "cap" << c.capacity << "_producers" << c.producers
      << (c.waves ? "_waves" : "_pop");
}

class QueueProperty : public ::testing::TestWithParam<QueueCase> {};

TEST_P(QueueProperty, ExactlyOnceInPerProducerOrder) {
  const QueueCase c = GetParam();
  constexpr std::uint64_t kPerProducer = 1500;
  // Items are (producer, seq) packed into one word.
  pipeline::BoundedQueue<std::uint64_t> queue{c.capacity};

  std::vector<std::thread> producers;
  for (unsigned p = 0; p < c.producers; ++p) {
    producers.emplace_back([&queue, p] {
      // Jittered pacing (seeded per producer) varies the interleavings.
      util::Pcg32 rng{0x9e37u, p};
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push((std::uint64_t{p} << 32) | i));
        if (rng.chance(0.05)) std::this_thread::yield();
      }
    });
  }

  std::vector<std::uint64_t> next_seq(c.producers, 0);
  std::uint64_t received = 0;
  std::vector<std::uint64_t> wave;
  const auto check = [&](std::uint64_t item) {
    const auto p = static_cast<unsigned>(item >> 32);
    const std::uint64_t seq = item & 0xffffffffu;
    ASSERT_LT(p, c.producers);
    // Strictly sequential per producer: any drop, duplicate, or
    // reordering shows up as a seq mismatch here.
    ASSERT_EQ(seq, next_seq[p]) << "producer " << p;
    ++next_seq[p];
    ++received;
  };
  while (received < c.producers * kPerProducer) {
    if (c.waves) {
      wave.clear();
      const std::size_t n = queue.pop_wave(wave, 7);
      ASSERT_GT(n, 0u);
      for (const auto item : wave) check(item);
    } else {
      const auto item = queue.pop();
      ASSERT_TRUE(item.has_value());
      check(*item);
    }
  }
  for (auto& t : producers) t.join();

  for (unsigned p = 0; p < c.producers; ++p) {
    EXPECT_EQ(next_seq[p], kPerProducer) << "producer " << p;
  }
  const auto stats = queue.stats();
  EXPECT_EQ(stats.enqueued, c.producers * kPerProducer);
  EXPECT_EQ(stats.dequeued, c.producers * kPerProducer);
  EXPECT_EQ(queue.depth(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Queues, QueueProperty,
    ::testing::Values(QueueCase{1, 1, false}, QueueCase{1, 4, true},
                      QueueCase{2, 2, false}, QueueCase{7, 4, true},
                      QueueCase{7, 8, false}, QueueCase{64, 4, false},
                      QueueCase{64, 8, true}, QueueCase{1024, 2, true},
                      QueueCase{1024, 8, false}));

}  // namespace
}  // namespace haystack
