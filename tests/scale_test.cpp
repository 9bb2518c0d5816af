// Paper-scale property suite (ISSUE 9, `ctest -L scale`).
//
// The scale PR replaces the materialized per-line population CSR with
// lazy block-cached regeneration, packs Evidence to 28 bytes, and adds
// compact checkpoint/delta wire forms. Each of those is an "identical
// observable behaviour, smaller footprint" claim, and this suite pins the
// identical half:
//
//   - streaming Population == a materialized reference CSR, bit for bit,
//     at 10k/80k/200k lines (ownership, active sets, addressing across
//     rotation days, dual-stack draws) — the reference reimplements the
//     pre-PR generation inline so a regression in the lazy path cannot
//     hide behind a shared helper;
//   - a 15M-line population (the paper's ISP) stays inside 100.64.0.0/10
//     and inside the bounded block-cache memory budget;
//   - FlatEvidenceMap at a million entries: the ≤0.5 load-factor
//     invariant (the `>=` growth fix), memory_bytes() accounting, and
//     iteration completeness across every rehash step;
//   - HSCK v3 / HSVD v2 compact forms restore bit-identical evidence and
//     are strictly smaller than the formats they succeed;
//   - the block-parallel wild-ISP generator emits the exact observation
//     sequence of the single-threaded one at every worker count, under
//     concurrent callers and when its sink throws, and the block cache
//     counts the rebuilds a walk over more blocks than it holds costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/detector.hpp"
#include "core/evidence_map.hpp"
#include "core/sharded_detector.hpp"
#include "flow/delta_wire.hpp"
#include "net/prefix.hpp"
#include "simnet/backend.hpp"
#include "simnet/population.hpp"
#include "simnet/rates.hpp"
#include "simnet/wild_isp.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace haystack {
namespace {

// ---------------------------------------------------------------------
// Streaming population vs a materialized reference CSR.

// The pre-PR population: one eagerly built CSR over all lines. Ownership
// draws consume the per-line RNG stream in catalog candidate order —
// reimplemented here (not shared with src/) so the test is a true
// differential.
struct ReferenceCsr {
  std::vector<std::uint32_t> offsets;
  std::vector<simnet::OwnedDevice> devices;
  std::vector<simnet::LineId> active;
};

ReferenceCsr build_reference(const simnet::Catalog& catalog,
                             std::uint64_t seed, std::uint32_t lines) {
  struct Candidate {
    std::optional<simnet::ProductId> product;
    simnet::UnitId unit = 0;
    double penetration = 0.0;
  };
  std::vector<Candidate> candidates;
  for (const simnet::Product& p : catalog.products()) {
    if (p.unit && p.penetration > 0.0) {
      candidates.push_back({p.id, *p.unit, p.penetration});
    }
  }
  for (const simnet::DetectionUnit& u : catalog.units()) {
    if (u.wild_extra_penetration > 0.0) {
      candidates.push_back({std::nullopt, u.id, u.wild_extra_penetration});
    }
  }
  ReferenceCsr csr;
  csr.offsets.push_back(0);
  for (simnet::LineId line = 0; line < lines; ++line) {
    util::Pcg32 rng = util::derive_rng(seed ^ 0x0cc07a11, line, 0);
    bool any = false;
    for (const Candidate& c : candidates) {
      if (rng.chance(c.penetration)) {
        csr.devices.push_back({c.product, c.unit});
        any = true;
      }
    }
    csr.offsets.push_back(static_cast<std::uint32_t>(csr.devices.size()));
    if (any) csr.active.push_back(line);
  }
  return csr;
}

class StreamingVsMaterialized
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StreamingVsMaterialized, OwnershipBitForBit) {
  const std::uint32_t lines = GetParam();
  const simnet::Catalog catalog;
  // A tiny cache forces eviction/regeneration even at 10k lines, so the
  // comparison exercises rebuilt blocks, not just first-build ones.
  const simnet::Population population{
      catalog, {.seed = 99, .lines = lines, .cache_blocks = 2}};
  const ReferenceCsr ref = build_reference(catalog, 99, lines);

  for (simnet::LineId line = 0; line < lines; ++line) {
    const auto devices = population.devices_of(line);
    const std::uint32_t begin = ref.offsets[line];
    const std::uint32_t end = ref.offsets[line + 1];
    ASSERT_EQ(devices.size(), end - begin) << "line " << line;
    for (std::uint32_t i = 0; i < devices.size(); ++i) {
      ASSERT_EQ(devices[i].product, ref.devices[begin + i].product);
      ASSERT_EQ(devices[i].unit, ref.devices[begin + i].unit);
    }
  }

  // Streaming active-line walk: same lines, same order, same devices.
  std::vector<simnet::LineId> streamed;
  std::uint64_t streamed_devices = 0;
  population.for_each_active_line(
      [&](simnet::LineId line, std::span<const simnet::OwnedDevice> devs) {
        streamed.push_back(line);
        streamed_devices += devs.size();
      });
  EXPECT_EQ(streamed, ref.active);
  EXPECT_EQ(streamed_devices, ref.devices.size());
  EXPECT_EQ(population.active_line_count(), ref.active.size());
}

TEST_P(StreamingVsMaterialized, AddressingBitForBit) {
  const std::uint32_t lines = GetParam();
  const simnet::Catalog catalog;
  const simnet::Population population{catalog, {.seed = 99, .lines = lines}};

  // Pre-PR addressing, valid below the wrap point (4096 regions): no
  // modulo, straight regional-pool arithmetic. Every parameterized size
  // sits below 262 144 lines, so the lazy path must reproduce it exactly.
  const auto reference_address = [](simnet::LineId line, unsigned epoch) {
    const std::uint32_t region = line / 64;
    const std::uint32_t slot = static_cast<std::uint32_t>(
        util::hash_combine(util::fnv1a_u64(line), epoch) % 1024);
    return net::IpAddress::v4(0x64400000U + region * 1024 + slot);
  };
  const auto reference_epoch = [](simnet::LineId line, util::DayBin day) {
    unsigned epoch = 0;
    for (util::DayBin d = 1; d <= day; ++d) {
      util::Pcg32 rng = util::derive_rng(99 ^ 0x707a7e, line, d);
      if (rng.chance(0.03)) ++epoch;
    }
    return epoch;
  };

  for (simnet::LineId line = 0; line < lines; line += 101) {
    for (const util::DayBin day : {util::DayBin{0}, util::DayBin{6},
                                   util::DayBin{13}}) {
      const unsigned epoch = reference_epoch(line, day);
      ASSERT_EQ(population.epoch_of(line, day), epoch);
      ASSERT_EQ(population.address_of(line, day),
                reference_address(line, epoch))
          << "line " << line << " day " << day;
    }
    util::Pcg32 rng = util::derive_rng(99 ^ 0xd5a15ac, line, 0);
    ASSERT_EQ(population.dual_stack(line), rng.chance(0.35));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StreamingVsMaterialized,
                         ::testing::Values(10'000u, 80'000u, 200'000u));

TEST(ScalePopulation, PaperScaleAddressesStayInIspSpace) {
  // 15M lines — the paper's ISP. Construction is O(1) under the lazy
  // design; only the touched blocks materialize.
  const simnet::Catalog catalog;
  const simnet::Population population{catalog, {.lines = 15'000'000}};
  const auto isp_space = *net::Prefix::parse("100.64.0.0/10");
  for (simnet::LineId line = 0; line < 15'000'000; line += 1'000'003) {
    for (const util::DayBin day : {util::DayBin{0}, util::DayBin{13}}) {
      ASSERT_TRUE(isp_space.contains(population.address_of(line, day)))
          << "line " << line;
    }
  }
  // The top region wraps (15M/64 · 1024 far exceeds the /10 span) yet two
  // distinct lines must not be forced onto one address by the wrap alone.
  EXPECT_NE(population.address_of(14'999'999, 0),
            population.address_of(14'999'998, 0));
}

TEST(ScalePopulation, BlockCacheMemoryStaysBounded) {
  const simnet::Catalog catalog;
  const simnet::Population population{
      catalog, {.lines = 15'000'000, .cache_blocks = 8}};
  // Touch blocks scattered across the whole 15M-line range — far more
  // than the cache holds — and verify the footprint stays at the
  // 8-block budget instead of growing with the touched span.
  std::uint64_t peak = 0;
  for (simnet::LineId line = 0; line < 15'000'000; line += 500'009) {
    (void)population.devices_of(line);
    peak = std::max(peak, population.memory_bytes());
  }
  // 8 blocks × 4096 lines × (a few devices × 8B + offsets + slack): well
  // under 4 MiB; the old CSR held ~15M offsets + ~5M devices (>100 MiB).
  EXPECT_LT(peak, 4u << 20);
  EXPECT_GT(peak, 0u);
}

// ---------------------------------------------------------------------
// Block-parallel wild-ISP generation.

// Catalog, backends and rates shared by every generator test.
class ScaleWildGenerator : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new simnet::Catalog();
    backend_ = new simnet::Backend(*catalog_, simnet::BackendConfig{});
    rates_ = new simnet::DomainRateModel(*catalog_, 7);
  }
  static void TearDownTestSuite() {
    delete rates_;
    delete backend_;
    delete catalog_;
  }

  // A population of `lines` plus its generator.
  struct World {
    World(std::uint32_t lines)
        : population{*catalog_, {.seed = 99, .lines = lines}},
          wild{*backend_, population, *rates_, simnet::WildIspConfig{}} {}
    simnet::Population population;
    simnet::WildIspSim wild;
  };

  struct Digest {
    std::uint64_t count = 0;
    std::uint64_t hash = 0;
    friend bool operator==(const Digest&, const Digest&) = default;
  };

  // Order-dependent hash over every field of every emitted observation.
  static void fold(Digest& d, const simnet::WildObs& o) {
    const flow::FlowRecord& r = o.flow;
    for (const std::uint64_t v :
         {std::uint64_t{o.line}, o.subscriber.hash(), std::uint64_t{o.unit},
          std::uint64_t{o.domain_index}, r.key.src.hash(), r.key.dst.hash(),
          (std::uint64_t{r.key.src_port} << 24) |
              (std::uint64_t{r.key.dst_port} << 8) | r.key.proto,
          r.packets, r.bytes, std::uint64_t{r.tcp_flags}, r.start_ms,
          r.end_ms, std::uint64_t{r.sampling}}) {
      d.hash = util::hash_combine(d.hash, v);
    }
    ++d.count;
  }

  static Digest digest(const simnet::WildIspSim& wild, util::HourBin hour,
                       std::optional<unsigned> workers) {
    Digest d;
    const auto sink = [&d](const simnet::WildObs& o) { fold(d, o); };
    if (workers) {
      wild.hour_observations(hour, sink, *workers);
    } else {
      wild.hour_observations(hour, sink);
    }
    return d;
  }

  // Digests of the single-threaded generator before it was parallelised
  // (seed-99 population, default WildIspConfig).
  struct Pin {
    std::uint32_t lines;
    util::HourBin hour;
    Digest digest;
  };
  static constexpr Pin kPins[] = {
      {270'000, 0, {614'825, 0xe9288877d78fd840}},
      {270'000, 200, {858'548, 0xe2ed6cb53e9ac30f}},
      {3'000, 0, {6'427, 0x6a02cb0a0207a1a4}},
      {3'000, 200, {8'584, 0xe96d65b580c1fde4}},
  };

  static simnet::Catalog* catalog_;
  static simnet::Backend* backend_;
  static simnet::DomainRateModel* rates_;
};

simnet::Catalog* ScaleWildGenerator::catalog_ = nullptr;
simnet::Backend* ScaleWildGenerator::backend_ = nullptr;
simnet::DomainRateModel* ScaleWildGenerator::rates_ = nullptr;

TEST_F(ScaleWildGenerator, SequencePinnedAtEveryWorkerCount) {
  // 270 k lines is 66 blocks (more than the 64-block cache); 3 k lines is
  // one block, which always streams inline.
  for (const std::uint32_t lines : {270'000u, 3'000u}) {
    const World world{lines};
    for (const Pin& pin : kPins) {
      if (pin.lines != lines) continue;
      for (const std::optional<unsigned> workers :
           {std::optional<unsigned>{}, std::optional<unsigned>{0u},
            std::optional<unsigned>{1u}, std::optional<unsigned>{2u},
            std::optional<unsigned>{4u}}) {
        EXPECT_EQ(digest(world.wild, pin.hour, workers), pin.digest)
            << lines << " lines, hour " << pin.hour << ", workers "
            << (workers ? std::to_string(*workers) : "default");
      }
    }
  }
}

std::size_t process_threads() {
  const std::filesystem::path tasks{"/proc/self/task"};
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it{tasks, ec}, end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

TEST_F(ScaleWildGenerator, ThrowingSinkPropagatesAndStopsWorkers) {
  const World world{270'000};
  struct SinkFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  // A first thread makes sanitizer runtimes start their helper thread, so
  // the baseline count below already includes it.
  std::thread{[] {}}.join();
  const std::size_t threads_before = process_threads();
  std::uint64_t seen = 0;
  EXPECT_THROW(world.wild.hour_observations(
                   0,
                   [&seen](const simnet::WildObs&) {
                     if (++seen == 50'000) throw SinkFailure{"mid-hour"};
                   },
                   4),
               SinkFailure);
  EXPECT_EQ(seen, 50'000u);
  // No worker outlives the call: the thread count is back where it was
  // and no block gets built behind the caller's back.
  EXPECT_EQ(process_threads(), threads_before);
  const std::uint64_t builds = world.population.cache_stats().builds;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(world.population.cache_stats().builds, builds);
  // The generator holds no state across calls: the next hour is intact.
  EXPECT_EQ(digest(world.wild, 0, 4u), kPins[0].digest);
}

TEST_F(ScaleWildGenerator, ConcurrentCallersEachGetThePinnedSequence) {
  const World world{270'000};
  Digest a, b;
  std::thread other{[&] { a = digest(world.wild, 0, 2u); }};
  b = digest(world.wild, 0, 2u);
  other.join();
  EXPECT_EQ(a, kPins[0].digest);
  EXPECT_EQ(b, kPins[0].digest);
}

TEST_F(ScaleWildGenerator, BlockCacheCountsRebuildsPerHourWalk) {
  const auto walk = [](const World& world, unsigned workers) {
    world.wild.hour_observations(0, [](const simnet::WildObs&) {}, workers);
  };
  // 300 k lines = 74 blocks against the 64-block LRU: a sequential walk
  // evicts every block before it comes round again, so each hour walk
  // rebuilds all 74, inline or parallel.
  {
    const World world{300'000};
    ASSERT_EQ(world.population.block_count(), 74u);
    walk(world, 0);
    const auto first = world.population.cache_stats();
    EXPECT_EQ(first.builds, 74u);
    EXPECT_EQ(first.hits, 0u);
    EXPECT_EQ(first.evictions, 74u - 64u);
    walk(world, 2);
    const auto second = world.population.cache_stats();
    EXPECT_EQ(second.builds - first.builds, 74u);
    EXPECT_EQ(second.hits, 0u);
    EXPECT_EQ(second.evictions - first.evictions, 74u);
  }
  // 100 k lines = 25 blocks: fully resident after the first walk.
  {
    const World world{100'000};
    walk(world, 2);
    const auto first = world.population.cache_stats();
    EXPECT_EQ(first.builds, 25u);
    walk(world, 0);
    const auto second = world.population.cache_stats();
    EXPECT_EQ(second.builds, first.builds);
    EXPECT_EQ(second.hits - first.hits, 25u);
    EXPECT_EQ(second.evictions, 0u);
  }
}

// ---------------------------------------------------------------------
// FlatEvidenceMap at scale.

TEST(ScaleEvidenceMap, MillionEntriesLoadFactorAndAccounting) {
  // Entry layout: u64 subscriber + u32 service_plus1 + 28-byte Evidence,
  // padded to 8-byte alignment. memory_bytes() must stay this * slots.
  constexpr std::uint64_t kEntryBytes = 40;
  constexpr std::uint32_t kCount = 1'000'000;
  core::FlatEvidenceMap<core::Evidence> map;

  for (std::uint32_t i = 0; i < kCount; ++i) {
    bool inserted = false;
    core::Evidence& ev =
        map.find_or_insert(0x100000000ULL + i * 7, i % 40, inserted);
    ASSERT_TRUE(inserted);
    ev.set_packets(i);
    ev.set_first_seen(i % 336);
    ev.or_mask(0, 1ULL << (i % 64));
    if ((i & 0xfff) == 0) {
      // ≤0.5 load factor at every growth step (the `>=` rehash fix: the
      // old `>` allowed one insert past the bound before growing).
      ASSERT_GE(map.memory_bytes(), map.size() * 2 * kEntryBytes)
          << "load factor above 0.5 at size " << map.size();
      ASSERT_EQ(map.memory_bytes() % kEntryBytes, 0u);
    }
  }
  ASSERT_EQ(map.size(), kCount);
  EXPECT_GE(map.memory_bytes(), std::uint64_t{kCount} * 2 * kEntryBytes);

  // Iteration completeness across all rehash steps: every entry exactly
  // once, payload intact.
  std::uint64_t visited = 0, packet_sum = 0;
  map.for_each([&](std::uint64_t subscriber, std::uint16_t service,
                   const core::Evidence& ev) {
    ASSERT_GE(subscriber, 0x100000000ULL);
    ASSERT_LT(service, 40);
    packet_sum += ev.packets();
    ++visited;
  });
  EXPECT_EQ(visited, kCount);
  EXPECT_EQ(packet_sum,
            (std::uint64_t{kCount} * (kCount - 1)) / 2);  // sum 0..N-1

  // Spot lookups after the final rehash.
  for (std::uint32_t i = 0; i < kCount; i += 9973) {
    const core::Evidence* ev = map.find(0x100000000ULL + i * 7, i % 40);
    ASSERT_NE(ev, nullptr);
    EXPECT_EQ(ev->packets(), i);
  }
  EXPECT_EQ(map.find(0x100000000ULL, 41), nullptr);
}

TEST(ScaleEvidenceMap, GrowthKeepsLoadFactorBoundExactlyAtThreshold) {
  // Pin the `>=` fix at the exact boundary: with 1024 initial slots the
  // 512th insert must land in a grown table, never at load 0.5 + ε.
  core::FlatEvidenceMap<core::Evidence> map;
  constexpr std::uint64_t kEntryBytes = 40;
  for (std::uint32_t i = 0; i < 600; ++i) {
    bool inserted = false;
    map.find_or_insert(i, 0, inserted);
    ASSERT_TRUE(inserted);
    ASSERT_GE(map.memory_bytes() / kEntryBytes, 2 * map.size())
        << "after insert " << i + 1;
  }
}

// ---------------------------------------------------------------------
// Compact persistence formats (HSCK v3, HSVD v2).

struct RulesFixture {
  core::RuleSet rules;
  core::DetectorConfig config{.threshold = 0.5};

  RulesFixture() {
    for (core::ServiceId s = 0; s < 4; ++s) {
      core::DetectionRule rule;
      rule.service = s;
      rule.name = "vendor-" + std::to_string(s);
      rule.level = core::Level::kManufacturer;
      rule.monitored_domains = 8;
      for (std::uint16_t m = 0; m < 8; ++m) {
        rule.monitored_indices.push_back(m);
        for (util::DayBin day = 0; day < 2; ++day) {
          rules.hitlist.add(endpoint(s, m), 443, day, {s, m});
        }
      }
      rules.rules.push_back(std::move(rule));
    }
  }

  static net::IpAddress endpoint(core::ServiceId s, std::uint16_t m) {
    return net::IpAddress::v4(0x0A000000U | (std::uint32_t{s} << 16) | m);
  }

  void feed(core::Detector& det) const {
    for (core::SubscriberKey sub = 1; sub <= 40; ++sub) {
      for (std::uint16_t m = 0; m < 8; ++m) {
        const auto s = static_cast<core::ServiceId>((sub + m) % 4);
        // Large packet counts force the wide-packets flag on some rows.
        const std::uint64_t packets =
            sub == 7 ? 0x1'0000'0005ULL : 2 + m;
        det.observe(sub, endpoint(s, m), 443, packets, (sub + m) % 48);
      }
    }
  }
};

using EvidenceRow =
    std::tuple<core::SubscriberKey, core::ServiceId, std::uint64_t,
               std::uint64_t, std::uint16_t, std::uint64_t, util::HourBin,
               util::HourBin>;

template <typename DetectorT>
std::vector<EvidenceRow> evidence_rows(const DetectorT& det) {
  std::vector<EvidenceRow> rows;
  det.for_each_evidence([&](core::SubscriberKey sub, core::ServiceId svc,
                            const core::Evidence& ev) {
    rows.emplace_back(sub, svc, ev.mask(0), ev.mask(1), ev.distinct(),
                      ev.packets(), ev.first_seen(), ev.satisfied_hour());
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ScaleCheckpoint, V3RestoresIdenticalStateAndIsSmaller) {
  const RulesFixture fx;
  core::Detector det{fx.rules.hitlist, fx.rules, fx.config};
  fx.feed(det);
  const auto rows = evidence_rows(det);
  ASSERT_FALSE(rows.empty());

  const auto v2 = core::save_checkpoint_interned(det);
  const auto v3 = core::save_checkpoint_compact(det);
  EXPECT_EQ(v3[7], 3);  // u32 magic, then big-endian u32 version
  EXPECT_LT(v3.size(), v2.size());
  EXPECT_EQ(core::save_checkpoint_compact(det), v3);  // deterministic

  core::Detector restored{fx.rules.hitlist, fx.rules, fx.config};
  ASSERT_TRUE(core::restore_checkpoint(v3, restored));
  EXPECT_EQ(evidence_rows(restored), rows);
  EXPECT_EQ(restored.stats().flows, det.stats().flows);
  EXPECT_EQ(restored.stats().matched, det.stats().matched);

  // Sharded engines restore and re-serialize to the same v3 bytes.
  for (const unsigned shards : {1u, 4u}) {
    core::ShardedDetector sharded{fx.rules.hitlist, fx.rules, fx.config,
                                  shards};
    ASSERT_TRUE(core::restore_checkpoint(v3, sharded));
    EXPECT_EQ(evidence_rows(sharded), rows) << "shards=" << shards;
    EXPECT_EQ(core::save_checkpoint_compact(sharded), v3)
        << "shards=" << shards;
  }
}

TEST(ScaleCheckpoint, V3RejectsTruncationAndTrailingBytes) {
  const RulesFixture fx;
  core::Detector det{fx.rules.hitlist, fx.rules, fx.config};
  fx.feed(det);
  const auto v3 = core::save_checkpoint_compact(det);

  core::Detector target{fx.rules.hitlist, fx.rules, fx.config};
  for (const std::size_t cut : {v3.size() - 1, v3.size() / 2,
                                std::size_t{12}}) {
    std::string error;
    EXPECT_FALSE(core::restore_checkpoint(
        std::span{v3.data(), cut}, target, &error));
    EXPECT_FALSE(error.empty());
  }
  auto padded = v3;
  padded.push_back(0);
  EXPECT_FALSE(core::restore_checkpoint(padded, target));
  // The rejected restores must not have clobbered the (empty) target.
  EXPECT_TRUE(evidence_rows(target).empty());
}

flow::EvidenceDelta sample_delta(std::uint32_t version) {
  flow::EvidenceDelta delta;
  delta.version = version;
  delta.collector = 9;
  delta.seq = 3;
  delta.epoch = 17;
  delta.threshold_bits = 0x3fd999999999999aULL;
  delta.labels = {"vendor-0", "vendor-1"};
  for (std::uint32_t i = 0; i < 32; ++i) {
    flow::DeltaRow row;
    row.subscriber = 0x2000 + i;
    row.label = i % 2;
    row.mask0 = 0x5ULL << (i % 32);
    row.mask1 = i % 8 == 0 ? (1ULL << 40) : 0;     // mostly absent in v2
    row.packets = i % 5 == 0 ? 0x2'0000'0000ULL : 100 + i;
    row.first_seen = i;
    delta.rows.push_back(row);
  }
  return delta;
}

TEST(ScaleDelta, V2RoundTripsSmallerAndPreservesArrivalVersion) {
  const auto v1_bytes = flow::encode_delta(sample_delta(flow::kDeltaVersion));
  const auto v2_bytes =
      flow::encode_delta(sample_delta(flow::kDeltaVersionCompact));
  EXPECT_LT(v2_bytes.size(), v1_bytes.size());

  flow::EvidenceDelta from_v1, from_v2;
  ASSERT_TRUE(flow::decode_delta(v1_bytes, from_v1));
  ASSERT_TRUE(flow::decode_delta(v2_bytes, from_v2));
  EXPECT_EQ(from_v1.version, flow::kDeltaVersion);
  EXPECT_EQ(from_v2.version, flow::kDeltaVersionCompact);
  ASSERT_EQ(from_v1.rows.size(), from_v2.rows.size());
  for (std::size_t i = 0; i < from_v1.rows.size(); ++i) {
    EXPECT_EQ(from_v1.rows[i].subscriber, from_v2.rows[i].subscriber);
    EXPECT_EQ(from_v1.rows[i].mask0, from_v2.rows[i].mask0);
    EXPECT_EQ(from_v1.rows[i].mask1, from_v2.rows[i].mask1);
    EXPECT_EQ(from_v1.rows[i].packets, from_v2.rows[i].packets);
    EXPECT_EQ(from_v1.rows[i].first_seen, from_v2.rows[i].first_seen);
  }
  // Canonical: decoded messages re-encode to the bytes they arrived as,
  // both versions (the fuzzer's round-trip property, pinned here too).
  EXPECT_EQ(flow::encode_delta(from_v1), v1_bytes);
  EXPECT_EQ(flow::encode_delta(from_v2), v2_bytes);
}

TEST(ScaleDelta, V2RejectsNonCanonicalWidths) {
  // A v2 row claiming the wide-packets flag for a value that fits 32 bits
  // (or a present-but-zero mask word) would make decode→encode lossy, so
  // the decoder must reject it. Build the bytes by hand from a valid row.
  auto delta = sample_delta(flow::kDeltaVersionCompact);
  delta.rows.resize(1);
  delta.rows[0].mask1 = 0;
  delta.rows[0].packets = 50;
  const auto bytes = flow::encode_delta(delta);
  // Row layout after the 8-byte row count: u64 subscriber + u32 label,
  // then the flag byte.
  const std::size_t flags_at = bytes.size() - (8 + 4 + 1 + 8 + 4 + 4) + 12;
  flow::EvidenceDelta out;
  ASSERT_TRUE(flow::decode_delta(bytes, out));
  for (const std::uint8_t bad_flags : {0x01, 0x02, 0x04, 0xff}) {
    auto mutated = bytes;
    mutated[flags_at] = bad_flags;
    std::string error;
    EXPECT_FALSE(flow::decode_delta(mutated, out, &error))
        << "flags=" << int{bad_flags};
    EXPECT_FALSE(error.empty());
  }
}

}  // namespace
}  // namespace haystack
