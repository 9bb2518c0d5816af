// Paper-scale property suite (ISSUE 9, `ctest -L scale`).
//
// The scale PR replaces the materialized per-line population CSR with
// lazily built ownership blocks, packs Evidence to 28 bytes, and adds
// compact checkpoint/delta wire forms. Each of those is an "identical
// observable behaviour, smaller footprint" claim, and this suite pins the
// identical half:
//
//   - streaming Population == a materialized reference CSR, bit for bit,
//     at 10k/80k/200k lines (ownership, active sets, addressing across
//     rotation days, dual-stack draws) — the reference reimplements the
//     pre-PR generation inline so a regression in the lazy path cannot
//     hide behind a shared helper;
//   - a 15M-line population (the paper's ISP) stays inside 100.64.0.0/10,
//     builds only the blocks it touches, and builds each block once even
//     when threads race on it;
//   - FlatEvidenceMap at a million entries: the ≤0.5 load-factor
//     invariant (the `>=` growth fix), memory_bytes() accounting, and
//     iteration completeness across every rehash step;
//   - the compact HSCK checkpoint rejects truncation and trailing bytes,
//     and the HSVD delta decoder rejects non-canonical field widths;
//   - the block-parallel wild-ISP generator emits the exact observation
//     sequence of the single-threaded one at every worker count, under
//     concurrent callers and when its sink throws or stalls, and builds
//     every block once however many hours it walks.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <latch>
#include <optional>
#include <ostream>
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
  const simnet::Population population{catalog, {.seed = 99, .lines = lines}};
  const ReferenceCsr ref = build_reference(catalog, 99, lines);

  // A span taken while only the first block is built must survive every
  // other block being built after it.
  const simnet::LineId early_line = ref.active.front();
  const auto early = population.devices_of(early_line);
  const std::vector<simnet::OwnedDevice> early_copy(early.begin(),
                                                    early.end());

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

  ASSERT_EQ(early.size(), early_copy.size());
  EXPECT_EQ(early.data(), population.devices_of(early_line).data());
  for (std::size_t i = 0; i < early.size(); ++i) {
    EXPECT_EQ(early[i].product, early_copy[i].product);
    EXPECT_EQ(early[i].unit, early_copy[i].unit);
  }
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

TEST(ScalePopulation, TouchedBlocksAloneAreBuilt) {
  const simnet::Catalog catalog;
  const simnet::Population population{catalog, {.lines = 15'000'000}};
  // Construction builds nothing.
  EXPECT_EQ(population.blocks_built(), 0u);
  const std::uint64_t empty = population.memory_bytes();
  // Touch k lines scattered over the whole range, each in its own block,
  // twice: each touched block is built once and then kept.
  std::uint64_t k = 0;
  for (int round = 0; round < 2; ++round) {
    k = 0;
    for (simnet::LineId line = 0; line < 15'000'000; line += 500'009) {
      (void)population.devices_of(line);
      ++k;
    }
  }
  EXPECT_EQ(k, 30u);
  EXPECT_EQ(population.blocks_built(), k);
  // A block holds ~1.3 k active lines and ~1.6 k devices: ~20 KiB.
  constexpr std::uint64_t kBlockBound = 24u << 10;
  EXPECT_GT(population.memory_bytes(), empty);
  EXPECT_LE(population.memory_bytes() - empty, k * kBlockBound);
}

TEST(ScalePopulation, RacingThreadsShareOneBuild) {
  const simnet::Catalog catalog;
  const simnet::PopulationConfig config{.seed = 99, .lines = 3 * 4096};
  // An active line of block 1, found on a separate instance so the raced
  // one starts with nothing built.
  simnet::LineId line = 0;
  {
    const simnet::Population probe{catalog, config};
    probe.for_each_active_line_in_block(
        1, [&line](simnet::LineId l, std::span<const simnet::OwnedDevice>) {
          if (line == 0) line = l;
        });
  }
  ASSERT_NE(line, 0u);

  const simnet::Population population{catalog, config};
  constexpr unsigned kThreads = 4;
  std::latch start{kThreads};
  std::vector<const simnet::OwnedDevice*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      if (t % 2 == 0) {
        seen[t] = population.devices_of(line).data();
        return;
      }
      population.for_each_active_line_in_block(
          1, [&](simnet::LineId l,
                 std::span<const simnet::OwnedDevice> devices) {
            if (l == line) seen[t] = devices.data();
          });
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(population.blocks_built(), 1u);
  ASSERT_NE(seen[0], nullptr);
  for (unsigned t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]) << t;
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
    explicit World(std::uint32_t lines, const simnet::WildIspConfig& config =
                                            simnet::WildIspConfig{})
        : population{*catalog_, {.seed = 99, .lines = lines}},
          wild{*backend_, population, *rates_, config} {}
    simnet::Population population;
    simnet::WildIspSim wild;
  };

  // Usage probabilities raised until most device-hours are active and many
  // heavy: most draws take the Poisson path, gossip domains' heavy rates
  // reach λ ≥ 30 (the Gaussian approximation), the usage probability of
  // high-diurnal units exceeds 1 at peak hours, and Knuth loops run long.
  static simnet::WildIspConfig busy_config() {
    return {.base_active_prob = 0.6, .heavy_session_prob = 0.3};
  }

  struct Digest {
    std::uint64_t count = 0;
    std::uint64_t hash = 0;
    friend bool operator==(const Digest&, const Digest&) = default;
    friend std::ostream& operator<<(std::ostream& os, const Digest& d) {
      return os << "{" << d.count << ", 0x" << std::hex << d.hash << std::dec
                << "}";
    }
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

  // Pinned digests (seed-99 population; default WildIspConfig unless
  // `busy`). Hours 0 and 200 come from the single-threaded generator before
  // it was parallelised; hour 335 and the busy pin from the generator that
  // built every observation in place, before the compact hand-off record
  // and the integer-threshold draw kernel. Hour 335 is the study's last
  // hour: the last day of daily address sets and the most identifier
  // rotations.
  struct Pin {
    std::uint32_t lines;
    util::HourBin hour;
    Digest digest;
    bool busy;
  };
  static constexpr Pin kPins[] = {
      {270'000, 0, {614'825, 0xe9288877d78fd840}, false},
      {270'000, 200, {858'548, 0xe2ed6cb53e9ac30f}, false},
      {270'000, 335, {771'808, 0xbbd72dcf9391b160}, false},
      {3'000, 0, {6'427, 0x6a02cb0a0207a1a4}, false},
      {3'000, 200, {8'584, 0xe96d65b580c1fde4}, false},
      {3'000, 335, {7'669, 0xaf79bc700609869f}, false},
      {40'000, 20, {450'841, 0xb10b8c78f875dbeb}, true},
  };

  // Every worker count the generator is pinned at: the machine's default,
  // inline, and 1–7 workers (more workers than spare CPUs included).
  static constexpr std::optional<unsigned> kWorkerCounts[] = {
      std::nullopt, 0u, 1u, 2u, 3u, 4u, 7u};

  static simnet::Catalog* catalog_;
  static simnet::Backend* backend_;
  static simnet::DomainRateModel* rates_;
};

simnet::Catalog* ScaleWildGenerator::catalog_ = nullptr;
simnet::Backend* ScaleWildGenerator::backend_ = nullptr;
simnet::DomainRateModel* ScaleWildGenerator::rates_ = nullptr;

TEST_F(ScaleWildGenerator, SequencePinnedAtEveryWorkerCount) {
  // 270 k lines is 66 blocks, 40 k lines 10; 3 k lines is one block,
  // which always streams inline.
  for (const Pin& pin : kPins) {
    const World world{pin.lines,
                      pin.busy ? busy_config() : simnet::WildIspConfig{}};
    for (const std::optional<unsigned> workers : kWorkerCounts) {
      EXPECT_EQ(digest(world.wild, pin.hour, workers), pin.digest)
          << pin.lines << " lines, hour " << pin.hour
          << (pin.busy ? " (busy)" : "") << ", workers "
          << (workers ? std::to_string(*workers) : "default");
    }
  }
}

TEST_F(ScaleWildGenerator, BusyPinReachesTheGaussianPath) {
  // The busy pin only guards the Poisson draw's large-mean branch if some
  // heavy rate reaches it and heavy sessions actually emit large counts.
  const simnet::WildIspConfig busy = busy_config();
  double max_lambda = 0.0;
  for (const simnet::DetectionUnit& unit : catalog_->units()) {
    for (const simnet::UnitDomain* dom : catalog_->domains_of(unit.id)) {
      max_lambda = std::max(
          max_lambda, rates_->idle_rate(unit.id, dom->index) *
                          unit.active_multiplier * busy.heavy_session_factor /
                          busy.sampling);
    }
  }
  EXPECT_GE(max_lambda, 30.0);
  const Pin& pin = *std::find_if(std::begin(kPins), std::end(kPins),
                                 [](const Pin& p) { return p.busy; });
  const World world{pin.lines, busy};
  std::uint64_t max_packets = 0;
  std::uint64_t flows = 0;
  world.wild.hour_observations(pin.hour, [&](const simnet::WildObs& o) {
    max_packets = std::max(max_packets, o.flow.packets);
    ++flows;
  });
  EXPECT_GE(max_packets, 100u);
  EXPECT_EQ(flows, pin.digest.count);
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
  const std::uint64_t builds = world.population.blocks_built();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(world.population.blocks_built(), builds);
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

TEST_F(ScaleWildGenerator, StallingSinkKeepsTheSequence) {
  // The sink pauses every few thousand observations, so the workers fill
  // every block slot and wait on the caller, and the caller then drains
  // slots that were filled long before: the hand-off under backpressure.
  const World world{270'000};
  for (const unsigned workers : {1u, 3u, 7u}) {
    Digest d;
    world.wild.hour_observations(
        0,
        [&d](const simnet::WildObs& o) {
          fold(d, o);
          if (d.count % 4096 == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        },
        workers);
    EXPECT_EQ(d, kPins[0].digest) << workers << " workers";
  }
}

TEST_F(ScaleWildGenerator, HourWalksBuildEachBlockOnce) {
  // 300 k lines = 74 blocks. The first walk builds them all; later walks,
  // inline or parallel, reuse them.
  const World world{300'000};
  ASSERT_EQ(world.population.block_count(), 74u);
  EXPECT_EQ(world.population.blocks_built(), 0u);
  world.wild.hour_observations(0, [](const simnet::WildObs&) {}, 0);
  EXPECT_EQ(world.population.blocks_built(), 74u);
  world.wild.hour_observations(1, [](const simnet::WildObs&) {}, 2);
  EXPECT_EQ(world.population.blocks_built(), 74u);
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

flow::EvidenceDelta sample_delta() {
  flow::EvidenceDelta delta;
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
    row.mask1 = i % 8 == 0 ? (1ULL << 40) : 0;     // mostly absent
    row.packets = i % 5 == 0 ? 0x2'0000'0000ULL : 100 + i;
    row.first_seen = i;
    delta.rows.push_back(row);
  }
  return delta;
}

TEST(ScaleDelta, V2RejectsNonCanonicalWidths) {
  // A v2 row claiming the wide-packets flag for a value that fits 32 bits
  // (or a present-but-zero mask word) would make decode→encode lossy, so
  // the decoder must reject it. Build the bytes by hand from a valid row.
  auto delta = sample_delta();
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
