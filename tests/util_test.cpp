// Unit tests for the util substrate: RNG reproducibility and distribution
// sanity, hashing stability, the simulation clock, statistics, and table
// formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace haystack::util {
namespace {

TEST(Pcg32Test, Deterministic) {
  Pcg32 a{42, 1};
  Pcg32 b{42, 1};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Pcg32Test, StreamsDiffer) {
  Pcg32 a{42, 1};
  Pcg32 b{42, 2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Pcg32Test, BoundedStaysInBounds) {
  Pcg32 rng{7, 7};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Pcg32Test, UniformInUnitInterval) {
  Pcg32 rng{9, 3};
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Pcg32Test, PoissonMeanMatches) {
  Pcg32 rng{11, 5};
  for (const double mean : {0.5, 3.0, 25.0, 100.0, 1000.0}) {
    double sum = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    const double observed = sum / kN;
    EXPECT_NEAR(observed, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Pcg32Test, PoissonWithLimitMatchesDrawForDraw) {
  // Knuth means (below 30) and Gaussian means (30 and up).
  for (const double mean : {0.05, 1.0, 29.99, 30.0, 747.0}) {
    Pcg32 a{17, 3};
    Pcg32 b{17, 3};
    const double limit = std::exp(-mean);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(a.poisson(mean), b.poisson(mean, limit))
          << "mean=" << mean << " draw " << i;
    }
    EXPECT_EQ(a(), b()) << "mean=" << mean;
  }
}

TEST(Pcg32Test, GeometricAndExponentialMeans) {
  Pcg32 rng{13, 5};
  double geo_sum = 0.0;
  double exp_sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    geo_sum += static_cast<double>(rng.geometric(0.25));
    exp_sum += rng.exponential(4.0);
  }
  EXPECT_NEAR(geo_sum / kN, 3.0, 0.15);  // (1-p)/p = 3
  EXPECT_NEAR(exp_sum / kN, 4.0, 0.2);
}

TEST(Pcg32Test, LognormalMedian) {
  Pcg32 rng{17, 5};
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(rng.lognormal(1.0, 0.5));
  std::nth_element(samples.begin(), samples.begin() + 10000, samples.end());
  EXPECT_NEAR(samples[10000], std::exp(1.0), 0.15);
}

TEST(DeriveRngTest, IndependentPerEntityAndBin) {
  Pcg32 a = derive_rng(1, 2, 3);
  Pcg32 b = derive_rng(1, 2, 3);
  EXPECT_EQ(a(), b());
  Pcg32 c = derive_rng(1, 2, 4);
  Pcg32 d = derive_rng(1, 3, 3);
  const auto va = derive_rng(1, 2, 3)();
  EXPECT_NE(va, c());
  EXPECT_NE(va, d());
}

TEST(DeriveRngTest, FamilyMatchesDeriveRng) {
  for (const std::uint64_t seed : {0ULL, 99ULL, 0x3f10b5ULL ^ 123}) {
    const RngFamily family{seed};
    for (std::uint64_t entity = 0; entity < 50; ++entity) {
      for (const std::uint64_t bin : {0ULL, 7ULL, 335ULL}) {
        Pcg32 a = derive_rng(seed, entity, bin);
        Pcg32 b = family.at(entity, bin);
        for (int i = 0; i < 4; ++i) ASSERT_EQ(a(), b());
      }
    }
  }
}

// chance(p) compares the double r · 2^-32 against p; chance_threshold
// claims the integer compare r < threshold is the same test. Checked at
// the words on both sides of each threshold, where rounding would show.
void expect_threshold_exact(double p) {
  const std::uint64_t t = chance_threshold(p);
  ASSERT_GE(t, 1u) << p;
  ASSERT_LE(t, std::uint64_t{1} << 32) << p;
  for (std::int64_t delta = -2; delta <= 1; ++delta) {
    const std::int64_t word = static_cast<std::int64_t>(t) + delta;
    if (word < 0 || word > 0xffffffffLL) continue;
    const auto r = static_cast<std::uint64_t>(word);
    EXPECT_EQ(static_cast<double>(r) * 0x1p-32 < p, r < t)
        << "p=" << p << " word " << r;
  }
}

TEST(Pcg32Test, ChanceThresholdMatchesChanceDrawForDraw) {
  std::vector<double> ps{std::numeric_limits<double>::denorm_min(),
                         0x1p-33, 0.05, 0.5, 1.0 - 0x1p-53};
  for (const std::uint64_t k :
       {1ULL, 2ULL, 3ULL, 12'345'678ULL, 1ULL << 31, 0xffffffffULL}) {
    const double exact = static_cast<double>(k) * 0x1p-32;
    ps.push_back(exact);
    ps.push_back(std::nextafter(exact, 0.0));
    ps.push_back(std::nextafter(exact, 1.0));
  }
  for (const double p : ps) {
    expect_threshold_exact(p);
    Pcg32 a{23, 9};
    Pcg32 b{23, 9};
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(a.chance(p), b() < chance_threshold(p)) << "p=" << p;
    }
    EXPECT_EQ(a(), b());
  }
  // A million random probabilities, one draw each, on streams in step.
  Pcg32 pick{5, 5};
  Pcg32 a{29, 1};
  Pcg32 b{29, 1};
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint32_t high = pick();
    const std::uint32_t low = pick() & 0xff;
    const double p = (static_cast<double>(high) + 0.5) * 0x1p-32 +
                     static_cast<double>(low) * 0x1p-45;
    if (!(p > 0.0 && p < 1.0)) continue;
    if (i % 1000 == 0) expect_threshold_exact(p);
    ASSERT_EQ(a.chance(p), b() < chance_threshold(p)) << "p=" << p;
  }
  EXPECT_EQ(a(), b());
  // Outside (0, 1) chance draws nothing; the threshold still decides.
  EXPECT_EQ(chance_threshold(0.0), 0u);
  EXPECT_EQ(chance_threshold(-1.0), 0u);
  EXPECT_EQ(chance_threshold(1.0), std::uint64_t{1} << 32);
  EXPECT_EQ(chance_threshold(7.0), std::uint64_t{1} << 32);
}

TEST(Pcg32Test, KnuthZeroBoundMatchesPoissonDrawForDraw) {
  // Knuth's loop returns 0 exactly when its first word is below the
  // bound, and poisson_after continues it from that word.
  Pcg32 a{31, 7};
  Pcg32 b{31, 7};
  for (double mean = 0.05; mean < 30.0; mean += 0.0137) {
    const double limit = std::exp(-mean);
    const std::uint64_t bound = poisson_zero_bound(limit);
    for (std::int64_t delta = -2; delta <= 1; ++delta) {
      const std::int64_t word = static_cast<std::int64_t>(bound) + delta;
      if (word < 0 || word > 0xffffffffLL) continue;
      const auto r = static_cast<std::uint64_t>(word);
      EXPECT_EQ(static_cast<double>(r) * 0x1p-32 <= limit, r < bound)
          << "mean=" << mean << " word " << r;
    }
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t count = a.poisson(mean, limit);
      const std::uint32_t first = b();
      ASSERT_EQ(count == 0, first < bound) << "mean=" << mean;
      ASSERT_EQ(count, b.poisson_after(first, limit)) << "mean=" << mean;
    }
  }
  EXPECT_EQ(a(), b());
}

TEST(Pcg32Test, PreparedBoundMatchesBoundedDrawForDraw) {
  std::vector<std::uint32_t> ns{1, 2, 3, 7, 900, 28'000, (1U << 31) + 1,
                                0xffffffffU};
  Pcg32 pick{37, 2};
  for (int i = 0; i < 200; ++i) ns.push_back(pick() >> (pick() % 32));
  for (const std::uint32_t n : ns) {
    const Bound bound{n};
    if (n > 1) {
      // The fastmod remainder at the edges and at random words.
      for (const std::uint32_t r :
           {0U, 1U, n - 1, n, bound.threshold(), bound.threshold() - 1,
            0xffffffffU}) {
        ASSERT_EQ(bound.mod(r), r % n) << "n=" << n << " r=" << r;
      }
      for (int i = 0; i < 1000; ++i) {
        const std::uint32_t r = pick();
        ASSERT_EQ(bound.mod(r), r % n) << "n=" << n << " r=" << r;
      }
    }
    Pcg32 a{41, 3};
    Pcg32 b{41, 3};
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(a.bounded(n), b.bounded(bound)) << "n=" << n;
    }
    EXPECT_EQ(a(), b()) << "n=" << n;
  }
}

TEST(Pcg32Test, GatedPairMatchesTwoBranchingDraws) {
  for (const std::uint64_t gate :
       {std::uint64_t{0}, std::uint64_t{1} << 31, std::uint64_t{3'435'973'837},
        std::uint64_t{1} << 32}) {
    Pcg32 a{43, 4};
    Pcg32 b{43, 4};
    for (int i = 0; i < 5000; ++i) {
      const auto [open, second] = a.gated_pair(gate);
      const std::uint32_t first = b();
      ASSERT_EQ(open, first < gate);
      if (open) {
        ASSERT_EQ(second, b());
      }
    }
    EXPECT_EQ(a(), b()) << "gate=" << gate;
  }
}

TEST(HashTest, Fnv1aKnownValues) {
  // FNV-1a 64 reference: empty string hashes to the offset basis.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_EQ(fnv1a("haystack"), fnv1a("haystack"));
}

TEST(HashTest, CombineNotCommutative) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(SimClockTest, WindowsMatchPaperSchedule) {
  // Nov 15 00:00 is hour 0.
  EXPECT_TRUE(in_active_window(0));
  EXPECT_TRUE(in_active_window(day_start(3) + 23));   // Nov 18 23:00
  EXPECT_FALSE(in_active_window(day_start(4)));       // Nov 19
  EXPECT_TRUE(in_idle_window(day_start(8)));          // Nov 23
  EXPECT_TRUE(in_idle_window(day_start(10) + 23));    // Nov 25 23:00
  EXPECT_FALSE(in_idle_window(day_start(11)));        // Nov 26
}

TEST(SimClockTest, Labels) {
  EXPECT_EQ(day_label(0), "Nov-15");
  EXPECT_EQ(day_label(13), "Nov-28");
  EXPECT_EQ(hour_label(25), "Nov-16 01:00");
}

TEST(SimClockTest, DiurnalWeightNormalized) {
  double sum = 0.0;
  for (unsigned h = 0; h < 24; ++h) sum += diurnal_weight(h);
  EXPECT_NEAR(sum / 24.0, 1.0, 1e-9);
  // Evening peak above overnight trough.
  EXPECT_GT(diurnal_weight(19), 3.0 * diurnal_weight(3));
}

TEST(EcdfTest, FractionsAndQuantiles) {
  Ecdf ecdf;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) ecdf.add(v);
  ecdf.freeze();
  EXPECT_DOUBLE_EQ(ecdf.fraction_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.fraction_at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(ecdf.fraction_at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(1.0), 4.0);
}

TEST(RunningStatsTest, MomentsAndExtremes) {
  RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(v);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(TopFractionTest, SelectsHeaviest) {
  const std::vector<std::uint64_t> weights{10, 500, 20, 300, 5};
  const auto top20 = top_fraction_indices(weights, 0.2);
  ASSERT_EQ(top20.size(), 1u);
  EXPECT_EQ(top20[0], 1u);
  const auto top40 = top_fraction_indices(weights, 0.4);
  ASSERT_EQ(top40.size(), 2u);
  EXPECT_EQ(top40[0], 1u);
  EXPECT_EQ(top40[1], 3u);
  EXPECT_TRUE(top_fraction_indices({}, 0.5).empty());
}

TEST(TableTest, FormatsAlignedAndCsv) {
  TextTable t;
  t.header({"a", "bee"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("a    bee"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "a,bee\n1,2\n333,4\n");
}

TEST(TableTest, CsvQuoting) {
  TextTable t;
  t.row({"x,y", "he said \"hi\""});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(FormatTest, Numbers) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_percent(0.163), "16.3%");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace haystack::util
