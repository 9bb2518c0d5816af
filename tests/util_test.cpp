// Unit tests for the util substrate: RNG reproducibility and distribution
// sanity, hashing stability, the simulation clock, statistics, and table
// formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

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
