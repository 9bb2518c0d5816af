// Tests for the scenario configuration loader: parsing, override
// application, and error reporting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "simnet/scenario.hpp"

namespace haystack::simnet {
namespace {

TEST(ScenarioTest, ParsesAllKeys) {
  std::istringstream is{R"(
# study: high-sampling, Echo-heavy market
seed 7
lines 123456
sampling 500
rotation 0.10
dual_stack 0.5
base_active_prob 0.05
penetration "Echo Dot" 0.08   # doubled market share
wild_extra "Alexa Enabled" 0.20
)"};
  std::string error;
  const auto scenario = parse_scenario(is, &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->seed, 7u);
  EXPECT_EQ(scenario->lines, 123456u);
  EXPECT_EQ(scenario->sampling, 500u);
  EXPECT_DOUBLE_EQ(*scenario->rotation, 0.10);
  ASSERT_EQ(scenario->penetration_overrides.size(), 1u);
  EXPECT_EQ(scenario->penetration_overrides[0].first, "Echo Dot");
  EXPECT_DOUBLE_EQ(scenario->penetration_overrides[0].second, 0.08);
  ASSERT_EQ(scenario->wild_extra_overrides.size(), 1u);

  const auto pop = scenario->apply(PopulationConfig{});
  EXPECT_EQ(pop.lines, 123456u);
  EXPECT_DOUBLE_EQ(pop.daily_rotation_probability, 0.10);
  const auto wild = scenario->apply(WildIspConfig{});
  EXPECT_EQ(wild.sampling, 500u);
  EXPECT_DOUBLE_EQ(wild.base_active_prob, 0.05);
}

TEST(ScenarioTest, OverridesApplyToCatalog) {
  std::istringstream is{
      "penetration \"Echo Dot\" 0.09\nwild_extra \"Samsung IoT\" 0.02\n"};
  const auto scenario = parse_scenario(is);
  ASSERT_TRUE(scenario.has_value());
  Catalog catalog;
  std::string error;
  ASSERT_TRUE(scenario->apply_overrides(catalog, &error)) << error;
  EXPECT_DOUBLE_EQ(catalog.product_by_name("Echo Dot")->penetration, 0.09);
  EXPECT_DOUBLE_EQ(
      catalog.unit_by_name("Samsung IoT")->wild_extra_penetration, 0.02);
}

TEST(ScenarioTest, UnknownNamesFailLoudly) {
  std::istringstream is{"penetration \"No Such Device\" 0.1\n"};
  const auto scenario = parse_scenario(is);
  ASSERT_TRUE(scenario.has_value());
  Catalog catalog;
  std::string error;
  EXPECT_FALSE(scenario->apply_overrides(catalog, &error));
  EXPECT_NE(error.find("No Such Device"), std::string::npos);
}

TEST(ScenarioTest, SyntaxErrorsReported) {
  const auto expect_error = [](const std::string& text) {
    std::istringstream is{text};
    std::string error;
    EXPECT_FALSE(parse_scenario(is, &error).has_value()) << text;
    EXPECT_FALSE(error.empty());
  };
  expect_error("bogus 1\n");
  expect_error("sampling 0\n");
  expect_error("rotation 1.5\n");
  expect_error("penetration \"Echo Dot\" 2.0\n");
  expect_error("lines notanumber\n");
  // Unsigned keys refuse a sign instead of wrapping -1 to the maximum.
  for (const char* key :
       {"seed", "lines", "sampling", "pipeline_shards", "pipeline_queue",
        "pipeline_wave", "impair_seed", "delta_seed", "vantage_collectors",
        "vantage_kill_collector", "vantage_kill_hour",
        "vantage_restart_hour"}) {
    expect_error(std::string{key} + " -1\n");
  }
  // Keys that size threads or buffers are bounded; the bound itself parses.
  expect_error("pipeline_shards 257\n");
  expect_error("vantage_collectors 257\n");
  expect_error("pipeline_wave 65537\n");
  std::istringstream at_bounds{
      "pipeline_shards 256\nvantage_collectors 256\npipeline_wave 65536\n"};
  EXPECT_TRUE(parse_scenario(at_bounds).has_value());
}

TEST(ScenarioTest, EmptyInputIsValid) {
  std::istringstream is{"\n# nothing\n"};
  const auto scenario = parse_scenario(is);
  ASSERT_TRUE(scenario.has_value());
  EXPECT_FALSE(scenario->seed.has_value());
  EXPECT_TRUE(scenario->penetration_overrides.empty());
}

}  // namespace
}  // namespace haystack::simnet
