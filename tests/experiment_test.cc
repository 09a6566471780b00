#include "eval/experiment.h"

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "eval/table.h"
#include "test_util.h"

namespace copydetect {
namespace {

TEST(MakeWorldByName, KnownNames) {
  for (const char* name :
       {"book-cs", "book-full", "stock-1day", "stock-2wk"}) {
    auto world = MakeWorldByName(name, 0.02, 1);
    ASSERT_TRUE(world.ok()) << name;
    EXPECT_GT(world->data.num_sources(), 0u);
    EXPECT_GT(world->data.num_observations(), 0u);
  }
  auto example = MakeWorldByName("example", 1.0, 1);
  ASSERT_TRUE(example.ok());
  EXPECT_EQ(example->data.num_sources(), 10u);
}

TEST(MakeWorldByName, UnknownNameFails) {
  auto world = MakeWorldByName("mystery", 1.0, 1);
  ASSERT_FALSE(world.ok());
  EXPECT_EQ(world.status().code(), StatusCode::kNotFound);
}

TEST(DefaultSamplingRate, MatchesPaper) {
  EXPECT_EQ(DefaultSamplingRate("stock-2wk"), 0.01);
  EXPECT_EQ(DefaultSamplingRate("book-cs"), 0.1);
  EXPECT_EQ(DefaultSamplingRate("stock-1day"), 0.1);
}

TEST(RunFusion, SmokeOnSmallWorld) {
  testutil::World world = testutil::SmallWorld(601);
  FusionOptions options;
  options.params = testutil::PaperParams();
  options.max_rounds = 6;
  auto outcome = RunFusion(world, "hybrid", options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->detector_name, "hybrid");
  EXPECT_GT(outcome->counters.Total(), 0u);
  EXPECT_GT(outcome->seconds, 0.0);
  EXPECT_EQ(outcome->fusion.truth.size(), world.data.num_items());
}

TEST(RunFusion, DetectorsFindPlantedCopiers) {
  testutil::World world = testutil::SmallWorld(602);
  FusionOptions options;
  options.params = testutil::PaperParams();
  options.max_rounds = 6;
  auto outcome = RunFusion(world, "pairwise", options);
  ASSERT_TRUE(outcome.ok());
  PrfScores prf =
      ComparePairsToTruth(outcome->fusion.copies, world.copy_pairs);
  EXPECT_GE(prf.recall, 0.7);
}

TEST(MakeSampledDetector, WrapsBase) {
  auto detector = MakeSampledDetector(testutil::PaperParams(),
                                      "incremental",
                                      SamplingMethod::kScaleSample, 0.1);
  ASSERT_NE(detector, nullptr);
  EXPECT_EQ(detector->name(), "scale-sample(incremental)");
}

TEST(TextTable, RendersAligned) {
  TextTable table;
  table.SetHeader({"Method", "Time"});
  table.AddRow({"pairwise", "321"});
  table.AddRow({"index", "1.6"});
  std::string out = table.Render("Table VII");
  EXPECT_NE(out.find("Table VII"), std::string::npos);
  EXPECT_NE(out.find("pairwise"), std::string::npos);
  EXPECT_NE(out.find("Method"), std::string::npos);
  // Column alignment: "Time" starts at the same offset in each line.
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(RunFusion, UnknownDetectorNameIsNotFound) {
  auto world = MakeWorldByName("example", 1.0, 1);
  ASSERT_TRUE(world.ok());
  FusionOptions options;
  options.params = testutil::PaperParams();
  auto outcome = RunFusion(*world, "bogus", options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace copydetect
