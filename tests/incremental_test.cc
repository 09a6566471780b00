#include "core/incremental.h"

#include <gtest/gtest.h>

#include "core/hybrid.h"
#include "eval/metrics.h"
#include "fusion/truth_finder.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::PaperParams;

FusionOptions Options() {
  FusionOptions options;
  options.params = PaperParams();
  options.max_rounds = 8;
  return options;
}

TEST(IncrementalDetector, FirstTwoRoundsAreFromScratch) {
  testutil::World world = testutil::SmallWorld(201);
  IncrementalDetector detector(PaperParams());
  IterativeFusion fusion(Options());
  auto result = fusion.Run(world.data, &detector);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(detector.round_stats().size(), 3u);
  EXPECT_TRUE(detector.round_stats()[0].from_scratch);
  EXPECT_TRUE(detector.round_stats()[1].from_scratch);
  EXPECT_FALSE(detector.round_stats()[2].from_scratch);
}

TEST(IncrementalDetector, ResultsCloseToHybrid) {
  for (uint64_t seed : {211ULL, 212ULL, 213ULL}) {
    testutil::World world = testutil::SmallWorld(seed, 40, 300);

    IncrementalDetector incremental(PaperParams());
    HybridDetector hybrid(PaperParams());
    IterativeFusion fusion(Options());

    auto inc_run = fusion.Run(world.data, &incremental);
    auto hyb_run = fusion.Run(world.data, &hybrid);
    ASSERT_TRUE(inc_run.ok());
    ASSERT_TRUE(hyb_run.ok());

    PrfScores prf = ComparePairs(inc_run->copies, hyb_run->copies);
    EXPECT_GE(prf.f1, 0.9) << "seed " << seed;

    double fusion_diff = FusionDifference(world.data, inc_run->truth,
                                          hyb_run->truth);
    EXPECT_LE(fusion_diff, 0.05) << "seed " << seed;

    double acc_var =
        AccuracyVariance(inc_run->accuracies, hyb_run->accuracies);
    EXPECT_LE(acc_var, 0.05) << "seed " << seed;
  }
}

TEST(IncrementalDetector, LaterRoundsDoLessWork) {
  // Counted work, not wall-clock time: the per-round delta of the
  // detector's computation counters is deterministic.
  testutil::World world = testutil::SmallWorld(221, 50, 400);
  IncrementalDetector detector(PaperParams());
  FusionLoop loop(Options());
  ASSERT_TRUE(loop.Start(world.data, &detector).ok());
  std::vector<uint64_t> work;  // counted work of round i + 1
  while (true) {
    const uint64_t before = detector.counters().Total();
    auto stepped = loop.Step();
    ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
    if (!*stepped) break;
    work.push_back(detector.counters().Total() - before);
  }
  const auto& stats = detector.round_stats();
  ASSERT_GE(stats.size(), 3u);
  ASSERT_EQ(work.size(), stats.size());
  ASSERT_TRUE(stats[1].from_scratch);
  // Incremental rounds cost 3-14% of a from-scratch round in the
  // paper; allow up to 15% of round 2.
  const double scratch = static_cast<double>(work[1]);
  ASSERT_GT(scratch, 0.0);
  for (size_t i = 2; i < stats.size(); ++i) {
    EXPECT_FALSE(stats[i].from_scratch);
    EXPECT_LE(static_cast<double>(work[i]), 0.15 * scratch)
        << "round " << stats[i].round << ": " << work[i] << " vs "
        << work[1];
  }
}

TEST(IncrementalDetector, MostPairsTerminateInPassOne) {
  testutil::World world = testutil::SmallWorld(222, 50, 400);
  IncrementalDetector detector(PaperParams());
  IterativeFusion fusion(Options());
  auto result = fusion.Run(world.data, &detector);
  ASSERT_TRUE(result.ok());
  const auto& stats = detector.round_stats();
  for (size_t i = 2; i < stats.size(); ++i) {
    uint64_t total = stats[i].pass1 + stats[i].pass2 + stats[i].pass3 +
                     stats[i].exact;
    if (total == 0) continue;
    // Table VIII: >= 86% of pairs terminate in pass 1.
    EXPECT_GE(static_cast<double>(stats[i].pass1),
              0.7 * static_cast<double>(total))
        << "round " << stats[i].round;
  }
}

TEST(IncrementalDetector, ResetRestoresFreshState) {
  testutil::World world = testutil::SmallWorld(231);
  IncrementalDetector detector(PaperParams());
  IterativeFusion fusion(Options());
  ASSERT_TRUE(fusion.Run(world.data, &detector).ok());
  detector.Reset();
  EXPECT_TRUE(detector.round_stats().empty());
  EXPECT_EQ(detector.counters().Total(), 0u);
  // Works again after reset.
  auto again = fusion.Run(world.data, &detector);
  ASSERT_TRUE(again.ok());
}

TEST(IncrementalDetector, DetectsPlantedCopiersOnExample) {
  testutil::ExampleFixture fx;
  IncrementalDetector detector(PaperParams());
  IterativeFusion fusion(Options());
  auto result = fusion.Run(fx.world.data, &detector);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->copies.IsCopying(2, 3));
  EXPECT_TRUE(result->copies.IsCopying(6, 8));
  EXPECT_FALSE(result->copies.IsCopying(0, 1));
}

}  // namespace
}  // namespace copydetect
