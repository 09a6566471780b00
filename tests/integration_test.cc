// End-to-end pipeline tests: generator -> detector -> fusion -> metrics,
// checking the paper's qualitative claims on a reduced Book-CS world.
#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace copydetect {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto world = MakeWorldByName("book-cs", 0.3, 7);
    ASSERT_TRUE(world.ok());
    world_ = new World(std::move(world).value());

    FusionOptions options;
    options.params = testutil::PaperParams();
    options.max_rounds = 8;
    options_ = new FusionOptions(options);

    auto pairwise = RunFusion(*world_, "pairwise", options);
    ASSERT_TRUE(pairwise.ok());
    pairwise_ = new RunOutcome(std::move(pairwise).value());
  }

  static void TearDownTestSuite() {
    delete world_;
    delete options_;
    delete pairwise_;
    world_ = nullptr;
    options_ = nullptr;
    pairwise_ = nullptr;
  }

  static World* world_;
  static FusionOptions* options_;
  static RunOutcome* pairwise_;
};

World* PipelineTest::world_ = nullptr;
FusionOptions* PipelineTest::options_ = nullptr;
RunOutcome* PipelineTest::pairwise_ = nullptr;

TEST_F(PipelineTest, PairwiseFindsPlantedCopiers) {
  // Copier pairs are detectable only via shared *false* values; with
  // Book-CS's tiny per-source coverage a scaled-down world leaves some
  // planted pairs with almost no overlap, capping attainable recall.
  PrfScores prf =
      ComparePairsToTruth(pairwise_->fusion.copies, world_->copy_pairs);
  EXPECT_GE(prf.recall, 0.55);
}

TEST_F(PipelineTest, IndexMatchesPairwiseExactly) {
  auto outcome = RunFusion(*world_, "index", *options_);
  ASSERT_TRUE(outcome.ok());
  PrfScores prf = ComparePairs(outcome->fusion.copies,
                               pairwise_->fusion.copies);
  EXPECT_EQ(prf.f1, 1.0);
  EXPECT_EQ(FusionDifference(world_->data, outcome->fusion.truth,
                             pairwise_->fusion.truth),
            0.0);
  EXPECT_LT(outcome->counters.Total(), pairwise_->counters.Total());
}

TEST_F(PipelineTest, HybridCloseToPairwise) {
  auto outcome = RunFusion(*world_, "hybrid", *options_);
  ASSERT_TRUE(outcome.ok());
  PrfScores prf = ComparePairs(outcome->fusion.copies,
                               pairwise_->fusion.copies);
  EXPECT_GE(prf.f1, 0.9);
  EXPECT_LE(FusionDifference(world_->data, outcome->fusion.truth,
                             pairwise_->fusion.truth),
            0.05);
}

TEST_F(PipelineTest, IncrementalCloseToPairwiseAndCheaperThanHybrid) {
  auto incremental =
      RunFusion(*world_, "incremental", *options_);
  auto hybrid = RunFusion(*world_, "hybrid", *options_);
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(hybrid.ok());
  PrfScores prf = ComparePairs(incremental->fusion.copies,
                               pairwise_->fusion.copies);
  EXPECT_GE(prf.f1, 0.85);
  // Fewer computations over the full run (the rounds >= 3 savings).
  EXPECT_LT(incremental->counters.Total(), hybrid->counters.Total());
}

TEST_F(PipelineTest, ScaleSampleStillFindsCopiers) {
  auto detector = MakeSampledDetector(options_->params,
                                      "incremental",
                                      SamplingMethod::kScaleSample, 0.1);
  auto outcome = RunFusionWithDetector(*world_, detector.get(),
                                       *options_);
  ASSERT_TRUE(outcome.ok());
  // Sampling on low-coverage noisy data trades detection quality for
  // speed (Table IX's point); a sizable fraction of PAIRWISE's pairs
  // must survive, but parity is not expected.
  PrfScores prf = ComparePairs(outcome->fusion.copies,
                               pairwise_->fusion.copies);
  EXPECT_GE(prf.f1, 0.4);
  PrfScores truth_prf =
      ComparePairsToTruth(outcome->fusion.copies, world_->copy_pairs);
  EXPECT_GE(truth_prf.recall, 0.5);
}

TEST_F(PipelineTest, CopyAwareFusionBeatsAccuracyOnlyOnGold) {
  FusionOptions no_copy = *options_;
  no_copy.use_copy_detection = false;
  IterativeFusion fusion(no_copy);
  auto naive = fusion.Run(world_->data, nullptr);
  ASSERT_TRUE(naive.ok());
  double aware_acc =
      world_->gold.Accuracy(world_->data, pairwise_->fusion.truth);
  double naive_acc = world_->gold.Accuracy(world_->data, naive->truth);
  // Copy-awareness must not hurt, and with planted copier cliques it
  // should help.
  EXPECT_GE(aware_acc + 1e-9, naive_acc);
}

TEST_F(PipelineTest, FusionAccuracyIsHigh) {
  double acc = world_->full_truth.Accuracy(world_->data,
                                           pairwise_->fusion.truth);
  EXPECT_GE(acc, 0.8);
}

}  // namespace
}  // namespace copydetect
