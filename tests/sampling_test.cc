#include "core/sampling.h"

#include <gtest/gtest.h>

#include "core/hybrid.h"
#include "core/index_algo.h"
#include "eval/experiment.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::PaperParams;

TEST(SampleDataset, ByItemKeepsRequestedFraction) {
  testutil::World world = testutil::SmallWorld(301, 30, 400);
  SampleSpec spec;
  spec.method = SamplingMethod::kByItem;
  spec.rate = 0.25;
  auto sample = SampleDataset(world.data, spec);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->data.num_items(), 100u);
  EXPECT_NEAR(sample->item_fraction, 0.25, 0.01);
  // All sources preserved with their ids.
  EXPECT_EQ(sample->data.num_sources(), world.data.num_sources());
  for (SourceId s = 0; s < world.data.num_sources(); ++s) {
    EXPECT_EQ(sample->data.source_name(s), world.data.source_name(s));
  }
}

TEST(SampleDataset, ByCellHitsCellTarget) {
  testutil::World world = testutil::SmallWorld(302, 30, 400);
  SampleSpec spec;
  spec.method = SamplingMethod::kByCell;
  spec.rate = 0.3;
  auto sample = SampleDataset(world.data, spec);
  ASSERT_TRUE(sample.ok());
  EXPECT_NEAR(sample->cell_fraction, 0.3, 0.05);
}

TEST(SampleDataset, ScaleSampleGuaranteesMinPerSource) {
  // Build a world with many low-coverage sources (book-like).
  WorldConfig config = BookCsProfile(0.2);
  auto world_or = GenerateWorld(config, 303);
  ASSERT_TRUE(world_or.ok());
  const Dataset& full = world_or->data;

  SampleSpec spec;
  spec.method = SamplingMethod::kScaleSample;
  spec.rate = 0.1;
  spec.min_items_per_source = 4;
  auto sample = SampleDataset(full, spec);
  ASSERT_TRUE(sample.ok());

  for (SourceId s = 0; s < sample->data.num_sources(); ++s) {
    size_t want = std::min<size_t>(4, full.coverage(s));
    EXPECT_GE(sample->data.coverage(s), want) << "source " << s;
  }
  // Low-coverage data forces the item fraction above the nominal rate
  // (the paper saw 49% from a nominal 10% on Book-CS).
  EXPECT_GT(sample->item_fraction, spec.rate);
}

TEST(SampleDataset, SlotMapPointsToSameValues) {
  testutil::World world = testutil::SmallWorld(304);
  SampleSpec spec;
  spec.method = SamplingMethod::kByItem;
  spec.rate = 0.5;
  auto sample = SampleDataset(world.data, spec);
  ASSERT_TRUE(sample.ok());
  for (SlotId v = 0; v < sample->data.num_slots(); ++v) {
    SlotId full_slot = sample->slot_map[v];
    ASSERT_NE(full_slot, kInvalidSlot);
    EXPECT_EQ(sample->data.slot_value(v),
              world.data.slot_value(full_slot));
    EXPECT_EQ(sample->item_map[sample->data.slot_item(v)],
              world.data.slot_item(full_slot));
  }
}

TEST(SampleDataset, DeterministicInSeed) {
  testutil::World world = testutil::SmallWorld(305);
  SampleSpec spec;
  spec.method = SamplingMethod::kScaleSample;
  spec.rate = 0.2;
  auto s1 = SampleDataset(world.data, spec);
  auto s2 = SampleDataset(world.data, spec);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->item_map, s2->item_map);
  spec.seed = 43;
  auto s3 = SampleDataset(world.data, spec);
  ASSERT_TRUE(s3.ok());
  EXPECT_NE(s1->item_map, s3->item_map);
}

TEST(SampleDataset, RejectsBadRate) {
  testutil::World world = testutil::SmallWorld(306);
  SampleSpec spec;
  spec.rate = 0.0;
  EXPECT_FALSE(SampleDataset(world.data, spec).ok());
  spec.rate = 1.5;
  EXPECT_FALSE(SampleDataset(world.data, spec).ok());
}

TEST(SampledDetector, ProducesReasonablePairsOnStockLikeData) {
  // High-coverage data: sampling barely hurts (Table IX's stock rows).
  WorldConfig config = Stock1DayProfile(0.05);
  auto world_or = GenerateWorld(config, 307);
  ASSERT_TRUE(world_or.ok());
  const World& world = *world_or;
  testutil::WorldInput wi(world);
  DetectionInput in = wi.Input(world);

  SampleSpec spec;
  spec.method = SamplingMethod::kScaleSample;
  spec.rate = 0.3;
  SampledDetector sampled(PaperParams(),
                          std::make_unique<HybridDetector>(PaperParams()),
                          spec);
  HybridDetector full(PaperParams());
  CopyResult sampled_result;
  CopyResult full_result;
  ASSERT_TRUE(sampled.DetectRound(in, 1, &sampled_result).ok());
  ASSERT_TRUE(full.DetectRound(in, 1, &full_result).ok());

  // Source ids transfer: every sampled copying pair refers to real
  // sources, and most of the full result's pairs are recovered.
  std::vector<uint64_t> got = testutil::CopySet(sampled_result);
  std::vector<uint64_t> want = testutil::CopySet(full_result);
  ASSERT_FALSE(want.empty());
  size_t hits = 0;
  for (uint64_t key : got) {
    if (std::find(want.begin(), want.end(), key) != want.end()) ++hits;
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(want.size()),
            0.7);
}

TEST(SampledDetector, ReusesSampleAcrossRounds) {
  testutil::World world = testutil::SmallWorld(308);
  testutil::WorldInput wi(world);
  DetectionInput in = wi.Input(world);
  SampleSpec spec;
  spec.method = SamplingMethod::kByItem;
  spec.rate = 0.5;
  SampledDetector detector(PaperParams(),
                           std::make_unique<IndexDetector>(PaperParams()),
                           spec);
  CopyResult r1;
  CopyResult r2;
  ASSERT_TRUE(detector.DetectRound(in, 1, &r1).ok());
  const SampledData* sample1 = detector.sample();
  ASSERT_TRUE(detector.DetectRound(in, 2, &r2).ok());
  EXPECT_EQ(detector.sample(), sample1);  // same object, not redrawn
}

TEST(SampledDetector, DatasetAssignedInPlaceIsResampled) {
  // Regression: the sample was keyed on the Dataset's address, so a
  // different data set assigned into the same object was served the
  // old sample (its slot map reads past the new value probabilities).
  // Keyed on Dataset::generation(), the reused detector must match a
  // fresh one.
  auto first = MakeWorldByName("book-cs", 0.2, 1);
  auto second = MakeWorldByName("book-cs", 0.1, 2);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  World world = *first;
  SampledDetector reused(PaperParams(),
                         std::make_unique<IndexDetector>(PaperParams()),
                         SampleSpec());
  {
    testutil::WorldInput wi(world);
    CopyResult result;
    ASSERT_TRUE(reused.DetectRound(wi.Input(world), 1, &result).ok());
  }
  world = *second;  // same object, new contents
  testutil::WorldInput wi(world);
  SampledDetector fresh(PaperParams(),
                        std::make_unique<IndexDetector>(PaperParams()),
                        SampleSpec());
  CopyResult got;
  CopyResult want;
  Status status = reused.DetectRound(wi.Input(world), 2, &got);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(fresh.DetectRound(wi.Input(world), 2, &want).ok());
  EXPECT_EQ(reused.sample()->data.num_slots(),
            fresh.sample()->data.num_slots());
  EXPECT_EQ(testutil::CopySet(got), testutil::CopySet(want));
  EXPECT_EQ(got.NumTracked(), want.NumTracked());
}

}  // namespace
}  // namespace copydetect
