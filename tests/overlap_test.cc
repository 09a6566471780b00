#include "simjoin/overlap.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "model/dataset_delta.h"
#include "test_util.h"

namespace copydetect {
namespace {

TEST(OverlapCounts, MotivatingExampleCounts) {
  testutil::ExampleFixture fx;
  OverlapCounts counts = ComputeOverlaps(fx.world.data);
  EXPECT_EQ(counts.Get(2, 3), 5u);
  EXPECT_EQ(counts.Get(3, 2), 5u);  // symmetric
  EXPECT_EQ(counts.Get(0, 1), 4u);
  EXPECT_EQ(counts.Get(0, 6), 3u);
  EXPECT_EQ(counts.Get(0, 9), 2u);  // NJ and TX

  EXPECT_EQ(counts.Get(5, 5), 0u);  // self
}

TEST(OverlapCounts, DenseAndSparseAgree) {
  testutil::World world = testutil::SmallWorld(55, 35, 250);
  OverlapCounts dense = ComputeOverlaps(world.data, /*threshold=*/1000);
  OverlapCounts sparse = ComputeOverlaps(world.data, /*threshold=*/1);
  for (SourceId a = 0; a < world.data.num_sources(); ++a) {
    for (SourceId b = static_cast<SourceId>(a + 1);
         b < world.data.num_sources(); ++b) {
      EXPECT_EQ(dense.Get(a, b), sparse.Get(a, b))
          << "pair " << a << "," << b;
    }
  }
  EXPECT_EQ(dense.NumPositivePairs(), sparse.NumPositivePairs());
}

TEST(OverlapCounts, MatchesBruteForceJoin) {
  testutil::World world = testutil::SmallWorld(56, 25, 150);
  OverlapCounts counts = ComputeOverlaps(world.data);
  std::vector<testutil::OverlapPair> brute =
      testutil::BruteForceJoin(world.data, 1);
  for (const testutil::OverlapPair& p : brute) {
    EXPECT_EQ(counts.Get(p.a, p.b), p.overlap);
  }
  EXPECT_EQ(counts.NumPositivePairs(), brute.size());
}

TEST(OverlapCounts, ForEachVisitsPositivePairsOnce) {
  testutil::ExampleFixture fx;
  OverlapCounts counts = ComputeOverlaps(fx.world.data);
  size_t visits = 0;
  uint64_t sum = 0;
  counts.ForEach([&](uint64_t key, uint32_t c) {
    (void)key;
    ++visits;
    sum += c;
  });
  EXPECT_EQ(visits, counts.NumPositivePairs());
  // Sum over pairs of shared items = sum over items of C(providers,2)
  // = 36+28+36+36+45 = 181 on the running example.
  EXPECT_EQ(sum, 181u);
}

TEST(Dataset, GenerationIsUniquePerBuildAndSharedByCopies) {
  testutil::World w1 = testutil::SmallWorld(63, 10, 50);
  testutil::World w2 = testutil::SmallWorld(64, 10, 50);
  EXPECT_NE(w1.data.generation(), w2.data.generation());
  EXPECT_GT(w1.data.generation(), 0u);
  // A copy holds identical content, so it legitimately shares the id.
  Dataset copy = w1.data;
  EXPECT_EQ(copy.generation(), w1.data.generation());
}

// ---------------------------------------------------------------------
// Delta maintenance (UpdateOverlaps).

/// A delta over SmallWorld that retracts, overwrites and adds cells.
AppliedDelta ApplyTestDelta(const Dataset& base) {
  DatasetDelta delta;
  // Retract source 0's first two items, flip source 1's first item to
  // a fresh value, give source 2 a brand-new item, and add a new
  // source on an existing item.
  std::span<const ItemId> items0 = base.items_of(0);
  delta.Retract(base.source_name(0), base.item_name(items0[0]));
  delta.Retract(base.source_name(0), base.item_name(items0[1]));
  std::span<const ItemId> items1 = base.items_of(1);
  delta.Set(base.source_name(1), base.item_name(items1[0]), "flipped");
  delta.Set(base.source_name(2), "delta-item", "new-value");
  delta.Set("delta-source", base.item_name(0), "another");
  auto applied = base.Apply(delta);
  CD_CHECK_OK(applied.status());
  return std::move(applied).value();
}

void ExpectSameCounts(const OverlapCounts& got, const OverlapCounts& want,
                      size_t num_sources) {
  for (SourceId a = 0; a < num_sources; ++a) {
    for (SourceId b = static_cast<SourceId>(a + 1); b < num_sources;
         ++b) {
      ASSERT_EQ(got.Get(a, b), want.Get(a, b))
          << "pair " << a << "," << b;
    }
  }
  EXPECT_EQ(got.NumPositivePairs(), want.NumPositivePairs());
  // The patched count matches a walk of the patched counts.
  size_t positive = 0;
  got.ForEach([&positive](uint64_t, uint32_t) { ++positive; });
  EXPECT_EQ(got.NumPositivePairs(), positive);
}

TEST(UpdateOverlaps, RefusesWhenSourceUniverseChanges) {
  testutil::World world = testutil::SmallWorld(70, 20, 100);
  AppliedDelta applied = ApplyTestDelta(world.data);  // adds a source
  OverlapCounts counts = ComputeOverlaps(world.data);
  EXPECT_FALSE(UpdateOverlaps(&counts, world.data, applied.data,
                              applied.summary.touched_items));
}

TEST(UpdateOverlaps, MatchesFullRecountDense) {
  testutil::World world = testutil::SmallWorld(71, 20, 100);
  // Same-universe delta (no new sources).
  DatasetDelta delta;
  const Dataset& base = world.data;
  std::span<const ItemId> items0 = base.items_of(0);
  delta.Retract(base.source_name(0), base.item_name(items0[0]));
  std::span<const ItemId> items3 = base.items_of(3);
  delta.Set(base.source_name(3), base.item_name(items3[0]), "flip");
  delta.Set(base.source_name(4), "fresh-item", "v");
  auto applied = base.Apply(delta);
  CD_CHECK_OK(applied.status());

  OverlapCounts counts = ComputeOverlaps(base);
  ASSERT_TRUE(UpdateOverlaps(&counts, base, applied->data,
                             applied->summary.touched_items));
  ExpectSameCounts(counts, ComputeOverlaps(applied->data),
                   applied->data.num_sources());
}

TEST(UpdateOverlaps, MatchesFullRecountSparseWithZeroedPairs) {
  // Sparse mode (threshold 1) and a retraction-heavy delta so some
  // pair counts drop — a few all the way to zero.
  testutil::World world = testutil::SmallWorld(72, 25, 60);
  const Dataset& base = world.data;
  DatasetDelta delta;
  for (SourceId s = 0; s < 6; ++s) {
    std::span<const ItemId> items = base.items_of(s);
    for (size_t i = 0; i < items.size() && i < 4; ++i) {
      delta.Retract(base.source_name(s), base.item_name(items[i]));
    }
  }
  auto applied = base.Apply(delta);
  CD_CHECK_OK(applied.status());

  OverlapCounts counts = ComputeOverlaps(base, /*dense_threshold=*/1);
  ASSERT_TRUE(UpdateOverlaps(&counts, base, applied->data,
                             applied->summary.touched_items));
  OverlapCounts fresh = ComputeOverlaps(applied->data,
                                        /*dense_threshold=*/1);
  ExpectSameCounts(counts, fresh, applied->data.num_sources());
}

TEST(UpdateOverlaps, ChainedDeltasStayExact) {
  testutil::World world = testutil::SmallWorld(73, 18, 90);
  const Dataset& base = world.data;
  OverlapCounts counts = ComputeOverlaps(base);
  Dataset current = base;
  for (int step = 0; step < 3; ++step) {
    DatasetDelta delta;
    SourceId s = static_cast<SourceId>(2 * step);
    std::span<const ItemId> items = current.items_of(s);
    ASSERT_FALSE(items.empty());
    delta.Set(current.source_name(s), current.item_name(items[0]),
              "chain-" + std::to_string(step));
    delta.Retract(current.source_name(s + 1),
                  current.item_name(current.items_of(s + 1)[0]));
    auto applied = current.Apply(delta);
    CD_CHECK_OK(applied.status());
    ASSERT_TRUE(UpdateOverlaps(&counts, current, applied->data,
                               applied->summary.touched_items));
    current = std::move(applied->data);
    ExpectSameCounts(counts, ComputeOverlaps(current),
                     current.num_sources());
  }
}

}  // namespace
}  // namespace copydetect
