// DatasetDelta + Dataset::Apply: the applied snapshot must be
// bit-identical to rebuilding the merged observations from scratch
// (any feed order — the canonical slot layout makes the rebuild
// order-insensitive), and the DeltaSummary must name exactly what
// changed.
#include "model/dataset_delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "test_util.h"

namespace copydetect {
namespace {

struct Row {
  std::string source;
  std::string item;
  std::string value;
};

std::vector<Row> RowsOf(const Dataset& d) {
  std::vector<Row> rows;
  for (SourceId s = 0; s < d.num_sources(); ++s) {
    std::span<const ItemId> items = d.items_of(s);
    std::span<const SlotId> slots = d.slots_of(s);
    for (size_t i = 0; i < items.size(); ++i) {
      rows.push_back({std::string(d.source_name(s)),
                      std::string(d.item_name(items[i])),
                      std::string(d.slot_value(slots[i]))});
    }
  }
  return rows;
}

/// Rebuilds `d` from scratch: source/item names registered in id
/// order (aligning the id spaces is what makes a bitwise comparison
/// meaningful), observations fed in an arbitrary shuffled order — the
/// canonical layout must absorb it.
Dataset Rebuild(const Dataset& d, uint64_t shuffle_seed) {
  DatasetBuilder builder;
  for (SourceId s = 0; s < d.num_sources(); ++s) {
    builder.AddSource(d.source_name(s));
  }
  for (ItemId i = 0; i < d.num_items(); ++i) {
    builder.AddItem(d.item_name(i));
  }
  std::vector<Row> rows = RowsOf(d);
  if (shuffle_seed != 0) {
    Rng rng(shuffle_seed);
    rng.Shuffle(&rows);
  }
  for (const Row& row : rows) builder.Add(row.source, row.item, row.value);
  auto built = builder.Build();
  CD_CHECK_OK(built.status());
  return std::move(built).value();
}

/// Bitwise structural equality through the public accessors: names,
/// slot layout, provider lists, per-source rows.
void ExpectSameDataset(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.num_sources(), want.num_sources());
  ASSERT_EQ(got.num_items(), want.num_items());
  ASSERT_EQ(got.num_slots(), want.num_slots());
  ASSERT_EQ(got.num_observations(), want.num_observations());
  for (SourceId s = 0; s < want.num_sources(); ++s) {
    EXPECT_EQ(got.source_name(s), want.source_name(s)) << "source " << s;
  }
  for (ItemId d = 0; d < want.num_items(); ++d) {
    EXPECT_EQ(got.item_name(d), want.item_name(d)) << "item " << d;
    ASSERT_EQ(got.slot_begin(d), want.slot_begin(d)) << "item " << d;
    ASSERT_EQ(got.slot_end(d), want.slot_end(d)) << "item " << d;
  }
  for (SlotId v = 0; v < want.num_slots(); ++v) {
    EXPECT_EQ(got.slot_value(v), want.slot_value(v)) << "slot " << v;
    EXPECT_EQ(got.slot_item(v), want.slot_item(v)) << "slot " << v;
    std::span<const SourceId> gp = got.providers(v);
    std::span<const SourceId> wp = want.providers(v);
    ASSERT_EQ(gp.size(), wp.size()) << "slot " << v;
    for (size_t i = 0; i < wp.size(); ++i) {
      EXPECT_EQ(gp[i], wp[i]) << "slot " << v << " provider " << i;
    }
  }
  for (SourceId s = 0; s < want.num_sources(); ++s) {
    std::span<const ItemId> gi = got.items_of(s);
    std::span<const ItemId> wi = want.items_of(s);
    ASSERT_EQ(gi.size(), wi.size()) << "source " << s;
    for (size_t i = 0; i < wi.size(); ++i) {
      EXPECT_EQ(gi[i], wi[i]) << "source " << s << " obs " << i;
      EXPECT_EQ(got.slots_of(s)[i], want.slots_of(s)[i])
          << "source " << s << " obs " << i;
    }
  }
}

AppliedDelta Apply(const Dataset& base, const DatasetDelta& delta) {
  auto applied = base.Apply(delta);
  CD_CHECK_OK(applied.status());
  return std::move(applied).value();
}

/// The standard mixed delta against the motivating example: an
/// overwrite, an add into an empty cell, a retraction, a brand-new
/// source, and a brand-new item.
DatasetDelta MixedDelta(const Dataset& base) {
  DatasetDelta delta;
  // Overwrite: S0's NJ value flips to the value S3 provides.
  delta.Set(base.source_name(0), base.item_name(0), "Mahwah");
  // Add: S0 had no value for item 3 (FL).
  delta.Set(base.source_name(0), base.item_name(3), "Tallahassee");
  // Retract: S9 withdraws its TX observation (item 4).
  delta.Retract(base.source_name(9), base.item_name(4));
  // New source covering an existing item (AZ).
  delta.Set("S-new", base.item_name(1), "Tucson");
  // New item from an existing source.
  delta.Set(base.source_name(2), "CO", "Denver");
  return delta;
}

TEST(DatasetBuilder, CanonicalLayoutIsFeedOrderInsensitive) {
  testutil::World world = testutil::SmallWorld(17);
  for (uint64_t seed : {1u, 2u, 3u}) {
    ExpectSameDataset(Rebuild(world.data, seed),
                      Rebuild(world.data, 0));
  }
}

TEST(DatasetBuilder, CatchesConflictSeparatedByAnotherProvider) {
  // Regression: with conflict detection running over the layout order
  // (item, value, source), S2's same-value observation sat between
  // S1's two conflicting ones and hid the conflict.
  DatasetBuilder builder;
  builder.Add("S1", "NJ", "Trenton");
  builder.Add("S2", "NJ", "Trenton");
  builder.Add("S1", "NJ", "Atlantic");
  auto data = builder.Build();
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(data.status().message().find("two values"),
            std::string::npos);
}

TEST(DatasetDelta, ValidateRejectsTwoOpsPerCell) {
  DatasetDelta delta;
  delta.Set("S1", "NJ", "Trenton");
  delta.Retract("S1", "NJ");
  Status status = delta.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("two ops"), std::string::npos);
}

TEST(DatasetApply, MatchesFromScratchRebuildOnMotivatingExample) {
  testutil::ExampleFixture fx;
  const Dataset& base = fx.world.data;
  AppliedDelta applied = Apply(base, MixedDelta(base));
  for (uint64_t seed : {0u, 5u, 6u}) {
    ExpectSameDataset(applied.data, Rebuild(applied.data, seed));
  }
}

TEST(DatasetApply, MatchesRebuildOnGeneratedWorldWithRandomDelta) {
  testutil::World world = testutil::SmallWorld(29);
  const Dataset& base = world.data;
  Rng rng(99);
  DatasetDelta delta;
  // Random overwrites/retractions over existing observations plus a
  // few new cells; one op per cell (tracked via a set of cells).
  std::set<std::pair<SourceId, ItemId>> used;
  for (int k = 0; k < 60; ++k) {
    SourceId s = static_cast<SourceId>(rng.NextBelow(base.num_sources()));
    if (base.coverage(s) == 0) continue;
    std::span<const ItemId> items = base.items_of(s);
    ItemId d = items[rng.NextBelow(items.size())];
    if (!used.insert({s, d}).second) continue;
    switch (rng.NextBelow(3)) {
      case 0:
        delta.Retract(base.source_name(s), base.item_name(d));
        break;
      case 1:
        delta.Set(base.source_name(s), base.item_name(d), "fresh-value");
        break;
      default:
        // Re-assert the current value (a no-op write, still an op).
        delta.Set(base.source_name(s), base.item_name(d),
                  base.slot_value(base.slot_of(s, d)));
        break;
    }
  }
  delta.Set("delta-source", base.item_name(0), "delta-value");
  AppliedDelta applied = Apply(base, delta);
  ExpectSameDataset(applied.data, Rebuild(applied.data, 123));
}

TEST(DatasetApply, ChainedApplicationsMatchRebuild) {
  testutil::ExampleFixture fx;
  const Dataset& base = fx.world.data;
  AppliedDelta first = Apply(base, MixedDelta(base));
  DatasetDelta second;
  second.Set("S-new", base.item_name(2), "Salem");
  second.Retract(base.source_name(2), "CO");  // added by the first delta
  second.Set(base.source_name(4), base.item_name(0), "Trenton");
  AppliedDelta chained = Apply(first.data, second);
  ExpectSameDataset(chained.data, Rebuild(chained.data, 7));
}

TEST(DatasetApply, SummaryNamesExactlyWhatChanged) {
  testutil::ExampleFixture fx;
  const Dataset& base = fx.world.data;
  AppliedDelta applied = Apply(base, MixedDelta(base));
  const DeltaSummary& sum = applied.summary;

  // S0, S2, S9 and the new source (id 10) are touched.
  EXPECT_EQ(sum.touched_sources,
            (std::vector<SourceId>{0, 2, 9, 10}));
  // Items 0 (overwrite), 1 (new source), 3 (add), 4 (retract) and the
  // new item 5.
  EXPECT_EQ(sum.touched_items, (std::vector<ItemId>{0, 1, 3, 4, 5}));
  EXPECT_EQ(sum.added_sources, 1u);
  EXPECT_EQ(sum.added_items, 1u);
  EXPECT_EQ(sum.added, 3u);       // S0/FL, S-new/AZ, S2/CO
  EXPECT_EQ(sum.overwritten, 1u); // S0/NJ
  EXPECT_EQ(sum.retracted, 1u);   // S9/TX

  // Untouched items' slots all map, strictly increasing, to slots
  // holding the same value.
  ASSERT_EQ(sum.old_to_new_slot.size(), base.num_slots());
  SlotId last_mapped = 0;
  bool first_mapped = true;
  for (SlotId ov = 0; ov < base.num_slots(); ++ov) {
    SlotId nv = sum.old_to_new_slot[ov];
    if (nv == kInvalidSlot) {
      // Only slots of touched items may die.
      EXPECT_TRUE(std::binary_search(sum.touched_items.begin(),
                                     sum.touched_items.end(),
                                     base.slot_item(ov)));
      continue;
    }
    EXPECT_EQ(applied.data.slot_value(nv), base.slot_value(ov));
    if (!first_mapped) {
      EXPECT_GT(nv, last_mapped);
    }
    last_mapped = nv;
    first_mapped = false;
  }
}

TEST(DatasetApply, FreshGenerationAndBaseUntouched) {
  testutil::ExampleFixture fx;
  const Dataset& base = fx.world.data;
  size_t base_obs = base.num_observations();
  AppliedDelta applied = Apply(base, MixedDelta(base));
  EXPECT_NE(applied.data.generation(), base.generation());
  EXPECT_EQ(base.num_observations(), base_obs);
  EXPECT_EQ(base.num_sources(), 10u);
}

TEST(DatasetApply, EmptyDeltaYieldsIdenticalSnapshot) {
  testutil::ExampleFixture fx;
  const Dataset& base = fx.world.data;
  AppliedDelta applied = Apply(base, DatasetDelta());
  ExpectSameDataset(applied.data, base);
  EXPECT_NE(applied.data.generation(), base.generation());
  EXPECT_TRUE(applied.summary.touched_sources.empty());
  EXPECT_TRUE(applied.summary.touched_items.empty());
}

TEST(DatasetApply, RetractionCanEmptyASourceAndAnItem) {
  DatasetBuilder builder;
  builder.Add("A", "x", "1");
  builder.Add("A", "y", "2");
  builder.Add("B", "y", "2");
  auto base = builder.Build();
  CD_CHECK_OK(base.status());
  DatasetDelta delta;
  delta.Retract("A", "x");
  delta.Retract("A", "y");
  AppliedDelta applied = Apply(*base, delta);
  EXPECT_EQ(applied.data.num_sources(), 2u);  // names never disappear
  EXPECT_EQ(applied.data.num_items(), 2u);
  EXPECT_EQ(applied.data.coverage(0), 0u);
  EXPECT_EQ(applied.data.num_values(0), 0u);  // item x has no slots
  ExpectSameDataset(applied.data, Rebuild(applied.data, 3));
}

TEST(DatasetApply, RejectsBadDeltas) {
  testutil::ExampleFixture fx;
  const Dataset& base = fx.world.data;
  {
    DatasetDelta delta;
    delta.Retract("no-such-source", base.item_name(0));
    EXPECT_EQ(base.Apply(delta).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    DatasetDelta delta;
    delta.Retract(base.source_name(0), "no-such-item");
    EXPECT_EQ(base.Apply(delta).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    // S0 provides nothing for FL (item 3): retracting an empty cell
    // is an error.
    DatasetDelta delta;
    delta.Retract(base.source_name(0), base.item_name(3));
    EXPECT_EQ(base.Apply(delta).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    DatasetDelta delta;
    delta.Set(base.source_name(0), base.item_name(0), "a");
    delta.Set(base.source_name(0), base.item_name(0), "b");
    EXPECT_EQ(base.Apply(delta).status().code(),
              StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace copydetect
