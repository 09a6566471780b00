#include "core/inverted_index.h"

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace copydetect {
namespace {

using testutil::ExampleFixture;
using testutil::PaperParams;

std::string EntryName(const InvertedIndex& index, size_t rank) {
  const Dataset& data = index.data();
  SlotId slot = index.entry(rank).slot;
  return std::string(data.item_name(data.slot_item(slot))) + "." +
         std::string(data.slot_value(slot));
}

TEST(InvertedIndex, TableIIIEntrySetAndOrder) {
  ExampleFixture fx;
  auto index_or = InvertedIndex::Build(fx.Input(), PaperParams());
  ASSERT_TRUE(index_or.ok()) << index_or.status().ToString();
  const InvertedIndex& index = *index_or;

  // Table III has exactly 13 entries; single-provider values
  // (NJ.Union, AZ.Tucson, TX.Arlington) are not indexed.
  ASSERT_EQ(index.num_entries(), 13u);

  // Top entries in the paper's order (ties on identical scores aside).
  EXPECT_EQ(EntryName(index, 0), "AZ.Tempe");
  EXPECT_EQ(EntryName(index, 1), "NJ.Atlantic");
  // Ranks 2-3: TX.Houston and NY.NewYork both score 4.05.
  std::string r2 = EntryName(index, 2);
  std::string r3 = EntryName(index, 3);
  EXPECT_TRUE((r2 == "TX.Houston" && r3 == "NY.NewYork") ||
              (r2 == "NY.NewYork" && r3 == "TX.Houston"));
  EXPECT_EQ(EntryName(index, 4), "TX.Dallas");
  EXPECT_EQ(EntryName(index, 5), "NY.Buffalo");
  EXPECT_EQ(EntryName(index, 6), "FL.PalmBay");
  EXPECT_EQ(EntryName(index, 7), "FL.Miami");
  EXPECT_EQ(EntryName(index, 8), "AZ.Phoenix");
  EXPECT_EQ(EntryName(index, 9), "NJ.Trenton");
  EXPECT_EQ(EntryName(index, 10), "FL.Orlando");
  // Last two: NY.Albany and TX.Austin, both .43.
  std::string r11 = EntryName(index, 11);
  std::string r12 = EntryName(index, 12);
  EXPECT_TRUE((r11 == "NY.Albany" && r12 == "TX.Austin") ||
              (r11 == "TX.Austin" && r12 == "NY.Albany"));
}

TEST(InvertedIndex, TableIIIScores) {
  ExampleFixture fx;
  auto index_or = InvertedIndex::Build(fx.Input(), PaperParams());
  ASSERT_TRUE(index_or.ok());
  const InvertedIndex& index = *index_or;

  std::map<std::string, double> expected = {
      {"AZ.Tempe", 4.59},   {"NJ.Atlantic", 4.12}, {"TX.Houston", 4.05},
      {"NY.NewYork", 4.05}, {"TX.Dallas", 3.98},   {"NY.Buffalo", 3.97},
      {"FL.PalmBay", 3.97}, {"FL.Miami", 3.83},    {"AZ.Phoenix", 1.62},
      {"NJ.Trenton", 1.51}, {"FL.Orlando", 0.84},  {"NY.Albany", 0.43},
      {"TX.Austin", 0.43},
  };
  // The paper's table rounds its probabilities to two digits, so allow
  // a matching slack on the scores.
  for (size_t rank = 0; rank < index.num_entries(); ++rank) {
    std::string name = EntryName(index, rank);
    ASSERT_TRUE(expected.count(name)) << name;
    EXPECT_NEAR(index.entry(rank).score, expected[name], 0.03) << name;
  }
}

TEST(InvertedIndex, TailIsLastTwoEntries) {
  // Ex. 3.6: the last two entries (.43 + .43 < ln(.8/.2) = 1.39) form
  // the tail set E̅.
  ExampleFixture fx;
  auto index_or = InvertedIndex::Build(fx.Input(), PaperParams());
  ASSERT_TRUE(index_or.ok());
  EXPECT_EQ(index_or->tail_begin(), 11u);
}

TEST(InvertedIndex, ScoresDecreaseUnderContributionOrdering) {
  testutil::World world = testutil::SmallWorld(3);
  testutil::WorldInput wi(world);
  auto index_or = InvertedIndex::Build(wi.Input(world), PaperParams());
  ASSERT_TRUE(index_or.ok());
  const InvertedIndex& index = *index_or;
  for (size_t rank = 1; rank < index.num_entries(); ++rank) {
    EXPECT_GE(index.entry(rank - 1).score, index.entry(rank).score);
  }
}

TEST(InvertedIndex, EveryEntryHasAtLeastTwoProviders) {
  testutil::World world = testutil::SmallWorld(4);
  testutil::WorldInput wi(world);
  auto index_or = InvertedIndex::Build(wi.Input(world), PaperParams());
  ASSERT_TRUE(index_or.ok());
  for (size_t rank = 0; rank < index_or->num_entries(); ++rank) {
    EXPECT_GE(index_or->providers(rank).size(), 2u);
  }
}

TEST(InvertedIndex, TailSumBelowThreshold) {
  testutil::World world = testutil::SmallWorld(5);
  testutil::WorldInput wi(world);
  DetectionParams params = PaperParams();
  auto index_or = InvertedIndex::Build(wi.Input(world), params);
  ASSERT_TRUE(index_or.ok());
  const InvertedIndex& index = *index_or;
  double sum = 0.0;
  for (size_t rank = index.tail_begin(); rank < index.num_entries();
       ++rank) {
    sum += index.entry(rank).score;
  }
  EXPECT_LT(sum, params.theta_ind());
  // Maximality: adding the entry just before the tail crosses it.
  if (index.tail_begin() > 0) {
    EXPECT_GE(sum + index.entry(index.tail_begin() - 1).score,
              params.theta_ind());
  }
}

TEST(InvertedIndex, OtherOrderingsHaveNoTail) {
  testutil::World world = testutil::SmallWorld(6);
  testutil::WorldInput wi(world);
  for (EntryOrdering ordering :
       {EntryOrdering::kByProvider, EntryOrdering::kRandom}) {
    auto index_or =
        InvertedIndex::Build(wi.Input(world), PaperParams(), ordering, 9);
    ASSERT_TRUE(index_or.ok());
    EXPECT_EQ(index_or->tail_begin(), index_or->num_entries())
        << EntryOrderingName(ordering);
  }
}

TEST(InvertedIndex, ByProviderOrderingIsMonotone) {
  testutil::World world = testutil::SmallWorld(7);
  testutil::WorldInput wi(world);
  auto index_or = InvertedIndex::Build(wi.Input(world), PaperParams(),
                                       EntryOrdering::kByProvider, 1);
  ASSERT_TRUE(index_or.ok());
  const InvertedIndex& index = *index_or;
  for (size_t rank = 1; rank < index.num_entries(); ++rank) {
    EXPECT_LE(index.providers(rank - 1).size(),
              index.providers(rank).size());
  }
}

}  // namespace
}  // namespace copydetect
