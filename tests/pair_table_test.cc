// PairTable (core/pair_table.h): the INDEX-family scans keep pair state
// in a dense triangle or in an ArenaHashMap, picked per round by
// UseDensePairTable. The layout must never show downstream: both
// layouts fed one visit stream walk the same pairs, in the same order,
// with the same states. At the detector level, one world per side of
// the gate is pinned to committed report bytes
// (tests/data/pair_table_golden.json) and to parallel ≡ serial.
#include "core/pair_table.h"

#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "copydetect/session.h"
#include "core/inverted_index.h"
#include "datagen/generator.h"
#include "eval/experiment.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::PaperParams;

/// Stock-1day at its smallest scale (55 sources, 200 items): every
/// pair shares an item, so the scans take the dense layout.
World DenseWorld() {
  auto world = MakeWorldByName("stock-1day", 0.0125, 7);
  CD_CHECK_OK(world.status());
  return std::move(world).value();
}

/// 60 mostly low-coverage sources over 150 items: about 15% of the
/// pairs share an item, so the scans keep the hash layout.
World SparseWorld() {
  WorldConfig config;
  config.name = "sparse";
  config.num_sources = 60;
  config.num_items = 150;
  config.false_pool = 10;
  config.min_coverage_items = 3;
  config.coverage = {.frac_small = 0.9,
                     .small_lo = 0.01,
                     .small_hi = 0.03,
                     .big_lo = 0.05,
                     .big_hi = 0.2};
  config.copying = {.num_groups = 4,
                    .group_min = 2,
                    .group_max = 3,
                    .selectivity = 0.8,
                    .extra_coverage_frac = 0.02,
                    .chain = false};
  auto world = GenerateWorld(config, 7);
  CD_CHECK_OK(world.status());
  return std::move(world).value();
}

/// Stand-in for a scan's pair state.
struct TestState {
  double sum = 0.0;
  uint32_t visits = 0;
};

struct Visit {
  SourceId lo;
  SourceId hi;
  bool tail;
  double x;
};

struct WalkedPair {
  uint64_t key;
  uint64_t sum_bits;
  uint32_t visits;
  bool operator==(const WalkedPair&) const = default;
};

struct Replay {
  uint64_t inserted = 0;
  uint64_t tail_hits = 0;
  uint64_t tail_misses = 0;
  std::vector<WalkedPair> walk;
};

/// Feeds `stream` through one layout the way the scans do: head visits
/// insert, tail visits only update pairs already present.
Replay ReplayStream(const std::vector<Visit>& stream, SourceId sources,
                    bool dense) {
  Arena arena;
  PairTable<TestState> table(&arena, sources, dense);
  EXPECT_EQ(table.dense(), dense);
  Replay out;
  for (const Visit& v : stream) {
    TestState* state;
    if (v.tail) {
      state = table.Find(v.lo, v.hi);
      if (state == nullptr) {
        ++out.tail_misses;
        continue;
      }
      ++out.tail_hits;
    } else {
      bool fresh = false;
      state = table.FindOrInsert(v.lo, v.hi, &fresh);
      if (fresh) ++out.inserted;
    }
    state->sum += v.x;
    ++state->visits;
  }
  table.ForEach([&](uint64_t key, TestState& state) {
    out.walk.push_back(
        {key, std::bit_cast<uint64_t>(state.sum), state.visits});
  });
  return out;
}

TEST(PairTable, DenseAndHashLayoutsWalkOneRecordedStreamIdentically) {
  // The pair visits of a real INDEX scan, in rank order, head and
  // tail. In this world tail entries both update tracked pairs and
  // meet a pair no head entry created, which must stay untracked.
  World world = testutil::SmallWorld(612, 60, 400);
  testutil::WorldInput wi(world);
  auto index = InvertedIndex::Build(wi.Input(world), PaperParams());
  ASSERT_TRUE(index.ok());
  ASSERT_LT(index->tail_begin(), index->num_entries());
  std::vector<Visit> stream;
  for (size_t rank = 0; rank < index->num_entries(); ++rank) {
    std::span<const SourceId> providers = index->providers(rank);
    for (size_t i = 0; i + 1 < providers.size(); ++i) {
      for (size_t j = i + 1; j < providers.size(); ++j) {
        stream.push_back({std::min(providers[i], providers[j]),
                          std::max(providers[i], providers[j]),
                          index->in_tail(rank),
                          index->entry(rank).score});
      }
    }
  }

  const SourceId sources = world.data.num_sources();
  Replay hash = ReplayStream(stream, sources, false);
  EXPECT_GT(hash.tail_hits, 0u);
  EXPECT_GT(hash.tail_misses, 0u);
  EXPECT_EQ(hash.walk.size(), hash.inserted);
  // The dense layout's states span several chunks.
  EXPECT_GT(hash.inserted, 2 * PairTable<TestState>::kChunkStates);
  Replay dense = ReplayStream(stream, sources, true);
  EXPECT_EQ(dense.inserted, hash.inserted);
  EXPECT_EQ(dense.tail_hits, hash.tail_hits);
  EXPECT_EQ(dense.tail_misses, hash.tail_misses);
  EXPECT_EQ(dense.walk, hash.walk);
}

TEST(PairTable, FindMissesUninsertedPairsInBothLayouts) {
  for (bool dense : {true, false}) {
    Arena arena;
    PairTable<TestState> table(&arena, 5, dense);
    bool fresh = false;
    table.FindOrInsert(0, 4, &fresh)->visits = 7;
    EXPECT_TRUE(fresh);
    EXPECT_EQ(table.FindOrInsert(0, 4, &fresh)->visits, 7u);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(table.Find(0, 3), nullptr);
    EXPECT_EQ(table.Find(3, 4), nullptr);
    ASSERT_NE(table.Find(0, 4), nullptr);
    // Distinct pairs own distinct cells: fill every pair, read back.
    for (SourceId lo = 0; lo < 5; ++lo) {
      for (SourceId hi = lo + 1; hi < 5; ++hi) {
        table.FindOrInsert(lo, hi, &fresh)->sum = lo * 10.0 + hi;
      }
    }
    for (SourceId lo = 0; lo < 5; ++lo) {
      for (SourceId hi = lo + 1; hi < 5; ++hi) {
        EXPECT_EQ(table.Find(lo, hi)->sum, lo * 10.0 + hi) << dense;
      }
    }
  }
}

TEST(PairTable, GateNeedsAQuarterOfPairsSharingAnItem) {
  // Four sources, six pairs: one shared item gives 1 positive pair
  // (under a quarter), a second one 2 (at least a quarter).
  auto counts = [](int shared_items) {
    DatasetBuilder builder;
    for (const char* s : {"s0", "s1", "s2", "s3"}) {
      builder.Add(s, std::string("own-") + s, "v");
    }
    if (shared_items >= 1) builder.Add("s0", "own-s1", "v");
    if (shared_items >= 2) builder.Add("s2", "own-s3", "v");
    auto data = builder.Build();
    CD_CHECK_OK(data.status());
    return ComputeOverlaps(*data);
  };
  EXPECT_FALSE(UseDensePairTable(counts(1), 1));
  EXPECT_TRUE(UseDensePairTable(counts(2), 1));
  EXPECT_TRUE(UseDensePairTable(counts(2), 4));
  // Triangles over the byte cap stay hashed however dense. Six 4-byte
  // cells per shard fit the cap this many times over:
  const size_t fits = kDensePairTableBytes / (6 * sizeof(uint32_t));
  EXPECT_TRUE(UseDensePairTable(counts(2), fits));
  EXPECT_FALSE(UseDensePairTable(counts(2), fits + 1));
}

/// One detector's report over `data`, rendered as if serial so that
/// runs at different widths compare byte for byte.
std::string ReportJson(const Dataset& data, const char* detector,
                       size_t threads) {
  SessionOptions options;
  options.detector = detector;
  options.threads = threads;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  auto report = session->Run(data);
  CD_CHECK_OK(report.status());
  report->threads = 1;
  return report->ToJson(data);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(PairTable, DetectorReportsMatchGoldenOnBothSidesOfTheGate) {
  World dense = DenseWorld();
  World sparse = SparseWorld();
  ASSERT_TRUE(UseDensePairTable(ComputeOverlaps(dense.data), 4));
  ASSERT_FALSE(UseDensePairTable(ComputeOverlaps(sparse.data), 1));

  // [dense index, dense hybrid, sparse index, sparse hybrid].
  std::string doc = "[";
  for (const Dataset* data : {&dense.data, &sparse.data}) {
    for (const char* detector : {"index", "hybrid"}) {
      SCOPED_TRACE(detector);
      std::string serial = ReportJson(*data, detector, 1);
      EXPECT_EQ(ReportJson(*data, detector, 4), serial);
      if (doc.size() > 1) doc += ',';
      doc += serial;
    }
  }
  doc += "]\n";
  EXPECT_EQ(doc, ReadFile(std::string(CD_TEST_DATA_DIR) +
                          "/pair_table_golden.json"));
}

}  // namespace
}  // namespace copydetect
