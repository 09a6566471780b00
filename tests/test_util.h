#ifndef COPYDETECT_TESTS_TEST_UTIL_H_
#define COPYDETECT_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/detector.h"
#include "datagen/generator.h"
#include "datagen/motivating_example.h"
#include "datagen/profiles.h"
#include "simjoin/overlap.h"

namespace copydetect {
namespace testutil {

using ::copydetect::World;

/// The running example's parameters (Ex. 2.1): alpha=.1, s=.8, n=50.
inline DetectionParams PaperParams() {
  DetectionParams params;
  params.alpha = 0.1;
  params.s = 0.8;
  params.n = 50.0;
  return params;
}

/// A fixture bundling the running example with its overlap counts, the
/// converged value probabilities (Table III) and accuracies (Table I),
/// wired into a DetectionInput.
struct ExampleFixture {
  World world;
  OverlapCounts overlaps;
  std::vector<double> probs;
  std::vector<double> accs;

  ExampleFixture()
      : world(MotivatingExample()),
        overlaps(ComputeOverlaps(world.data)),
        probs(MotivatingValueProbabilities(world.data)),
        accs(MotivatingAccuracies()) {}

  DetectionInput Input() const {
    DetectionInput in;
    in.data = &world.data;
    in.overlaps = &overlaps;
    in.value_probs = &probs;
    in.accuracies = &accs;
    return in;
  }
};

/// A small random world for equivalence/property tests: `sources`
/// sources, `items` items, with planted copiers.
inline World SmallWorld(uint64_t seed, size_t sources = 40,
                        size_t items = 200) {
  WorldConfig config;
  config.name = "small";
  config.num_sources = sources;
  config.num_items = items;
  config.false_pool = 10;
  config.min_coverage_items = 4;
  config.coverage = {.frac_small = 0.4,
                     .small_lo = 0.05,
                     .small_hi = 0.2,
                     .big_lo = 0.3,
                     .big_hi = 0.9};
  config.accuracy = {.frac_low = 0.2,
                     .low_lo = 0.1,
                     .low_hi = 0.45,
                     .high_lo = 0.6,
                     .high_hi = 0.95};
  config.copying = {.num_groups = 4,
                    .group_min = 2,
                    .group_max = 3,
                    .selectivity = 0.8,
                    .extra_coverage_frac = 0.05,
                    .chain = false};
  auto world = GenerateWorld(config, seed);
  CD_CHECK_OK(world.status());
  return std::move(world).value();
}

/// Builds a DetectionInput over a world using its overlap counts, naive
/// vote-share value probabilities and the planted true accuracies — a
/// realistic mid-iteration state for single-round algorithm tests.
/// Input() must be given the world this was built from.
struct WorldInput {
  OverlapCounts overlaps;
  std::vector<double> probs;
  std::vector<double> accs;

  explicit WorldInput(const World& world);

  DetectionInput Input(const World& world) const {
    DetectionInput in;
    in.data = &world.data;
    in.overlaps = &overlaps;
    in.value_probs = &probs;
    in.accuracies = &accs;
    return in;
  }
};

inline WorldInput::WorldInput(const World& world)
    : overlaps(ComputeOverlaps(world.data)) {
  const Dataset& data = world.data;
  probs.assign(data.num_slots(), 0.0);
  for (ItemId d = 0; d < data.num_items(); ++d) {
    double total = static_cast<double>(data.item_providers(d).size());
    for (SlotId v = data.slot_begin(d); v < data.slot_end(d); ++v) {
      probs[v] = total == 0.0
                     ? 0.0
                     : 0.9 * static_cast<double>(
                                 data.providers(v).size()) /
                           total;
    }
  }
  accs = world.true_accuracy;
}

/// One source pair and its exact item overlap.
struct OverlapPair {
  SourceId a = kInvalidSource;
  SourceId b = kInvalidSource;
  uint32_t overlap = 0;
};

/// Reference O(n^2) overlap join: every source pair sharing at least
/// `min_overlap` items, ascending by (a, b). Counts with
/// std::set_intersection, independent of the simjoin kernels it checks.
inline std::vector<OverlapPair> BruteForceJoin(const Dataset& data,
                                               uint32_t min_overlap) {
  std::vector<OverlapPair> out;
  std::vector<ItemId> shared;
  const size_t n = data.num_sources();
  for (SourceId a = 0; a + 1 < n; ++a) {
    for (SourceId b = static_cast<SourceId>(a + 1); b < n; ++b) {
      std::span<const ItemId> ia = data.items_of(a);
      std::span<const ItemId> ib = data.items_of(b);
      shared.clear();
      std::set_intersection(ia.begin(), ia.end(), ib.begin(), ib.end(),
                            std::back_inserter(shared));
      const auto ov = static_cast<uint32_t>(shared.size());
      if (ov >= min_overlap) out.push_back(OverlapPair{a, b, ov});
    }
  }
  return out;
}

/// Sorted copying-pair keys of a result (for set comparison).
inline std::vector<uint64_t> CopySet(const CopyResult& result) {
  std::vector<uint64_t> keys = result.CopyingPairs();
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// The JSON number spelling as the original writer produced it: the
/// first precision from 1 to 17 whose "%.*g" parses back (strtod) to
/// `d`. Kept as the reference AppendJsonDouble must match byte for
/// byte.
inline std::string ReferenceDoubleLiteral(double d) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

}  // namespace testutil
}  // namespace copydetect

#endif  // COPYDETECT_TESTS_TEST_UTIL_H_
