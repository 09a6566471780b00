// Adversarial tests of the INCREMENTAL machinery: drive DetectRound
// directly with hand-crafted probability trajectories — including
// abrupt big changes after the snapshot freeze — and require the same
// conclusions as a from-scratch HYBRID run on the final state.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/hybrid.h"
#include "core/incremental.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::PaperParams;

/// Runs `detector` through the probability trajectory on `in`'s data,
/// overlaps and accuracies, returning the result of the last round.
CopyResult RunTrajectory(CopyDetector* detector, DetectionInput in,
                         const std::vector<std::vector<double>>& probs) {
  CopyResult result;
  for (size_t round = 0; round < probs.size(); ++round) {
    in.value_probs = &probs[round];
    CD_CHECK_OK(detector->DetectRound(
        in, static_cast<int>(round) + 1, &result));
  }
  return result;
}

std::vector<std::vector<double>> DriftTrajectory(
    const std::vector<double>& base, size_t rounds, double step,
    uint64_t seed) {
  Rng rng(seed);
  std::vector<double> direction(base.size());
  for (double& d : direction) d = rng.UniformDouble(-1.0, 1.0);
  std::vector<std::vector<double>> out;
  std::vector<double> current = base;
  for (size_t r = 0; r < rounds; ++r) {
    out.push_back(current);
    for (size_t v = 0; v < current.size(); ++v) {
      current[v] = std::clamp(current[v] + step * direction[v], 0.001,
                              0.999);
    }
  }
  return out;
}

TEST(IncrementalDeep, SmallDriftKeepsHybridAgreement) {
  testutil::World world = testutil::SmallWorld(601, 40, 300);
  testutil::WorldInput wi(world);
  auto trajectory = DriftTrajectory(wi.probs, 6, 0.01, 11);

  IncrementalDetector incremental(PaperParams());
  CopyResult inc_last =
      RunTrajectory(&incremental, wi.Input(world), trajectory);
  // Fresh hybrid on the final state.
  HybridDetector hybrid(PaperParams());
  DetectionInput final_in = wi.Input(world);
  final_in.value_probs = &trajectory.back();
  CopyResult hybrid_last;
  CD_CHECK_OK(hybrid.DetectRound(final_in, 1, &hybrid_last));

  PrfScores prf = ComparePairs(inc_last, hybrid_last);
  EXPECT_GE(prf.f1, 0.95);
}

TEST(IncrementalDeep, BigProbabilityJumpForcesCorrectFlips) {
  // Rounds 1-3 see the normal probabilities; round 4 inverts them for
  // a handful of heavily-shared values — every affected pair must be
  // re-decided the way a from-scratch run would.
  testutil::World world = testutil::SmallWorld(602, 30, 200);
  testutil::WorldInput wi(world);
  std::vector<std::vector<double>> trajectory(4, wi.probs);
  // Invert the probabilities of the most-shared slots.
  std::vector<double>& last = trajectory.back();
  size_t flipped = 0;
  for (SlotId v = 0; v < world.data.num_slots() && flipped < 20; ++v) {
    if (world.data.providers(v).size() >= 3) {
      last[v] = std::clamp(1.0 - last[v], 0.001, 0.999);
      ++flipped;
    }
  }
  ASSERT_GT(flipped, 0u);

  IncrementalDetector incremental(PaperParams());
  CopyResult inc_last =
      RunTrajectory(&incremental, wi.Input(world), trajectory);
  HybridDetector hybrid(PaperParams());
  DetectionInput final_in = wi.Input(world);
  final_in.value_probs = &last;
  CopyResult hybrid_last;
  CD_CHECK_OK(hybrid.DetectRound(final_in, 1, &hybrid_last));

  PrfScores prf = ComparePairs(inc_last, hybrid_last);
  EXPECT_GE(prf.f1, 0.9);
}

TEST(IncrementalDeep, BigAccuracyJumpMigratesPairsToExact) {
  testutil::World world = testutil::SmallWorld(603, 30, 200);
  testutil::WorldInput wi(world);
  std::vector<std::vector<double>> trajectory(4, wi.probs);

  IncrementalDetector detector(PaperParams());
  CopyResult result;
  std::vector<double> accs = wi.accs;
  DetectionInput in = wi.Input(world);
  in.accuracies = &accs;
  for (int round = 1; round <= 3; ++round) {
    CD_CHECK_OK(detector.DetectRound(in, round, &result));
  }
  // Round 4: one source's accuracy collapses far beyond rho_accuracy.
  accs[0] = std::max(0.05, accs[0] - 0.5);
  CD_CHECK_OK(detector.DetectRound(in, 4, &result));
  const auto& stats = detector.round_stats().back();
  EXPECT_GT(stats.exact + stats.pass3, 0u);

  // And its pairs must match a fresh exact evaluation.
  HybridDetector hybrid(PaperParams());
  CopyResult fresh;
  CD_CHECK_OK(hybrid.DetectRound(in, 1, &fresh));
  for (SourceId other = 1; other < world.data.num_sources(); ++other) {
    EXPECT_EQ(result.IsCopying(0, other), fresh.IsCopying(0, other))
        << "pair (0," << other << ")";
  }
}

TEST(IncrementalDeep, ConstantInputIsNearlyAllPassOne) {
  // With literally nothing changing, rounds >= 3 must resolve almost
  // everything in pass 1 and never flip. A handful of pairs that were
  // decided early with unseen post-decision evidence legitimately need
  // the exact pass-2 check each round (they are the paper's step-4/5
  // residue); they must stay a tiny fraction.
  testutil::World world = testutil::SmallWorld(604, 30, 200);
  testutil::WorldInput wi(world);
  std::vector<std::vector<double>> trajectory(5, wi.probs);
  IncrementalDetector detector(PaperParams());
  RunTrajectory(&detector, wi.Input(world), trajectory);
  const auto& stats = detector.round_stats();
  ASSERT_EQ(stats.size(), 5u);
  for (size_t i = 2; i < stats.size(); ++i) {
    uint64_t total = stats[i].pass1 + stats[i].pass2 + stats[i].pass3 +
                     stats[i].exact;
    EXPECT_EQ(stats[i].pass3, 0u) << "round " << i + 1;
    EXPECT_EQ(stats[i].exact, 0u);
    EXPECT_GT(stats[i].pass1, 0u);
    EXPECT_LE(static_cast<double>(stats[i].pass2),
              0.05 * static_cast<double>(total));
  }
}

TEST(IncrementalDeep, RepeatedTrajectoriesAreDeterministic) {
  testutil::World world = testutil::SmallWorld(605, 25, 150);
  testutil::WorldInput wi(world);
  auto trajectory = DriftTrajectory(wi.probs, 5, 0.02, 3);
  IncrementalDetector d1(PaperParams());
  IncrementalDetector d2(PaperParams());
  CopyResult r1 = RunTrajectory(&d1, wi.Input(world), trajectory);
  CopyResult r2 = RunTrajectory(&d2, wi.Input(world), trajectory);
  EXPECT_EQ(testutil::CopySet(r1), testutil::CopySet(r2));
  EXPECT_EQ(d1.counters().Total(), d2.counters().Total());
}

}  // namespace
}  // namespace copydetect
