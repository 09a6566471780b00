#include "core/bayes.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::PaperParams;

TEST(Thresholds, PaperValues) {
  DetectionParams params = PaperParams();
  // Ex. 4.2: theta_cp = ln(.8/.1) = 2.08, theta_ind = ln(.8/.2) = 1.39.
  EXPECT_NEAR(params.theta_cp(), 2.079, 1e-3);
  EXPECT_NEAR(params.theta_ind(), 1.386, 1e-3);
  // ln(1-s) = ln(.2) = -1.609 (the "-1.6" of the examples).
  EXPECT_NEAR(params.different_penalty(), -1.609, 1e-3);
}

TEST(SharedContribution, Example21SharedFalseValue) {
  // Ex. 2.1: S2, S3 both accuracy .2 share NJ.Atlantic with P = .01;
  // the contribution is 3.89.
  DetectionParams params = PaperParams();
  double c = SharedContribution(0.01, 0.2, 0.2, params);
  EXPECT_NEAR(c, 3.89, 0.01);
}

TEST(DifferentValuePenalty, MatchesHandComputation) {
  DetectionParams params = PaperParams();
  double per_item = params.different_penalty();  // ln(.2) ≈ -1.609
  // 7 shared items, 3 shared values: 4 different items penalized.
  EXPECT_DOUBLE_EQ(DifferentValuePenalty(per_item, 7, 3),
                   per_item * 4.0);
  EXPECT_DOUBLE_EQ(DifferentValuePenalty(per_item, 5, 5), 0.0);
}

TEST(DifferentValuePenalty, NSharedAboveLDoesNotUnderflow) {
  // Regression for the parallel-index finalization: l - n_shared was
  // computed in uint32_t before the cast to double, so a crafted input
  // with n_shared > l (e.g. shared-value counts paired with stale
  // overlap counts from another data set) wrapped to ~4.29e9 and blew
  // the penalty up to ~ -6.9e9 — flipping every affected posterior.
  DetectionParams params = PaperParams();
  double per_item = params.different_penalty();
  double d = DifferentValuePenalty(per_item, 3, 5);
  EXPECT_DOUBLE_EQ(d, per_item * -2.0);
  EXPECT_GT(d, 0.0);           // negative penalty times negative count
  EXPECT_LT(std::abs(d), 10.0);  // graceful, not ~1e9
  // The magnitude the unsigned subtraction used to produce:
  uint32_t wrapped = 3u - 5u;
  EXPECT_GT(static_cast<double>(wrapped), 4.0e9);
}

TEST(SharedContribution, Example21TrueValueIsWeakEvidence) {
  // S0, S1 (accuracy .99) sharing a value with P ~= .96 contributes
  // only ~.01 — sharing true values is weak evidence.
  DetectionParams params = PaperParams();
  double c = SharedContribution(0.96, 0.99, 0.99, params);
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 0.02);
}

TEST(SharedContribution, AlwaysPositive) {
  // Sharing any value is positive evidence ([6], cited in §II-A);
  // property over a parameter grid.
  DetectionParams params = PaperParams();
  for (double p : {0.001, 0.01, 0.1, 0.5, 0.9, 0.999}) {
    for (double a1 : {0.01, 0.2, 0.5, 0.8, 0.99}) {
      for (double a2 : {0.01, 0.2, 0.5, 0.8, 0.99}) {
        EXPECT_GT(SharedContribution(p, a1, a2, params), 0.0)
            << "p=" << p << " a1=" << a1 << " a2=" << a2;
      }
    }
  }
}

TEST(SharedContribution, LowerProbabilityStrongerEvidence) {
  // §II-A: the score is larger when the shared value is more likely
  // false (lower P).
  DetectionParams params = PaperParams();
  double prev = 1e300;
  for (double p : {0.01, 0.05, 0.2, 0.5, 0.9}) {
    double c = SharedContribution(p, 0.6, 0.6, params);
    EXPECT_LT(c, prev);
    prev = c;
  }
}

/// Asserts both directions of Eq6Kernel on (p, a1, a2) are
/// SharedContribution's doubles bit for bit.
void ExpectKernelBitIdentical(const Eq6Kernel& eq6, double p, double a1,
                              double a2, const DetectionParams& params) {
  const Eq6Kernel::Operand po = Eq6Kernel::Probability(p);
  const Eq6Kernel::Operand a1o = Eq6Kernel::Accuracy(a1);
  const Eq6Kernel::Operand a2o = Eq6Kernel::Accuracy(a2);
  EXPECT_EQ(std::bit_cast<uint64_t>(eq6(po, a1o, a2o)),
            std::bit_cast<uint64_t>(SharedContribution(p, a1, a2, params)))
      << "fwd p=" << p << " a1=" << a1 << " a2=" << a2;
  EXPECT_EQ(std::bit_cast<uint64_t>(eq6(po, a2o, a1o)),
            std::bit_cast<uint64_t>(SharedContribution(p, a2, a1, params)))
      << "bwd p=" << p << " a1=" << a1 << " a2=" << a2;
}

TEST(Eq6Kernel, BitIdenticalToSharedContributionAtClampEdges) {
  DetectionParams params = PaperParams();
  const Eq6Kernel eq6(params);
  for (double p : {0.0, 1e-7, 1.0 - 1e-7, 1.0, 0.5}) {
    for (double a1 : {0.0, 0.004, 0.996, 1.0, 0.5}) {
      for (double a2 : {0.0, 0.004, 0.996, 1.0, 0.5}) {
        ExpectKernelBitIdentical(eq6, p, a1, a2, params);
      }
    }
  }
}

TEST(Eq6Kernel, BitIdenticalToSharedContributionOnRandomGrid) {
  // Random operands and model parameters; Accuracies() must give the
  // per-source operands Accuracy() gives one at a time.
  Rng rng(0xe96);
  for (int trial = 0; trial < 200; ++trial) {
    DetectionParams params = PaperParams();
    params.s = rng.UniformDouble(0.05, 0.95);
    params.n = rng.UniformDouble(1.0, 200.0);
    const Eq6Kernel eq6(params);
    std::vector<double> accs(6);
    for (double& a : accs) a = rng.NextDouble();
    std::vector<Eq6Kernel::Operand> ops = Eq6Kernel::Accuracies(accs);
    ASSERT_EQ(ops.size(), accs.size());
    for (size_t s = 0; s < accs.size(); ++s) {
      EXPECT_EQ(ops[s].x, Eq6Kernel::Accuracy(accs[s]).x);
      EXPECT_EQ(ops[s].complement, Eq6Kernel::Accuracy(accs[s]).complement);
    }
    for (int k = 0; k < 20; ++k) {
      ExpectKernelBitIdentical(eq6, rng.NextDouble(),
                               accs[rng.NextBelow(accs.size())],
                               accs[rng.NextBelow(accs.size())], params);
    }
  }
}

TEST(NoCopyPosterior, Example21CopyingPair) {
  // Ex. 2.1: C→ = C← = 11.58 gives Pr(S2⊥S3) = .00004.
  DetectionParams params = PaperParams();
  double p = NoCopyPosterior(11.58, 11.58, params);
  EXPECT_NEAR(p, 0.00004, 0.00002);
}

TEST(NoCopyPosterior, Example21IndependentPair) {
  // Ex. 2.1: C→ = C← = .04 gives Pr(S0⊥S1) = .79.
  DetectionParams params = PaperParams();
  double p = NoCopyPosterior(0.04, 0.04, params);
  EXPECT_NEAR(p, 0.79, 0.01);
}

TEST(NoCopyPosterior, OverflowSafe) {
  DetectionParams params = PaperParams();
  EXPECT_NEAR(NoCopyPosterior(5000.0, 5000.0, params), 0.0, 1e-12);
  EXPECT_NEAR(NoCopyPosterior(-5000.0, -5000.0, params), 1.0, 1e-12);
  EXPECT_NEAR(NoCopyPosterior(5000.0, -5000.0, params), 0.0, 1e-12);
}

TEST(NoCopyPosterior, ThresholdSemantics) {
  // At C = theta_cp in one direction (other very negative) the
  // posterior sits exactly at 1/2; at both C = theta_ind it also sits
  // at 1/2 — the basis of the early-termination rules (§IV-A).
  DetectionParams params = PaperParams();
  EXPECT_NEAR(NoCopyPosterior(params.theta_cp(), -1e9, params), 0.5,
              1e-9);
  EXPECT_NEAR(
      NoCopyPosterior(params.theta_ind(), params.theta_ind(), params),
      0.5, 1e-9);
}

TEST(DirectionPosteriors, SumsToOneAndAgrees) {
  DetectionParams params = PaperParams();
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    double cf = rng.UniformDouble(-20.0, 20.0);
    double cb = rng.UniformDouble(-20.0, 20.0);
    Posteriors post = DirectionPosteriors(cf, cb, params);
    EXPECT_NEAR(post.indep + post.fwd + post.bwd, 1.0, 1e-12);
    EXPECT_NEAR(post.indep, NoCopyPosterior(cf, cb, params), 1e-9);
    if (cf > cb) {
      EXPECT_GT(post.fwd, post.bwd);
    }
  }
}

TEST(MaxEntryContribution, TableIIIScores) {
  // Table III: AZ.Tempe (P=.02, providers S5=.6, S6=.01) scores 4.59;
  // NJ.Atlantic (P=.01, providers .2/.2/.4) scores 4.12;
  // FL.Miami (P=.03, providers .2/.2) scores 3.83.
  DetectionParams params = PaperParams();
  {
    std::vector<double> accs = {0.6, 0.01};
    EXPECT_NEAR(MaxEntryContribution(accs, 0.02, params), 4.59, 0.01);
  }
  {
    std::vector<double> accs = {0.2, 0.2, 0.4};
    EXPECT_NEAR(MaxEntryContribution(accs, 0.01, params), 4.12, 0.01);
  }
  {
    std::vector<double> accs = {0.2, 0.2};
    EXPECT_NEAR(MaxEntryContribution(accs, 0.03, params), 3.83, 0.01);
  }
}

TEST(MaxEntryContribution, TableIIITrueValueScores) {
  // AZ.Phoenix: P=.95, providers {.99,.99,.2,.2,.4} -> 1.62;
  // NJ.Trenton: P=.97, providers {.99,.99,.25,.2,.99} -> 1.51.
  DetectionParams params = PaperParams();
  {
    // The paper prints 1.62; exact arithmetic at P = .95 gives 1.60
    // (the paper's P column is rounded to two digits).
    std::vector<double> accs = {0.99, 0.99, 0.2, 0.2, 0.4};
    EXPECT_NEAR(MaxEntryContribution(accs, 0.95, params), 1.62, 0.03);
  }
  {
    std::vector<double> accs = {0.99, 0.99, 0.25, 0.2, 0.99};
    EXPECT_NEAR(MaxEntryContribution(accs, 0.97, params), 1.51, 0.01);
  }
}

// Property sweep: Proposition 3.1's case analysis must match the
// brute-force maximizer for random provider accuracy multisets.
struct Prop31Case {
  double alpha;
  double s;
  double n;
};

class Prop31Test : public ::testing::TestWithParam<Prop31Case> {};

TEST_P(Prop31Test, MatchesBruteForce) {
  Prop31Case param = GetParam();
  DetectionParams params;
  params.alpha = param.alpha;
  params.s = param.s;
  params.n = param.n;
  ASSERT_TRUE(params.Validate().ok());

  Rng rng(0xc0ffee ^ static_cast<uint64_t>(param.n));
  for (int trial = 0; trial < 300; ++trial) {
    size_t k = 2 + static_cast<size_t>(rng.NextBelow(6));
    std::vector<double> accs(k);
    for (double& a : accs) a = rng.UniformDouble(0.01, 0.99);
    double p = rng.UniformDouble(0.001, 0.999);
    double fast = MaxEntryContribution(accs, p, params);
    double brute = BruteForceMaxEntryContribution(accs, p, params);
    EXPECT_NEAR(fast, brute, 1e-9)
        << "trial " << trial << " p=" << p << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, Prop31Test,
    ::testing::Values(Prop31Case{0.1, 0.8, 50.0},
                      Prop31Case{0.2, 0.8, 50.0},
                      Prop31Case{0.05, 0.5, 10.0},
                      Prop31Case{0.24, 0.95, 100.0},
                      Prop31Case{0.12, 0.3, 5.0},
                      Prop31Case{0.01, 0.99, 1000.0}));

TEST(IndependentSharedProb, MatchesEquation3) {
  DetectionParams params = PaperParams();
  // P(D.v)=.01, A1=.4, A2=.2, n=50:
  // .01*.4*.2 + .99*.6*.8/50 = .0008 + .009504 = .010304.
  EXPECT_NEAR(IndependentSharedProb(0.01, 0.4, 0.2, params), 0.010304,
              1e-6);
}

TEST(CopiedValueProb, MatchesEquation4) {
  // P=.01, A2=.2: .01*.2 + .99*.8 = .794.
  EXPECT_NEAR(CopiedValueProb(0.01, 0.2), 0.794, 1e-9);
}

}  // namespace
}  // namespace copydetect
