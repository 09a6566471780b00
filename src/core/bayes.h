#ifndef COPYDETECT_CORE_BAYES_H_
#define COPYDETECT_CORE_BAYES_H_

#include <cmath>
#include <cstdint>
#include <span>

#include "model/types.h"

#include "core/params.h"

namespace copydetect {

/// Probability that two *independent* sources S1, S2 both provide the
/// same value v on an item, given Pr(v true) = p and accuracies a1, a2
/// (Eq. 3):  p·a1·a2 + (1-p)·(1-a1)(1-a2)/n.
double IndependentSharedProb(double p, double a1, double a2,
                             const DetectionParams& params);

/// Probability of observing S2's value when the copier copied it
/// (Eq. 4):  p·a2 + (1-p)(1-a2).
double CopiedValueProb(double p, double a2);

/// Contribution score C→(D) of a *shared* value to "S1 copies from S2"
/// (Eq. 6):  ln(1 - s + s · CopiedValueProb / IndependentSharedProb).
/// a1 is the candidate copier's accuracy, a2 the candidate original's.
/// Positive for plausible values, larger for improbable (false) values.
double SharedContribution(double p, double a1, double a2,
                          const DetectionParams& params);

/// Posterior probability of independence given accumulated directional
/// scores (Eq. 2): 1 / (1 + (alpha/beta)(e^{c_fwd} + e^{c_bwd})).
/// Overflow-safe for arbitrarily large scores.
double NoCopyPosterior(double c_fwd, double c_bwd,
                       const DetectionParams& params);

/// Full directional posterior: Pr(independent), Pr(S1→S2) (S1 copies
/// from S2) and Pr(S1←S2), proportional to {beta, alpha·e^{c_fwd},
/// alpha·e^{c_bwd}}. Sums to 1.
struct Posteriors {
  double indep = 1.0;
  double fwd = 0.0;
  double bwd = 0.0;
};
Posteriors DirectionPosteriors(double c_fwd, double c_bwd,
                               const DetectionParams& params);

/// Batched per-pair form of SharedContribution for the PAIRWISE merge
/// loop, which evaluates Eq. 6 for one (S1, S2) pair across every
/// shared value: the accuracy clamps and complements are hoisted once
/// per pair, while each evaluation keeps Eq. 6's exact operation
/// order — so for every p,
///
///   Forward(p)  == SharedContribution(p, a1, a2, params)
///   Backward(p) == SharedContribution(p, a2, a1, params)
///
/// bit for bit. The two directions are separate computations on
/// purpose: p·a1·a2 associates as (p·a1)·a2, so the transposed
/// product (p·a2)·a1 can round differently and must be evaluated
/// exactly as the unbatched call would.
class PairContributionScorer {
 public:
  PairContributionScorer(double a1, double a2,
                         const DetectionParams& params)
      : a1_(ClampAccuracy(a1)),
        a2_(ClampAccuracy(a2)),
        na1_(1.0 - a1_),
        na2_(1.0 - a2_),
        s_(params.s),
        n_(params.n) {}

  /// C→: S1 (accuracy a1) copies this value from S2 (accuracy a2).
  double Forward(double p) const {
    p = ClampProbability(p);
    double indep = p * a1_ * a2_ + (1.0 - p) * na1_ * na2_ / n_;
    double copied = p * a2_ + (1.0 - p) * na2_;
    return std::log(1.0 - s_ + s_ * copied / indep);
  }

  /// C←: S2 copies from S1 — the a2/a1 transpose of Forward.
  double Backward(double p) const {
    p = ClampProbability(p);
    double indep = p * a2_ * a1_ + (1.0 - p) * na2_ * na1_ / n_;
    double copied = p * a1_ + (1.0 - p) * na1_;
    return std::log(1.0 - s_ + s_ * copied / indep);
  }

 private:
  double a1_, a2_, na1_, na2_, s_, n_;
};

/// Maximum shared-value contribution M̂(D.v) over ordered provider
/// pairs (Prop. 3.1). Implemented via the complete extreme-point
/// argument — Eq. 6's ratio is monotone in each accuracy, so only the
/// providers' min / second-min / max / second-max accuracies can
/// participate in the maximizer; four evaluations suffice. This
/// subsumes the paper's three-case analysis and is robust at its case
/// boundaries. `accuracies` are the value's providers' accuracies
/// (size >= 2).
double MaxEntryContribution(std::span<const double> accuracies, double p,
                            const DetectionParams& params);

/// Provider-batched form for the index (re)build hot path: reads the
/// providers' accuracies straight out of the source-indexed accuracy
/// array instead of a copied-out scratch vector. The extremes scan
/// visits accuracies in the same order as the copy would, so the
/// result is bit-identical to the span overload on the copied values.
double MaxEntryContribution(std::span<const SourceId> providers,
                            std::span<const double> accuracies, double p,
                            const DetectionParams& params);

/// O(k^2) reference maximizer used by tests to validate Prop. 3.1.
double BruteForceMaxEntryContribution(std::span<const double> accuracies,
                                      double p,
                                      const DetectionParams& params);

/// Total different-value adjustment ln(1-s)·(l - n) of the INDEX
/// finalization step (§III Step 3), computed in double space.
/// `l` (shared items) and `n_shared` (shared values) are unsigned
/// counts from different passes; the naive `l - n_shared` wraps to
/// ~4·10^9 whenever overlap counts of another data set or crafted
/// input make n_shared exceed l, exploding the penalty. Widen before
/// subtracting so the mismatch degrades gracefully instead.
inline double DifferentValuePenalty(double per_item_penalty, uint32_t l,
                                    uint32_t n_shared) {
  return per_item_penalty *
         (static_cast<double>(l) - static_cast<double>(n_shared));
}

}  // namespace copydetect

#endif  // COPYDETECT_CORE_BAYES_H_
