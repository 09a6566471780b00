#ifndef COPYDETECT_CORE_BAYES_H_
#define COPYDETECT_CORE_BAYES_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

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

/// Eq. 6 with its clamps and complements hoisted out of the hot loops.
/// The scans evaluate SharedContribution for every (value, provider
/// pair) visit; clamping the accuracies once per round per source and
/// the probability once per value, and storing each complement 1 − x
/// next to it, leaves only the arithmetic and the log per visit. The
/// evaluation keeps Eq. 6's exact operation order, so for every p, a1,
/// a2
///
///   kernel(Probability(p), Accuracy(a1), Accuracy(a2))
///       == SharedContribution(p, a1, a2, params)
///
/// bit for bit. The two directions of a pair are separate calls on
/// purpose: p·a1·a2 associates as (p·a1)·a2, so the transposed product
/// (p·a2)·a1 can round differently and must be evaluated exactly as
/// the unbatched call would.
class Eq6Kernel {
 public:
  /// A clamped probability or accuracy x with its complement 1 − x.
  struct Operand {
    double x = 0.0;
    double complement = 1.0;
  };

  static Operand Probability(double p) {
    p = ClampProbability(p);
    return {p, 1.0 - p};
  }
  static Operand Accuracy(double a) {
    a = ClampAccuracy(a);
    return {a, 1.0 - a};
  }
  /// Accuracy operands of every source, indexed by SourceId.
  static std::vector<Operand> Accuracies(std::span<const double> accs) {
    std::vector<Operand> out(accs.size());
    for (size_t s = 0; s < accs.size(); ++s) out[s] = Accuracy(accs[s]);
    return out;
  }

  explicit Eq6Kernel(const DetectionParams& params)
      : s_(params.s), n_(params.n) {}

  /// C→ of a shared value: the source with accuracy a1 copies it from
  /// the source with accuracy a2.
  double operator()(Operand p, Operand a1, Operand a2) const {
    double indep =
        p.x * a1.x * a2.x + p.complement * a1.complement * a2.complement / n_;
    double copied = p.x * a2.x + p.complement * a2.complement;
    return std::log(1.0 - s_ + s_ * copied / indep);
  }

 private:
  double s_, n_;
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
