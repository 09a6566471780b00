#ifndef COPYDETECT_CORE_PAIRWISE_H_
#define COPYDETECT_CORE_PAIRWISE_H_

#include "core/detector.h"

namespace copydetect {

/// Exact directional scores for one pair, computed by merging the two
/// sources' sorted item lists (the PAIRWISE inner loop, reused by the
/// INCREMENTAL flip re-computation). fwd = "a copies from b".
struct PairScores {
  double c_fwd = 0.0;
  double c_bwd = 0.0;
  uint32_t shared_items = 0;
  uint32_t shared_values = 0;
};

/// Computes PairScores for (a, b); counts 2 score evaluations per
/// shared item into `counters` (the paper's PAIRWISE accounting).
PairScores ComputePairScores(const DetectionInput& in, SourceId a,
                             SourceId b, const DetectionParams& params,
                             Counters* counters);

/// The exhaustive baseline of §II-B: every pair of sources, every
/// shared item, every round. Quality reference for every other method.
class PairwiseDetector : public CopyDetector {
 public:
  explicit PairwiseDetector(const DetectionParams& params)
      : CopyDetector(params) {}

  std::string_view name() const override { return "pairwise"; }

  /// Pairwise finds each pair's shared items itself.
  bool reads_overlaps() const override { return false; }

  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override;

 private:
  // Round-to-round scratch for the dense pair layout (item bitmaps +
  // per-source slot tables, see DetectRound). Detector-owned so the
  // steady state allocates nothing per round.
  std::vector<uint64_t> bits_;
  std::vector<SlotId> slot_of_;
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_PAIRWISE_H_
