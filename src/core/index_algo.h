#ifndef COPYDETECT_CORE_INDEX_ALGO_H_
#define COPYDETECT_CORE_INDEX_ALGO_H_

#include "core/detector.h"
#include "core/inverted_index.h"

namespace copydetect {

/// The INDEX algorithm (§III): scan the inverted index in decreasing
/// score order, create pair state only for pairs co-occurring in a
/// head (non-tail) entry, accumulate exact contributions for every
/// shared value, and finalize with the different-value penalty
/// ln(1-s)·(l - n). Produces the same binary decisions as PAIRWISE
/// (Prop. 3.5) while skipping pairs that share nothing or only tail
/// values. When DetectionParams::executor runs more than one thread
/// the scan shards *by pair ownership* (Mix64(PairKey) mod shard
/// count): every worker walks the whole entry stream in rank order but
/// accumulates only the pairs it owns, so each pair's floating-point
/// sums are formed in exactly the sequential order and the result is
/// bit-identical to the serial scan at every thread count.
class IndexDetector : public CopyDetector {
 public:
  explicit IndexDetector(const DetectionParams& params,
                         EntryOrdering ordering =
                             EntryOrdering::kByContribution,
                         uint64_t seed = 1)
      : CopyDetector(params), ordering_(ordering), seed_(seed) {}

  std::string_view name() const override { return "index"; }

  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override;

  /// Indexing seconds of the most recent round (the paper reports
  /// indexing cost separately from scanning).
  double last_index_seconds() const { return last_index_seconds_; }

 private:
  EntryOrdering ordering_;
  uint64_t seed_;
  double last_index_seconds_ = 0.0;
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_INDEX_ALGO_H_
