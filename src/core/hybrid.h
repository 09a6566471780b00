#ifndef COPYDETECT_CORE_HYBRID_H_
#define COPYDETECT_CORE_HYBRID_H_

#include "core/bound.h"

namespace copydetect {

/// HYBRID (§IV end): INDEX bookkeeping for pairs sharing at most
/// `params.hybrid_threshold` items (bound computation would cost more
/// than it saves there), BOUND+ for everything else.
class HybridDetector : public CopyDetector {
 public:
  explicit HybridDetector(const DetectionParams& params,
                          EntryOrdering ordering =
                              EntryOrdering::kByContribution,
                          uint64_t seed = 1)
      : CopyDetector(params), ordering_(ordering), seed_(seed) {}

  std::string_view name() const override { return "hybrid"; }

  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override;

  /// Like DetectRound but also emits the per-pair bookkeeping the
  /// INCREMENTAL detector seeds itself with.
  Status DetectWithBookkeeping(const DetectionInput& in, CopyResult* out,
                               ScanBookkeeping* book);

  double last_index_seconds() const { return last_index_seconds_; }

 private:
  EntryOrdering ordering_;
  uint64_t seed_;
  double last_index_seconds_ = 0.0;
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_HYBRID_H_
