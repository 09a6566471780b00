#include "core/hybrid.h"

namespace copydetect {

Status HybridDetector::DetectRound(const DetectionInput& in, int round,
                                   CopyResult* out) {
  (void)round;
  return DetectWithBookkeeping(in, out, nullptr);
}

Status HybridDetector::DetectWithBookkeeping(const DetectionInput& in,
                                             CopyResult* out,
                                             ScanBookkeeping* book) {
  ScanConfig config;
  config.lazy_bounds = true;
  config.hybrid_threshold = params_.hybrid_threshold;
  config.ordering = ordering_;
  config.seed = seed_;
  ScanOutputs extras;
  Status st =
      BoundedScan(in, params_, config, &counters_, out, book, &extras);
  last_index_seconds_ = extras.index_seconds;
  return st;
}

}  // namespace copydetect
