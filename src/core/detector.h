#ifndef COPYDETECT_CORE_DETECTOR_H_
#define COPYDETECT_CORE_DETECTOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/copy_result.h"
#include "core/counters.h"
#include "core/params.h"
#include "model/dataset.h"

namespace copydetect {

class OverlapCounts;

/// Everything a detection round reads: the static data set, its
/// shared-item counts, and the fusion loop's current estimates. Value
/// probabilities are per slot (see Dataset), accuracies per source.
struct DetectionInput {
  const Dataset* data = nullptr;
  /// l(S1, S2) of `data` (simjoin/overlap.h), counted once by whoever
  /// runs the loop and reused every round. Required by the detectors
  /// whose reads_overlaps() is true; may be null for the others.
  const OverlapCounts* overlaps = nullptr;
  const std::vector<double>* value_probs = nullptr;
  const std::vector<double>* accuracies = nullptr;

  Status Validate() const;
  /// Validate() plus a non-null `overlaps` over data's source count.
  Status ValidateWithOverlaps() const;
};

/// Interface every copy-detection algorithm implements. Detectors may
/// keep cross-round state (INCREMENTAL does); `round` is the 1-based
/// fusion round. Counters accumulate across rounds until Reset().
class CopyDetector {
 public:
  virtual ~CopyDetector() = default;

  /// Algorithm name for reports ("pairwise", "index", "hybrid", ...).
  virtual std::string_view name() const = 0;

  /// Runs one detection round. `out` is cleared first.
  virtual Status DetectRound(const DetectionInput& in, int round,
                             CopyResult* out) = 0;

  /// Drops any cross-round state and zeroes counters.
  virtual void Reset() { counters_.Reset(); }

  /// True when DetectRound reads DetectionInput::overlaps, so the
  /// caller must count them. Defaults to true so that wrappers which
  /// forward their input unchanged get counts to forward.
  virtual bool reads_overlaps() const { return true; }

  const Counters& counters() const { return counters_; }
  const DetectionParams& params() const { return params_; }

 protected:
  explicit CopyDetector(const DetectionParams& params)
      : params_(params) {}

  DetectionParams params_;
  Counters counters_;
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_DETECTOR_H_
