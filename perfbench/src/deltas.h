#ifndef PERFBENCH_DELTAS_H_
#define PERFBENCH_DELTAS_H_

// The seeded update stream every workload's serving phase sends.

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "common/random.h"
#include "copydetect/session.h"

namespace perfbench {

/// Deltas of 1–4 cells against `initial`: mostly an existing source
/// switching one of its items to a value another source already gives,
/// some retractions of cells that still exist, and a few cells from a
/// fixed pool of new sources. Every delta applies cleanly to the data
/// produced by applying all earlier deltas of the same stream, in
/// order. The same (data, seed) gives the same stream.
class DeltaStream {
 public:
  DeltaStream(const copydetect::Dataset& initial, uint64_t seed)
      : data_(initial), rng_(seed) {}

  copydetect::DatasetDelta Next();

 private:
  const copydetect::Dataset& data_;
  copydetect::Rng rng_;
  /// Initial cells retracted and not set again since.
  std::set<std::pair<copydetect::SourceId, copydetect::ItemId>>
      retracted_;
};

/// The wire `update` request carrying `delta` for `session`.
std::string UpdateLine(const copydetect::DatasetDelta& delta,
                       const std::string& session);

}  // namespace perfbench

#endif  // PERFBENCH_DELTAS_H_
