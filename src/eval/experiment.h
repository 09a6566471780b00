#ifndef COPYDETECT_EVAL_EXPERIMENT_H_
#define COPYDETECT_EVAL_EXPERIMENT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/sampling.h"
#include "datagen/generator.h"
#include "fusion/truth_finder.h"

namespace copydetect {

/// Generates one of the paper's four data-set stand-ins by name
/// ("book-cs", "book-full", "stock-1day", "stock-2wk") at the given
/// scale. Also accepts "example" for the running example.
StatusOr<World> MakeWorldByName(const std::string& name, double scale,
                                uint64_t seed);

/// The default per-data-set sampling rates of §VI (SAMPLE1 /
/// SCALESAMPLE): 1% on Stock-2wk, 10% elsewhere.
double DefaultSamplingRate(const std::string& dataset_name);

/// One full fusion run with one detector: result + wall time + the
/// detector's counters.
struct RunOutcome {
  std::string detector_name;
  FusionResult fusion;
  Counters counters;
  double seconds = 0.0;  ///< fusion total (detection + aggregation)
};

/// Runs iterative fusion with a fresh detector made by registry name
/// (see ListDetectors()). NotFound for an unknown name.
StatusOr<RunOutcome> RunFusion(const World& world,
                               std::string_view detector,
                               const FusionOptions& options);

/// Runs iterative fusion with a caller-provided detector (sampling
/// wrappers, custom orderings, private executors, ...).
StatusOr<RunOutcome> RunFusionWithDetector(const World& world,
                                           CopyDetector* detector,
                                           const FusionOptions& options);

/// Convenience: wraps the detector registered as `base` in a
/// SampledDetector with the named method and rate. Dies on an unknown
/// name: callers pass one of the built-in names.
std::unique_ptr<CopyDetector> MakeSampledDetector(
    const DetectionParams& params, std::string_view base,
    SamplingMethod method, double rate, uint64_t seed = 42);

}  // namespace copydetect

#endif  // COPYDETECT_EVAL_EXPERIMENT_H_
