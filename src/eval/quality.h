#ifndef COPYDETECT_EVAL_QUALITY_H_
#define COPYDETECT_EVAL_QUALITY_H_

// Quality-gate harness over the adversarial scenario library
// (datagen/scenarios.h): one ScenarioResult per (scenario, detector)
// pair, scoring the detected copy graph against the planted one and
// the fused truth against the gold standard. bench/quality_sweep
// serializes these as QUALITY.json; the quality-gate CI job compares
// that against the committed baseline (tools/bench_compare.py
// --quality), so speed work cannot silently trade away recall.

#include <string>

#include "datagen/scenarios.h"
#include "eval/experiment.h"
#include "eval/metrics.h"

namespace copydetect {

/// Quality of one detector on one scenario.
struct ScenarioResult {
  std::string scenario;
  std::string detector;
  /// Copy-graph quality: precision against the clique closure of the
  /// planted pairs (co-copiers are indistinguishable from copiers —
  /// see CopyClosure), recall against the direct planted edges, f1 of
  /// those two.
  PrfScores pairs;
  /// Gold-standard accuracy of the fused truth.
  double fusion_accuracy = 0.0;
  int rounds = 0;
  bool converged = false;
  double seconds = 0.0;  ///< fusion wall time
};

/// Scores a detected copy graph against planted pairs the way the
/// scenario library means it: precision vs the clique closure, recall
/// vs the direct edges, f1 harmonic in those two.
PrfScores ScoreCopyPairs(
    const CopyResult& copies,
    const std::vector<std::pair<SourceId, SourceId>>& true_pairs);

/// The standard fusion configuration for a scenario world — the
/// paper's alpha/s with n matched to the generator's false pool
/// (mirrors bench_util.h's OptionsFor, which bench/ cannot share with
/// eval/).
FusionOptions ScenarioFusionOptions(const Scenario& scenario,
                                    int max_rounds = 8);

/// Runs fusion with the detector registered as `detector` on the
/// scenario's final world and scores it. Uses ScenarioFusionOptions
/// defaults when `options` is null.
StatusOr<ScenarioResult> EvaluateScenario(const Scenario& scenario,
                                          std::string_view detector,
                                          const FusionOptions* options =
                                              nullptr);

}  // namespace copydetect

#endif  // COPYDETECT_EVAL_QUALITY_H_
