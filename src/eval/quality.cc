#include "eval/quality.h"

#include <utility>

namespace copydetect {

PrfScores ScoreCopyPairs(
    const CopyResult& copies,
    const std::vector<std::pair<SourceId, SourceId>>& true_pairs) {
  const PrfScores vs_closure =
      ComparePairsToTruth(copies, CopyClosure(true_pairs));
  const PrfScores vs_direct = ComparePairsToTruth(copies, true_pairs);
  PrfScores scores;
  scores.precision = vs_closure.precision;
  scores.recall = vs_direct.recall;
  const double denom = scores.precision + scores.recall;
  scores.f1 = denom == 0.0
                  ? 0.0
                  : 2.0 * scores.precision * scores.recall / denom;
  scores.output_pairs = vs_direct.output_pairs;
  scores.reference_pairs = vs_direct.reference_pairs;
  return scores;
}

FusionOptions ScenarioFusionOptions(const Scenario& scenario,
                                    int max_rounds) {
  FusionOptions options;
  options.params.alpha = 0.1;
  options.params.s = 0.8;
  options.params.n = scenario.world.suggested_n;
  options.max_rounds = max_rounds;
  options.epsilon = 1e-4;
  return options;
}

StatusOr<ScenarioResult> EvaluateScenario(const Scenario& scenario,
                                          std::string_view detector,
                                          const FusionOptions* options) {
  const FusionOptions resolved =
      options != nullptr ? *options : ScenarioFusionOptions(scenario);
  auto outcome = RunFusion(scenario.world, detector, resolved);
  if (!outcome.ok()) return outcome.status();
  ScenarioResult result;
  result.scenario = scenario.name;
  result.detector = outcome->detector_name;
  result.pairs =
      ScoreCopyPairs(outcome->fusion.copies, scenario.world.copy_pairs);
  result.fusion_accuracy = scenario.world.gold.Accuracy(
      scenario.world.data, outcome->fusion.truth);
  result.rounds = outcome->fusion.rounds;
  result.converged = outcome->fusion.converged;
  result.seconds = outcome->seconds;
  return result;
}

}  // namespace copydetect
