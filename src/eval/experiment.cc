#include "eval/experiment.h"

#include "common/timer.h"
#include "core/detector_registry.h"
#include "datagen/motivating_example.h"

namespace copydetect {

StatusOr<World> MakeWorldByName(const std::string& name, double scale,
                                uint64_t seed) {
  if (name == "example") return MotivatingExample();
  WorldConfig config;
  if (!LookupProfile(name, scale, &config)) {
    return Status::NotFound("unknown data set '" + name +
                            "' (want book-cs, book-full, stock-1day, "
                            "stock-2wk, book-xl or example)");
  }
  return GenerateWorld(config, seed);
}

double DefaultSamplingRate(const std::string& dataset_name) {
  return dataset_name == "stock-2wk" ? 0.01 : 0.1;
}

StatusOr<RunOutcome> RunFusion(const World& world,
                               std::string_view detector,
                               const FusionOptions& options) {
  auto made = DetectorRegistry::Global().Create(detector, options.params);
  if (!made.ok()) return made.status();
  return RunFusionWithDetector(world, made->get(), options);
}

StatusOr<RunOutcome> RunFusionWithDetector(const World& world,
                                           CopyDetector* detector,
                                           const FusionOptions& options) {
  IterativeFusion fusion(options);
  Stopwatch watch;
  watch.Start();
  auto result = fusion.Run(world.data, detector);
  watch.Stop();
  if (!result.ok()) return result.status();
  RunOutcome outcome;
  outcome.detector_name =
      detector != nullptr ? std::string(detector->name()) : "none";
  outcome.fusion = std::move(result).value();
  if (detector != nullptr) outcome.counters = detector->counters();
  outcome.seconds = watch.Seconds();
  return outcome;
}

std::unique_ptr<CopyDetector> MakeSampledDetector(
    const DetectionParams& params, std::string_view base,
    SamplingMethod method, double rate, uint64_t seed) {
  auto inner = DetectorRegistry::Global().Create(base, params);
  CD_CHECK_OK(inner.status());
  SampleSpec spec;
  spec.method = method;
  spec.rate = rate;
  spec.seed = seed;
  return std::make_unique<SampledDetector>(
      params, std::move(inner).value(), spec);
}

}  // namespace copydetect
