// Table IX: SCALESAMPLE against the naive BYITEM / BYCELL strategies
// at matched effective rates, detection quality vs INDEX (the paper's
// baseline for this table), with INCREMENTAL under every sample.
#include "bench_util.h"

using namespace copydetect;
using namespace copydetect::bench;

int main(int argc, char** argv) {
  double scale = 1.0;
  uint64_t seed = 7;
  FlagSet flags("table9_sampling: Table IX sampling strategies");
  flags.Double("scale", &scale, "data-set scale factor");
  flags.Uint64("seed", &seed, "world generator seed");
  flags.ParseOrDie(argc, argv);

  TextTable table;
  table.SetHeader({"Dataset", "Method", "items kept", "cells kept",
                   "Prec", "Rec", "F-msr"});

  for (const BenchDataset& spec : QualityDatasets(scale)) {
    World world = MakeWorld(spec, seed);
    FusionOptions options = OptionsFor(world);
    double rate = DefaultSamplingRate(spec.name);

    auto reference = RunFusion(world, "index", options);
    CD_CHECK_OK(reference.status());

    // SCALESAMPLE first: its achieved item/cell fractions set the
    // rates for the naive strategies (the paper's fairness rule).
    SampleSpec scale_spec;
    scale_spec.method = SamplingMethod::kScaleSample;
    scale_spec.rate = rate;
    scale_spec.seed = seed;
    auto probe = SampleDataset(world.data, scale_spec);
    CD_CHECK_OK(probe.status());
    double item_fraction = probe->item_fraction;
    double cell_fraction = probe->cell_fraction;

    struct Entry {
      const char* name;
      SamplingMethod method;
      double r;
    };
    const Entry entries[] = {
        {"scalesample", SamplingMethod::kScaleSample, rate},
        {"by-item", SamplingMethod::kByItem, item_fraction},
        {"by-cell", SamplingMethod::kByCell, cell_fraction},
    };
    for (const Entry& e : entries) {
      auto detector = MakeSampledDetector(
          options.params, "incremental", e.method, e.r,
          seed);
      auto outcome =
          RunFusionWithDetector(world, detector.get(), options);
      CD_CHECK_OK(outcome.status());
      auto* sampled = dynamic_cast<SampledDetector*>(detector.get());
      PrfScores prf = ComparePairs(outcome->fusion.copies,
                                   reference->fusion.copies);
      table.AddRow(
          {spec.name, e.name,
           Fmt(sampled->sample()->item_fraction * 100.0, "%.0f%%"),
           Fmt(sampled->sample()->cell_fraction * 100.0, "%.0f%%"),
           Fmt(prf.precision), Fmt(prf.recall), Fmt(prf.f1)});
    }
  }
  std::printf("%s\n",
              table.Render("Table IX — sampling strategies "
                           "(quality vs INDEX)")
                  .c_str());
  std::printf(
      "Paper reference: on Book-CS SCALESAMPLE F=.88 beats BYITEM .67 "
      "and BYCELL .78; on Stock-1day all three tie (F=.96) because "
      "every source has high coverage.\n");
  return 0;
}
