// Table VI: copy-detection and truth-discovery quality of the methods,
// all measured against PAIRWISE (the paper's reference), on Book-CS and
// Stock-1day stand-ins.
//
// Columns: detection precision / recall / F vs PAIRWISE; fusion
// accuracy on the gold standard; fusion difference and accuracy
// variance vs PAIRWISE.
#include <memory>

#include "bench_util.h"

using namespace copydetect;
using namespace copydetect::bench;

namespace {

struct MethodResult {
  std::string name;
  RunOutcome outcome;
};

void PrintQualityReport(const World& world, const std::string& dataset,
            const std::vector<MethodResult>& methods,
            const RunOutcome& reference) {
  TextTable table;
  table.SetHeader({"Method", "Prec", "Rec", "F-msr", "Accu",
                   "Fusion diff", "Accu var"});
  double ref_acc =
      world.gold.Accuracy(world.data, reference.fusion.truth);
  table.AddRow({"pairwise", "-", "-", "-", Fmt(ref_acc), "-", "-"});
  for (const MethodResult& m : methods) {
    PrfScores prf =
        ComparePairs(m.outcome.fusion.copies, reference.fusion.copies);
    table.AddRow(
        {m.name, Fmt(prf.precision), Fmt(prf.recall), Fmt(prf.f1),
         Fmt(world.gold.Accuracy(world.data, m.outcome.fusion.truth)),
         Fmt(FusionDifference(world.data, m.outcome.fusion.truth,
                              reference.fusion.truth)),
         Fmt(AccuracyVariance(m.outcome.fusion.accuracies,
                              reference.fusion.accuracies), "%.4f")});
  }
  std::printf("%s\n",
              table.Render("Table VI — " + dataset).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  uint64_t seed = 7;
  FlagSet flags("table6_quality: Table VI detection/fusion quality");
  flags.Double("scale", &scale, "data-set scale factor");
  flags.Uint64("seed", &seed, "world generator seed");
  flags.ParseOrDie(argc, argv);

  for (const BenchDataset& spec : QualityDatasets(scale)) {
    World world = MakeWorld(spec, seed);
    FusionOptions options = OptionsFor(world);
    double rate = DefaultSamplingRate(spec.name);

    auto reference = RunFusion(world, "pairwise", options);
    CD_CHECK_OK(reference.status());

    std::vector<MethodResult> methods;
    auto run_kind = [&](const std::string& name) {
      auto outcome = RunFusion(world, name, options);
      CD_CHECK_OK(outcome.status());
      methods.push_back({name, std::move(outcome).value()});
    };
    auto run_sampled = [&](const std::string& name, const char* base,
                           SamplingMethod method, double r) {
      auto detector =
          MakeSampledDetector(options.params, base, method, r, seed);
      auto outcome =
          RunFusionWithDetector(world, detector.get(), options);
      CD_CHECK_OK(outcome.status());
      methods.push_back({name, std::move(outcome).value()});
    };

    // SAMPLE1/SAMPLE2: naive sampling + PAIRWISE (§VI-A).
    run_sampled("sample1 (by-item)", "pairwise",
                SamplingMethod::kByItem, rate);
    run_sampled("sample2 (by-cell)", "pairwise",
                SamplingMethod::kByCell,
                spec.name == "stock-1day" ? rate : rate * 3.0);
    run_kind("index");
    run_kind("hybrid");
    run_kind("incremental");
    run_sampled("scalesample", "incremental",
                SamplingMethod::kScaleSample, rate);

    PrintQualityReport(world, spec.name + StrFormat(" (scale %.2f)", spec.scale),
           methods, *reference);
  }
  std::printf(
      "Paper reference (Table VI): INDEX = exact match to PAIRWISE "
      "(P=R=F=1, diff=0); HYBRID/INCREMENTAL F >= .97 with tiny fusion "
      "differences; SCALESAMPLE F ~ .88/.95; naive sampling far worse "
      "on Book-CS (F ~ .26-.78).\n");
  return 0;
}
