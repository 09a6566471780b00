#include "core/fagin_input.h"

#include <algorithm>

#include "common/timer.h"
#include "core/bayes.h"
#include "core/inverted_index.h"
#include "simjoin/overlap.h"

namespace copydetect {

StatusOr<FaginInput> BuildFaginInput(const DetectionInput& in,
                                     const DetectionParams& params,
                                     Counters* counters) {
  CD_RETURN_IF_ERROR(in.ValidateWithOverlaps());
  const OverlapCounts& overlaps = *in.overlaps;
  Stopwatch watch;
  watch.Start();

  auto index_or = InvertedIndex::Build(in, params,
                                       EntryOrdering::kByContribution);
  if (!index_or.ok()) return index_or.status();
  const InvertedIndex& index = *index_or;
  const std::vector<Eq6Kernel::Operand> accs =
      Eq6Kernel::Accuracies(*in.accuracies);
  const Eq6Kernel eq6(params);

  FaginInput input;
  input.fwd_lists.resize(index.num_entries() + 1);
  input.bwd_lists.resize(index.num_entries() + 1);

  // Shared-value counts feed the different-value list.
  FlatHashMap<uint32_t> n_shared;

  for (size_t rank = 0; rank < index.num_entries(); ++rank) {
    const Eq6Kernel::Operand p =
        Eq6Kernel::Probability(index.entry(rank).probability);
    std::span<const SourceId> providers = index.providers(rank);
    NraList& fwd = input.fwd_lists[rank];
    NraList& bwd = input.bwd_lists[rank];
    for (size_t i = 0; i + 1 < providers.size(); ++i) {
      for (size_t j = i + 1; j < providers.size(); ++j) {
        SourceId lo = std::min(providers[i], providers[j]);
        SourceId hi = std::max(providers[i], providers[j]);
        uint64_t key = PairKey(lo, hi);
        if (!params.plan.Owns(key)) continue;
        double cf = eq6(p, accs[lo], accs[hi]);
        double cb = eq6(p, accs[hi], accs[lo]);
        counters->score_evals += 2;
        ++counters->values_examined;
        fwd.entries.emplace_back(key, cf);
        bwd.entries.emplace_back(key, cb);
        ++n_shared[key];
      }
    }
    auto desc = [](const std::pair<uint64_t, double>& a,
                   const std::pair<uint64_t, double>& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    };
    std::sort(fwd.entries.begin(), fwd.entries.end(), desc);
    std::sort(bwd.entries.begin(), bwd.entries.end(), desc);
  }

  // Different-value list: ln(1-s) * (l - n) per pair, same both ways.
  NraList& diff_fwd = input.fwd_lists.back();
  const double penalty = params.different_penalty();
  n_shared.ForEach([&](uint64_t key, uint32_t& n) {
    uint32_t l = overlaps.Get(PairFirst(key), PairSecond(key));
    double score = penalty * static_cast<double>(l - n);
    diff_fwd.entries.emplace_back(key, score);
    ++counters->finalize_evals;
  });
  std::sort(diff_fwd.entries.begin(), diff_fwd.entries.end(),
            [](const std::pair<uint64_t, double>& a,
               const std::pair<uint64_t, double>& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  input.bwd_lists.back() = diff_fwd;

  watch.Stop();
  input.build_seconds = watch.Seconds();
  return input;
}

NraResult FaginTopK(const FaginInput& input, size_t k, bool forward) {
  return NraTopK(forward ? input.fwd_lists : input.bwd_lists, k);
}

Status FaginInputDetector::DetectRound(const DetectionInput& in,
                                       int round, CopyResult* out) {
  (void)round;
  out->Clear();
  auto input_or = BuildFaginInput(in, params_, &counters_);
  if (!input_or.ok()) return input_or.status();
  const FaginInput& input = *input_or;
  last_build_seconds_ = input.build_seconds;

  // Aggregate the lists exactly (NRA with k = everything degenerates
  // to this; the measured point of the baseline is build_seconds).
  FlatHashMap<std::pair<double, double>> sums;
  for (size_t i = 0; i < input.fwd_lists.size(); ++i) {
    for (const auto& [key, score] : input.fwd_lists[i].entries) {
      sums[key].first += score;
    }
    for (const auto& [key, score] : input.bwd_lists[i].entries) {
      sums[key].second += score;
    }
  }
  sums.ForEach([&](uint64_t key, std::pair<double, double>& c) {
    counters_.finalize_evals += 2;
    Posteriors post = DirectionPosteriors(c.first, c.second, params_);
    out->Set(PairFirst(key), PairSecond(key),
             PairPosterior{post.indep, post.fwd, post.bwd});
  });
  return Status::OK();
}

}  // namespace copydetect
