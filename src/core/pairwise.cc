#include "core/pairwise.h"

#include <bit>
#include <vector>

#include "common/executor.h"
#include "core/bayes.h"
#include "simjoin/intersect.h"

namespace copydetect {

PairScores ComputePairScores(const DetectionInput& in, SourceId a,
                             SourceId b, const DetectionParams& params,
                             Counters* counters) {
  const Dataset& data = *in.data;
  const std::vector<double>& probs = *in.value_probs;
  const std::vector<double>& accs = *in.accuracies;

  PairScores scores;
  std::span<const ItemId> items_a = data.items_of(a);
  std::span<const ItemId> items_b = data.items_of(b);
  std::span<const SlotId> slots_a = data.slots_of(a);
  std::span<const SlotId> slots_b = data.slots_of(b);

  // The shared items come out of the vector intersection kernel in
  // ascending item order — the exact visit order of the old inline
  // two-pointer merge — and the scoring loop keeps the accumulation
  // sequence, so the scores are bit-identical to the unbatched form.
  // The match buffer is per-thread scratch: DetectRound calls this
  // from concurrent shards, and a per-call allocation is exactly the
  // hot-path cost this layout rework removes.
  thread_local std::vector<IntersectMatch> matches;
  size_t cap = std::min(items_a.size(), items_b.size());
  if (matches.size() < cap) matches.resize(cap);
  size_t m = IntersectIndices(items_a, items_b, matches.data());

  scores.shared_items = static_cast<uint32_t>(m);
  counters->score_evals += 2 * m;
  const Eq6Kernel eq6(params);
  const Eq6Kernel::Operand acc_a = Eq6Kernel::Accuracy(accs[a]);
  const Eq6Kernel::Operand acc_b = Eq6Kernel::Accuracy(accs[b]);
  const double penalty = params.different_penalty();
  for (size_t k = 0; k < m; ++k) {
    uint32_t i = matches[k].i;
    uint32_t j = matches[k].j;
    if (slots_a[i] == slots_b[j]) {
      ++scores.shared_values;
      const Eq6Kernel::Operand p = Eq6Kernel::Probability(probs[slots_a[i]]);
      scores.c_fwd += eq6(p, acc_a, acc_b);
      scores.c_bwd += eq6(p, acc_b, acc_a);
    } else {
      scores.c_fwd += penalty;
      scores.c_bwd += penalty;
    }
  }
  return scores;
}

namespace {

/// Memory ceiling for the dense pair layout's slot tables.
constexpr size_t kDenseBytesBudget = size_t{128} << 20;

}  // namespace

Status PairwiseDetector::DetectRound(const DetectionInput& in, int round,
                                     CopyResult* out) {
  (void)round;
  CD_RETURN_IF_ERROR(in.Validate());
  out->Clear();
  const size_t n = in.data->num_sources();
  if (n < 2) return Status::OK();

  const Dataset& data = *in.data;
  const std::vector<double>& probs = *in.value_probs;
  const std::vector<Eq6Kernel::Operand> accs =
      Eq6Kernel::Accuracies(*in.accuracies);
  const Eq6Kernel eq6(params_);
  const size_t num_items = data.num_items();
  const size_t words = (num_items + 63) / 64;

  // Dense pair layout: one item bitmap plus one item -> slot table per
  // source, built once per round and shared read-only by every row.
  // A pair's shared items are then the set bits of two ANDed bitmap
  // rows — enumerated LSB-first they come out in ascending item order,
  // the exact visit order of ComputePairScores' sorted merge, so the
  // accumulated scores are bit-identical while the per-pair cost drops
  // from O(|items_a| + |items_b|) merge steps to O(words + shared).
  // Worth it when the AND scan beats the merges it replaces; the
  // sparse/huge fallback is the per-pair intersection kernel.
  const bool use_dense =
      words > 0 && n * num_items * sizeof(SlotId) <= kDenseBytesBudget &&
      (n * (n - 1) / 2) * words <= (n - 1) * data.num_observations();
  if (use_dense) {
    bits_.assign(n * words, 0);
    // Cells are only ever read under a set bit of the same round's
    // bitmap, so stale values from previous rounds are unreachable.
    slot_of_.resize(n * num_items);
    for (SourceId s = 0; s < n; ++s) {
      uint64_t* row = bits_.data() + s * words;
      SlotId* srow = slot_of_.data() + s * num_items;
      std::span<const ItemId> items = data.items_of(s);
      std::span<const SlotId> slots = data.slots_of(s);
      for (size_t k = 0; k < items.size(); ++k) {
        row[items[k] >> 6] |= uint64_t{1} << (items[k] & 63);
        srow[items[k]] = slots[k];
      }
    }
  }
  const double penalty = params_.different_penalty();
  auto dense_scores = [&](SourceId a, SourceId b, Counters* counters) {
    PairScores scores;
    const uint64_t* ba = bits_.data() + a * words;
    const uint64_t* bb = bits_.data() + b * words;
    const SlotId* sa = slot_of_.data() + a * num_items;
    const SlotId* sb = slot_of_.data() + b * num_items;
    for (size_t w = 0; w < words; ++w) {
      uint64_t both = ba[w] & bb[w];
      while (both != 0) {
        ItemId d = static_cast<ItemId>(
            w * 64 + static_cast<unsigned>(std::countr_zero(both)));
        both &= both - 1;
        ++scores.shared_items;
        SlotId va = sa[d];
        SlotId vb = sb[d];
        if (va == vb) {
          ++scores.shared_values;
          const Eq6Kernel::Operand p = Eq6Kernel::Probability(probs[va]);
          scores.c_fwd += eq6(p, accs[a], accs[b]);
          scores.c_bwd += eq6(p, accs[b], accs[a]);
        } else {
          scores.c_fwd += penalty;
          scores.c_bwd += penalty;
        }
      }
    }
    counters->score_evals += 2 * uint64_t{scores.shared_items};
    return scores;
  };

  // Rows are independent: row a covers the pairs (a, a+1 .. n-1).
  // Each row accumulates into private state and the merge below
  // replays rows in ascending order, so the result (and the counters)
  // are identical to the sequential double loop at any thread count.
  struct RowPair {
    SourceId b;
    PairPosterior posterior;
  };
  std::vector<std::vector<RowPair>> rows(n - 1);
  std::vector<Counters> row_counters(n - 1);
  ParallelFor(params_.executor, n - 1, [&](size_t row) {
    SourceId a = static_cast<SourceId>(row);
    Counters& counters = row_counters[row];
    for (SourceId b = static_cast<SourceId>(a + 1); b < n; ++b) {
      // Process-level partition: under an active ShardPlan this
      // instance scores only the pairs it owns; the merge of all
      // shards' results is then the full pair set.
      if (!params_.plan.Owns(PairKey(a, b))) continue;
      PairScores scores = use_dense
                              ? dense_scores(a, b, &counters)
                              : ComputePairScores(in, a, b, params_,
                                                  &counters);
      ++counters.pairs_tracked;
      counters.values_examined += scores.shared_values;
      counters.finalize_evals += 2;
      // Pairs sharing nothing sit at the prior; storing them adds
      // nothing downstream (fusion only discounts concluded copiers)
      // and would make the result quadratic in |S|.
      if (scores.shared_items == 0) continue;
      Posteriors post =
          DirectionPosteriors(scores.c_fwd, scores.c_bwd, params_);
      rows[row].push_back(
          {b, PairPosterior{post.indep, post.fwd, post.bwd}});
    }
  });
  for (size_t row = 0; row + 1 < n; ++row) {
    counters_ += row_counters[row];
    for (const RowPair& p : rows[row]) {
      out->Set(static_cast<SourceId>(row), p.b, p.posterior);
    }
  }
  return Status::OK();
}

}  // namespace copydetect
