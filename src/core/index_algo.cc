#include "core/index_algo.h"

#include <algorithm>

#include "common/arena.h"
#include "common/executor.h"
#include "core/bayes.h"
#include "core/pair_table.h"
#include "core/sharded_scan.h"
#include "simjoin/overlap.h"

namespace copydetect {

namespace {

struct IndexPairState {
  double c_fwd = 0.0;
  double c_bwd = 0.0;
  uint32_t n_shared = 0;
};

/// Scans every entry in rank order, processing only the pairs this
/// shard owns, then finalizes them. With num_shards == 1 this is
/// exactly the sequential INDEX algorithm; with more shards each pair
/// still accumulates in rank order inside its single owner, which is
/// what makes the parallel path bit-identical to the serial one.
/// entries_scanned is charged to shard 0 only (every shard walks the
/// same stream; the work is shared, not repeated per pair). The same
/// two rules apply one level up to params.plan, the process-level
/// partition: a pair is skipped unless this process owns it, and the
/// stream-level charge goes to the plan's primary shard only, so
/// summing the shards' counters reproduces the unsharded totals.
void ScanShard(const InvertedIndex& index,
               std::span<const Eq6Kernel::Operand> accs,
               const DetectionParams& params,
               const OverlapCounts& overlaps, size_t shard,
               size_t num_shards, Counters* counters, CopyResult* out,
               Arena* arena) {
  PairTable<IndexPairState> pairs(
      arena, overlaps.num_sources(),
      UseDensePairTable(overlaps, num_shards));
  const Eq6Kernel eq6(params);

  // Steps 1-2: scan entries in order; head entries create state, tail
  // entries only update pairs already seen.
  for (size_t rank = 0; rank < index.num_entries(); ++rank) {
    if (shard == 0 && params.plan.primary()) ++counters->entries_scanned;
    const Eq6Kernel::Operand p =
        Eq6Kernel::Probability(index.entry(rank).probability);
    std::span<const SourceId> providers = index.providers(rank);
    const bool tail = index.in_tail(rank);
    for (size_t i = 0; i + 1 < providers.size(); ++i) {
      for (size_t j = i + 1; j < providers.size(); ++j) {
        // fwd is "smaller id copies from larger id".
        SourceId lo = std::min(providers[i], providers[j]);
        SourceId hi = std::max(providers[i], providers[j]);
        uint64_t key = PairKey(lo, hi);
        if (!params.plan.Owns(key)) continue;
        if (num_shards > 1 && Mix64(key) % num_shards != shard) continue;
        IndexPairState* state;
        if (tail) {
          state = pairs.Find(lo, hi);
          if (state == nullptr) continue;
        } else {
          bool fresh = false;
          state = pairs.FindOrInsert(lo, hi, &fresh);
          if (fresh) ++counters->pairs_tracked;
        }
        state->c_fwd += eq6(p, accs[lo], accs[hi]);
        state->c_bwd += eq6(p, accs[hi], accs[lo]);
        counters->score_evals += 2;
        ++counters->values_examined;
        ++state->n_shared;
      }
    }
  }

  // Step 3: different-value penalty and posterior.
  const double penalty = params.different_penalty();
  pairs.ForEach([&](uint64_t key, IndexPairState& state) {
    SourceId a = PairFirst(key);
    SourceId b = PairSecond(key);
    uint32_t l = overlaps.Get(a, b);
    double diff = DifferentValuePenalty(penalty, l, state.n_shared);
    double c_fwd = state.c_fwd + diff;
    double c_bwd = state.c_bwd + diff;
    counters->finalize_evals += 2;
    Posteriors post = DirectionPosteriors(c_fwd, c_bwd, params);
    out->Set(a, b, PairPosterior{post.indep, post.fwd, post.bwd});
  });
}

}  // namespace

Status IndexDetector::DetectRound(const DetectionInput& in, int round,
                                  CopyResult* out) {
  (void)round;
  CD_RETURN_IF_ERROR(in.ValidateWithOverlaps());
  out->Clear();
  const OverlapCounts& overlaps = *in.overlaps;

  auto index_or = InvertedIndex::Build(in, params_, ordering_, seed_);
  if (!index_or.ok()) return index_or.status();
  const InvertedIndex& index = *index_or;
  last_index_seconds_ = index.build_seconds();
  const std::vector<Eq6Kernel::Operand> accs =
      Eq6Kernel::Accuracies(*in.accuracies);

  RunShardedScan(params_.executor, &counters_, out,
                 [&](size_t shard, size_t num_shards, Counters* c,
                     CopyResult* o, Arena* arena) {
                   ScanShard(index, accs, params_, overlaps, shard,
                             num_shards, c, o, arena);
                 });
  return Status::OK();
}

}  // namespace copydetect
