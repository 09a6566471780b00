#include "core/bound.h"

#include <algorithm>
#include <cmath>

#include "common/arena.h"
#include "common/executor.h"
#include "core/bayes.h"
#include "core/pair_table.h"
#include "core/sharded_scan.h"
#include "simjoin/overlap.h"

namespace copydetect {

namespace {

enum PairMode : uint8_t { kBoundMode = 0, kIndexMode = 1 };
enum PairStatus : uint8_t { kActive = 0, kDoneCopy = 1, kDoneNoCopy = 2 };

struct ScanState {
  double c_fwd = 0.0;
  double c_bwd = 0.0;
  uint32_t n0 = 0;       // observed shared values (before decision)
  uint32_t n_after = 0;  // shared values seen after a decision
  uint32_t l = 0;        // shared items
  uint32_t decision_rank = 0;
  uint8_t mode = kBoundMode;
  uint8_t status = kActive;
  // BOUND+ skip timers.
  uint32_t min_check_at_n0 = 0;      // recompute Cmin when n0 >= this
  uint32_t max_check_at_n1 = 0;      // recompute Cmax when n(S1) >= this
  uint32_t max_check_at_n2 = 0;      // ... or n(S2) >= this
};

uint32_t CeilToU32(double v) {
  if (v <= 0.0) return 0;
  double c = std::ceil(v);
  if (c >= 4.0e9) return 0xffffffffu;
  return static_cast<uint32_t>(c);
}

/// One shard of the bounded scan over a prebuilt index. Pairs are
/// partitioned by ownership (Mix64(PairKey) mod num_shards); pair
/// states never interact, and the per-source observed-value counts
/// n_src every shard recomputes identically from the shared entry
/// stream, so each owned pair evolves exactly as in the sequential
/// scan — the parallel result is bit-identical at any shard count.
/// entries_scanned is charged to shard 0 only. params.plan partitions
/// pairs the same way one level up (across processes): non-owned
/// pairs are skipped entirely and the stream-level charge goes to the
/// plan's primary shard, so merged shard counters match the unsharded
/// run.
void ScanShard(const InvertedIndex& index, const Dataset& data,
               std::span<const Eq6Kernel::Operand> accs,
               const DetectionParams& params, const ScanConfig& config,
               const OverlapCounts& overlaps, size_t shard,
               size_t num_shards, Counters* counters, CopyResult* out,
               ScanBookkeeping* book, Arena* arena) {
  const double penalty = params.different_penalty();
  const double theta_cp = params.theta_cp();
  const double theta_ind = params.theta_ind();

  // Round scratch — the pair-state table and the per-source counts —
  // comes from the shard's leased arena, which retains its chunks
  // between rounds.
  PairTable<ScanState> pairs(
      arena, overlaps.num_sources(),
      UseDensePairTable(overlaps, num_shards));
  const Eq6Kernel eq6(params);
  uint32_t* n_src = arena->AllocateArray<uint32_t>(data.num_sources());
  std::fill(n_src, n_src + data.num_sources(), 0u);

  for (size_t rank = 0; rank < index.num_entries(); ++rank) {
    if (shard == 0 && params.plan.primary()) ++counters->entries_scanned;
    const Eq6Kernel::Operand p =
        Eq6Kernel::Probability(index.entry(rank).probability);
    std::span<const SourceId> providers = index.providers(rank);
    const bool tail = config.respect_tail && index.in_tail(rank);
    // Score of the next unscanned entry bounds every future
    // contribution (Prop. 3.4); zero once the index is exhausted.
    const double next_m = rank + 1 < index.num_entries()
                              ? index.entry(rank + 1).score
                              : 0.0;

    // Step II.1: per-source observed-value counts.
    for (SourceId s : providers) ++n_src[s];

    for (size_t i = 0; i + 1 < providers.size(); ++i) {
      for (size_t j = i + 1; j < providers.size(); ++j) {
        SourceId lo = std::min(providers[i], providers[j]);
        SourceId hi = std::max(providers[i], providers[j]);
        uint64_t key = PairKey(lo, hi);
        if (!params.plan.Owns(key)) continue;
        if (num_shards > 1 && Mix64(key) % num_shards != shard) continue;

        ScanState* st;
        if (tail) {
          st = pairs.Find(lo, hi);
          if (st == nullptr) continue;
        } else {
          bool fresh = false;
          st = pairs.FindOrInsert(lo, hi, &fresh);
          if (fresh) {
            st->l = overlaps.Get(lo, hi);
            st->mode = (config.hybrid_threshold > 0 &&
                        st->l <= config.hybrid_threshold)
                           ? kIndexMode
                           : kBoundMode;
            ++counters->pairs_tracked;
          }
        }
        if (st->status != kActive) {
          // Decision already made; keep counting for bookkeeping
          // (the INCREMENTAL preparation step needs |E̅1|).
          ++st->n_after;
          continue;
        }

        // Accumulate the exact contribution of this shared value.
        st->c_fwd += eq6(p, accs[lo], accs[hi]);
        st->c_bwd += eq6(p, accs[hi], accs[lo]);
        counters->score_evals += 2;
        ++counters->values_examined;
        ++st->n0;

        if (st->mode == kIndexMode) continue;

        const double l_d = static_cast<double>(st->l);
        const double n0_d = static_cast<double>(st->n0);

        // ---- Cmin (Eq. 9): conclude copying early. ----
        if (!config.lazy_bounds || st->n0 >= st->min_check_at_n0) {
          double cmin_f = st->c_fwd + (l_d - n0_d) * penalty;
          double cmin_b = st->c_bwd + (l_d - n0_d) * penalty;
          counters->bound_evals += 2;
          double cmin = std::max(cmin_f, cmin_b);
          if (cmin >= theta_cp) {
            st->status = kDoneCopy;
            st->decision_rank = static_cast<uint32_t>(rank);
            ++counters->early_copy;
            Posteriors post = DirectionPosteriors(cmin_f, cmin_b, params);
            out->Set(lo, hi, PairPosterior{post.indep, post.fwd, post.bwd});
            continue;
          }
          if (config.lazy_bounds) {
            // The next shared value raises Cmin by at most
            // next_m - ln(1-s); skip until it could reach theta_cp.
            uint32_t t_min =
                CeilToU32((theta_cp - cmin) / (next_m - penalty));
            st->min_check_at_n0 = st->n0 + std::max<uint32_t>(1, t_min);
          }
        }

        // ---- Cmax (Eq. 10): conclude no-copying early. ----
        if (!config.lazy_bounds || n_src[lo] >= st->max_check_at_n1 ||
            n_src[hi] >= st->max_check_at_n2) {
          // h: estimated scanned items shared by the pair.
          double cov_lo = static_cast<double>(data.coverage(lo));
          double cov_hi = static_cast<double>(data.coverage(hi));
          double h = std::max(
              static_cast<double>(n_src[lo]) * l_d / cov_lo,
              static_cast<double>(n_src[hi]) * l_d / cov_hi);
          h = std::clamp(h, n0_d, l_d);
          double cmax_f = st->c_fwd + (h - n0_d) * penalty +
                          (l_d - h) * next_m;
          double cmax_b = st->c_bwd + (h - n0_d) * penalty +
                          (l_d - h) * next_m;
          counters->bound_evals += 2;
          if (cmax_f < theta_ind && cmax_b < theta_ind) {
            st->status = kDoneNoCopy;
            st->decision_rank = static_cast<uint32_t>(rank);
            ++counters->early_nocopy;
            Posteriors post = DirectionPosteriors(cmax_f, cmax_b, params);
            out->Set(lo, hi, PairPosterior{post.indep, post.fwd, post.bwd});
            continue;
          }
          if (config.lazy_bounds) {
            // Each further *different* value lowers Cmax by
            // next_m - ln(1-s); translate the required count into
            // per-source observed-value thresholds (§IV-B).
            double cmax = std::max(cmax_f, cmax_b);
            double t0 = std::ceil((cmax - theta_ind) / (next_m - penalty));
            double need = t0 + (h - n0_d);
            st->max_check_at_n1 =
                std::max(n_src[lo] + 1, CeilToU32(need * cov_lo / l_d));
            st->max_check_at_n2 =
                std::max(n_src[hi] + 1, CeilToU32(need * cov_hi / l_d));
          }
        }
      }
    }
  }

  // Step IV: finalize still-active pairs exactly (n0 == n, so Cmin is
  // the true score).
  const size_t end_rank = index.num_entries();
  pairs.ForEach([&](uint64_t key, ScanState& st) {
    if (st.status != kActive) {
      if (book != nullptr) {
        PairBook pb;
        pb.c_fwd = st.c_fwd;
        pb.c_bwd = st.c_bwd;
        pb.n_before = st.n0;
        pb.n_after = st.n_after;
        pb.l = st.l;
        pb.decision_rank = st.decision_rank;
        pb.decision = st.status == kDoneCopy ? int8_t{1} : int8_t{-1};
        (*book)[key] = pb;
      }
      return;
    }
    SourceId lo = PairFirst(key);
    SourceId hi = PairSecond(key);
    double diff = DifferentValuePenalty(penalty, st.l, st.n0);
    double c_fwd = st.c_fwd + diff;
    double c_bwd = st.c_bwd + diff;
    counters->finalize_evals += 2;
    Posteriors post = DirectionPosteriors(c_fwd, c_bwd, params);
    out->Set(lo, hi, PairPosterior{post.indep, post.fwd, post.bwd});
    if (book != nullptr) {
      PairBook pb;
      pb.c_fwd = st.c_fwd;
      pb.c_bwd = st.c_bwd;
      pb.n_before = st.n0;
      pb.n_after = 0;
      pb.l = st.l;
      pb.decision_rank = static_cast<uint32_t>(end_rank);
      pb.decision = post.indep <= 0.5 ? int8_t{1} : int8_t{-1};
      (*book)[key] = pb;
    }
  });
}

}  // namespace

Status BoundedScan(const DetectionInput& in, const DetectionParams& params,
                   const ScanConfig& config, Counters* counters,
                   CopyResult* out, ScanBookkeeping* book,
                   ScanOutputs* extras) {
  CD_RETURN_IF_ERROR(in.ValidateWithOverlaps());
  out->Clear();
  if (book != nullptr) book->Clear();

  auto index_or =
      InvertedIndex::Build(in, params, config.ordering, config.seed);
  if (!index_or.ok()) return index_or.status();
  std::unique_ptr<InvertedIndex> index_holder =
      std::make_unique<InvertedIndex>(std::move(index_or).value());
  const InvertedIndex& index = *index_holder;
  if (extras != nullptr) {
    extras->index_seconds = index.build_seconds();
    extras->num_entries = index.num_entries();
  }

  // Parallel sharded scan over the shared executor. The bookkeeping
  // path (INCREMENTAL's preparation round) stays sequential: it is
  // paid once per fusion run and merging shard books buys nothing.
  Executor* executor = book == nullptr ? params.executor : nullptr;
  const std::vector<Eq6Kernel::Operand> accs =
      Eq6Kernel::Accuracies(*in.accuracies);
  RunShardedScan(executor, counters, out,
                 [&](size_t shard, size_t num_shards, Counters* c,
                     CopyResult* o, Arena* arena) {
                   ScanShard(index, *in.data, accs, params, config,
                             *in.overlaps, shard, num_shards, c, o,
                             num_shards == 1 ? book : nullptr, arena);
                 });

  if (extras != nullptr && extras->keep_index) {
    extras->index = std::move(index_holder);
  }
  return Status::OK();
}

Status BoundDetector::DetectRound(const DetectionInput& in, int round,
                                  CopyResult* out) {
  (void)round;
  ScanConfig config;
  config.lazy_bounds = lazy_;
  config.hybrid_threshold = 0;
  config.ordering = ordering_;
  config.seed = seed_;
  ScanOutputs extras;
  Status st =
      BoundedScan(in, params_, config, &counters_, out, nullptr, &extras);
  last_index_seconds_ = extras.index_seconds;
  return st;
}

}  // namespace copydetect
