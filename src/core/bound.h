#ifndef COPYDETECT_CORE_BOUND_H_
#define COPYDETECT_CORE_BOUND_H_

#include <memory>

#include "core/detector.h"
#include "core/inverted_index.h"

namespace copydetect {

/// Per-pair bookkeeping emitted by the scan engine, consumed by the
/// INCREMENTAL detector (§V preparation step): the exact directional
/// contributions accumulated before the decision point, the shared
/// values before/after it, the shared-item count and the decision.
struct PairBook {
  double c_fwd = 0.0;  ///< Σ contributions of values before decision
  double c_bwd = 0.0;
  uint32_t n_before = 0;      ///< shared values before the decision point
  uint32_t n_after = 0;       ///< shared values after it (|E̅1|)
  uint32_t l = 0;             ///< shared items l(S1,S2)
  uint32_t decision_rank = 0; ///< index rank where the pair concluded
  int8_t decision = 0;        ///< +1 copying, -1 no-copying
};

using ScanBookkeeping = FlatHashMap<PairBook>;

/// Scan-engine configuration covering BOUND, BOUND+ and HYBRID.
struct ScanConfig {
  /// BOUND+ lazy re-evaluation timers (§IV-B) on/off.
  bool lazy_bounds = false;
  /// Pairs sharing at most this many items use INDEX bookkeeping (no
  /// bound computation); 0 disables the hybrid split (§IV end).
  size_t hybrid_threshold = 0;
  /// Entry processing order (Figure 3).
  EntryOrdering ordering = EntryOrdering::kByContribution;
  uint64_t seed = 1;
  /// When false, the tail set E̅ is ignored and every entry may create
  /// pair state — the ablation knob for §III's skip-weak-pairs rule.
  bool respect_tail = true;
};

/// Extra artifacts a scan can hand back to its caller.
struct ScanOutputs {
  double index_seconds = 0.0;
  size_t num_entries = 0;
  /// When `keep_index` was set in advance, the built index moves here
  /// (INCREMENTAL freezes it across rounds).
  bool keep_index = false;
  std::unique_ptr<InvertedIndex> index;
};

/// Shared implementation of the bounded index scan (§IV): builds the
/// index, scans it maintaining Cmin (Eq. 9) / Cmax (Eq. 10) per active
/// pair, terminates pairs early against theta_cp / theta_ind, and
/// finalizes survivors exactly. Fills `book` (when non-null) with the
/// per-pair records INCREMENTAL needs. The tail-set optimization is
/// only active under kByContribution ordering; other orderings process
/// every entry as a head entry. Reads the pair overlaps from
/// `in.overlaps`, which must be set.
///
/// When `params.executor` runs more than one thread and `book` is
/// null, the scan shards by pair ownership over the shared executor:
/// the index is built once, every worker walks it maintaining its own
/// n_src counts, and each pair's state evolves inside its single owner
/// exactly as it would sequentially — bit-identical results at every
/// thread count. The bookkeeping path stays sequential.
Status BoundedScan(const DetectionInput& in, const DetectionParams& params,
                   const ScanConfig& config, Counters* counters,
                   CopyResult* out, ScanBookkeeping* book,
                   ScanOutputs* extras);

/// BOUND (§IV-A) or BOUND+ (§IV-B with the lazy timers).
class BoundDetector : public CopyDetector {
 public:
  BoundDetector(const DetectionParams& params, bool lazy,
                EntryOrdering ordering = EntryOrdering::kByContribution,
                uint64_t seed = 1)
      : CopyDetector(params), lazy_(lazy), ordering_(ordering),
        seed_(seed) {}

  std::string_view name() const override {
    return lazy_ ? "boundplus" : "bound";
  }

  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override;

  double last_index_seconds() const { return last_index_seconds_; }

 private:
  bool lazy_;
  EntryOrdering ordering_;
  uint64_t seed_;
  double last_index_seconds_ = 0.0;
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_BOUND_H_
