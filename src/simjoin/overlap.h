#ifndef COPYDETECT_SIMJOIN_OVERLAP_H_
#define COPYDETECT_SIMJOIN_OVERLAP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_hash.h"
#include "model/array_store.h"
#include "model/types.h"

namespace copydetect {

class Dataset;

namespace snapshot_internal {
struct OverlapSerde;
}  // namespace snapshot_internal

/// All-pairs shared-item counts l(S1, S2) — the quantity the INDEX
/// family needs at index-build time (§III: "the number of shared items
/// ... counted at index building time"). Chooses a dense triangular
/// array when the source count is small enough, a hash map otherwise.
class OverlapCounts {
 public:
  /// Number of items both sources provide (any value). 0 when a == b is
  /// never asked for but returns 0 defensively.
  uint32_t Get(SourceId a, SourceId b) const;

  /// Number of pairs with a positive count. Every writer of the
  /// counts keeps it current, so reading it is O(1).
  size_t NumPositivePairs() const { return num_positive_; }

  /// Size of the source universe the counts were taken over.
  SourceId num_sources() const { return num_sources_; }

  /// Visits every pair with a positive count: fn(pair_key, count).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (dense_mode_) {
      for (SourceId a = 0; a + 1 < num_sources_; ++a) {
        for (SourceId b = a + 1; b < num_sources_; ++b) {
          uint32_t c = dense_[DenseIndex(a, b)];
          if (c > 0) fn(PairKey(a, b), c);
        }
      }
    } else {
      sparse_.ForEach([&fn](uint64_t key, const uint32_t& c) {
        if (c > 0) fn(key, c);
      });
    }
  }

 private:
  friend OverlapCounts ComputeOverlaps(const Dataset& data,
                                       size_t dense_threshold);
  friend bool UpdateOverlaps(OverlapCounts* counts,
                             const Dataset& old_data,
                             const Dataset& new_data,
                             std::span<const ItemId> touched_items);
  // SnapshotIO persists/restores mode + arrays verbatim, sparse table
  // layout included; see snapshot/snapshot_io.cc.
  friend struct snapshot_internal::OverlapSerde;

  /// Counts the positive pairs by walking the counts.
  size_t CountPositivePairs() const;

  size_t DenseIndex(SourceId a, SourceId b) const {
    // Upper triangle, a < b.
    size_t n = num_sources_;
    size_t ai = a;
    size_t bi = b;
    return ai * (2 * n - ai - 1) / 2 + (bi - ai - 1);
  }

  bool dense_mode_ = false;
  SourceId num_sources_ = 0;
  // ArrayStore so a mapped snapshot can serve the dense triangle
  // zero-copy (sparse tables stay owned — FlatHashMap's layout is
  // pointer-based); UpdateOverlaps copies-on-write through
  // MutableOwned when patching a view-backed triangle.
  ArrayStore<uint32_t> dense_;
  FlatHashMap<uint32_t> sparse_;
  size_t num_positive_ = 0;
};

/// Counts shared items for every pair of sources in one pass over the
/// per-item provider lists. O(sum over items of providers^2) time.
/// `dense_threshold`: use the dense triangular array when
/// num_sources <= threshold (default keeps memory under ~64 MB).
OverlapCounts ComputeOverlaps(const Dataset& data,
                              size_t dense_threshold = 5000);

/// Delta-maintains `counts` (valid for `old_data`) into the counts of
/// `new_data`: for every touched item the old provider-pair
/// contributions are subtracted and the new ones added, so the cost is
/// O(sum over touched items of providers^2) instead of a full
/// recount. `touched_items` must be exactly the items whose provider
/// sets may differ (DeltaSummary::touched_items); counts are integers,
/// so the result equals ComputeOverlaps(new_data) exactly.
///
/// Returns false — leaving `counts` unusable — when the incremental
/// path does not apply because the source universe changed (the dense
/// triangular layout is keyed on the source count); the caller should
/// recompute from scratch then.
///
/// No engine path calls this: Session::Update recounts, because the
/// patch saves well under 1% of an update (EXPERIMENTS.md "Overlap
/// maintenance"). perfbench's traced serve phase still times it as
/// `simjoin.overlap_update_s`.
bool UpdateOverlaps(OverlapCounts* counts, const Dataset& old_data,
                    const Dataset& new_data,
                    std::span<const ItemId> touched_items);

}  // namespace copydetect

#endif  // COPYDETECT_SIMJOIN_OVERLAP_H_
