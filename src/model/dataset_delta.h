#ifndef COPYDETECT_MODEL_DATASET_DELTA_H_
#define COPYDETECT_MODEL_DATASET_DELTA_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "model/dataset.h"
#include "model/types.h"

namespace copydetect {

/// A validated batch of per-source observation changes against one
/// Dataset snapshot — the unit of online updates ("a stock site
/// pushes today's feed"). Sources and items are addressed by name so
/// a delta can introduce new ones; Dataset::Apply resolves names
/// against the snapshot it is applied to.
///
/// Semantics per op:
///  * Set(source, item, value) — the source now provides `value` for
///    `item`: adds the observation when the cell was empty, overwrites
///    it otherwise (a source provides at most one value per item, so
///    no "two values" conflict can arise from a Set).
///  * Retract(source, item) — removes the source's observation for
///    `item`; Apply rejects retractions of empty cells or unknown
///    names (a feed claiming to withdraw data it never provided is a
///    bug worth surfacing, not ignoring).
///
/// At most one op per (source, item) cell — Validate() rejects
/// duplicates so a delta has one deterministic meaning.
class DatasetDelta {
 public:
  struct Op {
    std::string source;
    std::string item;
    std::string value;  ///< unused for retractions
    bool retract = false;
  };

  /// Records that `source` provides `value` for `item` (add or
  /// overwrite).
  void Set(std::string_view source, std::string_view item,
           std::string_view value) {
    ops_.push_back(
        {std::string(source), std::string(item), std::string(value),
         /*retract=*/false});
  }

  /// Records that `source` no longer provides a value for `item`.
  void Retract(std::string_view source, std::string_view item) {
    ops_.push_back(
        {std::string(source), std::string(item), "", /*retract=*/true});
  }

  const std::vector<Op>& ops() const { return ops_; }
  size_t num_ops() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  /// Checks the delta's internal consistency: at most one op per
  /// (source, item) cell. Dataset::Apply validates again, so callers
  /// building deltas programmatically may skip this.
  Status Validate() const;

 private:
  std::vector<Op> ops_;
};

/// What Dataset::Apply changed, in the *new* snapshot's id space: the
/// touched items UpdateOverlaps patches and the figures
/// Session::Update reports in UpdateStats.
struct DeltaSummary {
  /// Sources with at least one op, ascending. New sources included.
  std::vector<SourceId> touched_sources;
  /// Items with at least one op, ascending. Every slot of a touched
  /// item counts as touched (provider lists and vote shares may have
  /// changed); slots of untouched items carry over bit-identically.
  std::vector<ItemId> touched_items;
  /// Old slot id -> new slot id; kInvalidSlot when the value lost its
  /// last provider. Restricted to surviving slots the mapping is
  /// strictly increasing, so relative slot order is preserved.
  std::vector<SlotId> old_to_new_slot;

  size_t added_sources = 0;  ///< sources the delta introduced
  size_t added_items = 0;    ///< items the delta introduced
  size_t added = 0;          ///< Sets on empty cells
  size_t overwritten = 0;    ///< Sets on filled cells
  size_t retracted = 0;      ///< Retracts
};

/// The result of Dataset::Apply: the next snapshot plus the summary
/// of what changed.
struct AppliedDelta {
  Dataset data;
  DeltaSummary summary;
};

/// The from-scratch yardstick incremental updates are verified
/// against: re-feeds every observation of `d` into a fresh
/// DatasetBuilder with the source/item names registered in id order.
/// By the canonical-layout invariant the result is bit-identical to
/// `d` itself — the equivalence tests, the live_updates example and
/// the table8 bench all compare Session::Update's output to a cold
/// run over this rebuild.
Dataset RebuildFromScratch(const Dataset& d);

}  // namespace copydetect

#endif  // COPYDETECT_MODEL_DATASET_DELTA_H_
