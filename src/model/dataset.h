#ifndef COPYDETECT_MODEL_DATASET_H_
#define COPYDETECT_MODEL_DATASET_H_

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "model/array_store.h"
#include "model/types.h"

namespace copydetect {

class DatasetDelta;
struct AppliedDelta;

namespace snapshot_internal {
struct DatasetSerde;
}  // namespace snapshot_internal

/// Immutable structured data set: a sparse sources × items matrix of
/// string values, stored CSR in both directions.
///
/// Terminology follows the paper: a *data item* is one attribute of one
/// object; a *slot* is one distinct (item, value) pair; the providers of
/// a slot are the sources that supplied that value for that item. A
/// source provides at most one value per item, so the provider lists of
/// the slots of one item partition that item's providers.
///
/// Layout invariants (exploited throughout the core algorithms):
///  * slots are numbered contiguously by item: the slots of item i are
///    exactly [slot_begin(i), slot_end(i)), ordered by value string
///    (lexicographically) — a canonical layout independent of the
///    order observations were added, so a Dataset::Apply result and a
///    from-scratch rebuild of the same observations are bit-identical;
///  * providers_ is the slot-provider CSR, so the providers of all slots
///    of one item occupy one contiguous range — the item's provider list;
///  * per-source observation arrays are sorted by item id, enabling
///    O(log) value lookup and linear pair merges.
class Dataset {
 public:
  size_t num_sources() const { return source_names_.size(); }
  size_t num_items() const { return item_names_.size(); }
  size_t num_slots() const { return slot_value_.size(); }
  size_t num_observations() const { return obs_item_.size(); }

  /// Process-unique id of this data set's contents, drawn from a
  /// monotone counter at construction and carried along by copies
  /// (copies hold identical content, so sharing the id is sound).
  /// Caches keyed on a Dataset must key on this, not on the object's
  /// address: a different Dataset allocated at a recycled address, or
  /// assigned into the same object, would otherwise silently hit a
  /// stale entry (see SampledDetector, Session's overlap counts).
  uint64_t generation() const { return generation_; }

  std::string_view source_name(SourceId s) const {
    return source_names_[s];
  }
  std::string_view item_name(ItemId d) const { return item_names_[d]; }

  /// The value string of a slot.
  std::string_view slot_value(SlotId v) const { return slot_value_[v]; }
  /// The item a slot belongs to.
  ItemId slot_item(SlotId v) const { return slot_item_[v]; }

  /// Slot id range [begin, end) of the distinct values of `item`.
  SlotId slot_begin(ItemId item) const { return item_slot_begin_[item]; }
  SlotId slot_end(ItemId item) const { return item_slot_begin_[item + 1]; }
  /// Number of distinct values provided for `item`.
  size_t num_values(ItemId item) const {
    return slot_end(item) - slot_begin(item);
  }

  /// Sources providing the value of slot `v`, sorted ascending.
  std::span<const SourceId> providers(SlotId v) const {
    return {providers_.data() + provider_begin_[v],
            providers_.data() + provider_begin_[v + 1]};
  }

  /// All sources providing *any* value for `item` (union of its slots'
  /// providers; contiguous by the layout invariant). Sorted within each
  /// slot but not across slots.
  std::span<const SourceId> item_providers(ItemId item) const {
    return {providers_.data() + provider_begin_[slot_begin(item)],
            providers_.data() + provider_begin_[slot_end(item)]};
  }

  /// Items covered by `source`, sorted ascending.
  std::span<const ItemId> items_of(SourceId s) const {
    return {obs_item_.data() + src_begin_[s],
            obs_item_.data() + src_begin_[s + 1]};
  }

  /// Slots provided by `source`, aligned with items_of(s).
  std::span<const SlotId> slots_of(SourceId s) const {
    return {obs_slot_.data() + src_begin_[s],
            obs_slot_.data() + src_begin_[s + 1]};
  }

  /// Number of items `source` covers (the paper's |D̄(S)|).
  size_t coverage(SourceId s) const {
    return src_begin_[s + 1] - src_begin_[s];
  }

  /// The slot `source` provides for `item`, or kInvalidSlot when the
  /// cell is empty. O(log coverage(s)).
  SlotId slot_of(SourceId s, ItemId item) const;

  /// Serializes as CSV rows: source,item,value.
  Status SaveCsv(const std::string& path) const;

  /// Parses a CSV of source,item,value rows into a Dataset.
  static StatusOr<Dataset> LoadCsv(const std::string& path);

  /// Serializes as ndjson: one {"source":...,"item":...,"value":...}
  /// object per line, observations in the same order as SaveCsv (see
  /// docs/FORMATS.md §JSON).
  Status SaveJson(const std::string& path) const;

  /// Parses an ndjson file of observation objects into a Dataset.
  /// Fail-closed: every non-blank line must be a JSON object with
  /// exactly the three string members source/item/value — unknown
  /// members, non-object lines and malformed JSON are
  /// InvalidArgument with the offending line number; a missing file
  /// is IOError. Loading the SaveJson of a Dataset reproduces its
  /// observations exactly and is bit-identical to loading the same
  /// Dataset's SaveCsv via LoadCsv (both loaders intern names in the
  /// shared row order; the canonical layout does the rest).
  static StatusOr<Dataset> LoadJson(const std::string& path);

  /// Applies a validated batch of observation changes, producing the
  /// next snapshot (fresh generation(), this object untouched) plus a
  /// compact summary of the touched sources/items/slots. The result is
  /// bit-identical to rebuilding the merged observations from scratch
  /// with a DatasetBuilder that registers the surviving source/item
  /// names in id order — the layout is canonical (slots ordered by
  /// value string within each item), so incremental consumers
  /// (UpdateOverlaps) can trust ids off the summary's mapping. Cost:
  /// O(size) array rebuilding with cheap copies for untouched rows —
  /// no global sort, no re-interning.
  /// Implemented in model/dataset_delta.cc.
  StatusOr<AppliedDelta> Apply(const DatasetDelta& delta) const;

 private:
  friend class DatasetBuilder;
  // SnapshotIO persists/restores the arrays verbatim (the layout is
  // canonical, so a byte round-trip is both exact and cheaper than a
  // rebuild through DatasetBuilder); see snapshot/snapshot_io.cc.
  friend struct snapshot_internal::DatasetSerde;

  static uint64_t NextGeneration();

  uint64_t generation_ = NextGeneration();

  // Every array sits behind an ArrayStore/StringArray so the whole
  // Dataset can be served either from owned heap vectors or zero-copy
  // out of a mapped snapshot (see model/array_store.h and
  // snapshot::ReadMapped). Mutating paths (DatasetBuilder::Build,
  // Dataset::Apply) go through MutableOwned(), which copies-on-write
  // when the backing is a view.
  StringArray source_names_;
  StringArray item_names_;

  // Slot tables (indexed by SlotId).
  StringArray slot_value_;
  ArrayStore<ItemId> slot_item_;

  // item -> slot range. Size num_items + 1.
  ArrayStore<SlotId> item_slot_begin_;

  // slot -> providers CSR. provider_begin_ has size num_slots + 1.
  ArrayStore<uint32_t> provider_begin_;
  ArrayStore<SourceId> providers_;

  // source -> (item, slot) CSR, sorted by item. src_begin_ has size
  // num_sources + 1.
  ArrayStore<uint32_t> src_begin_;
  ArrayStore<ItemId> obs_item_;
  ArrayStore<SlotId> obs_slot_;
};

/// Accumulates observations and freezes them into a Dataset.
///
/// Duplicate (source, item) observations are rejected at Build() time
/// unless they agree on the value (a source cannot provide two values
/// for one item in the paper's model).
class DatasetBuilder {
 public:
  /// Registers (or finds) a source by name.
  SourceId AddSource(std::string_view name);
  /// Registers (or finds) an item by name.
  ItemId AddItem(std::string_view name);

  /// Records that `source` provides `value` for `item`.
  void Add(SourceId source, ItemId item, std::string_view value);

  /// Convenience: registers names and records in one call.
  void Add(std::string_view source, std::string_view item,
           std::string_view value);

  size_t num_observations() const { return obs_.size(); }
  size_t num_sources() const { return source_names_.size(); }
  size_t num_items() const { return item_names_.size(); }

  /// Validates and freezes. The builder is left empty afterwards.
  StatusOr<Dataset> Build();

 private:
  struct Obs {
    SourceId source;
    ItemId item;
    uint32_t value_idx;  // into value_strings_
  };

  uint32_t InternValue(std::string_view v);

  std::vector<std::string> source_names_;
  std::vector<std::string> item_names_;
  std::vector<std::string> value_strings_;
  std::unordered_map<std::string, uint32_t> source_lookup_;
  std::unordered_map<std::string, uint32_t> item_lookup_;
  std::unordered_map<std::string, uint32_t> value_lookup_;
  std::vector<Obs> obs_;
};

}  // namespace copydetect

#endif  // COPYDETECT_MODEL_DATASET_H_
