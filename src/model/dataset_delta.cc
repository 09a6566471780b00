#include "model/dataset_delta.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stringutil.h"

namespace copydetect {

Dataset RebuildFromScratch(const Dataset& d) {
  DatasetBuilder builder;
  for (SourceId s = 0; s < d.num_sources(); ++s) {
    builder.AddSource(d.source_name(s));
  }
  for (ItemId i = 0; i < d.num_items(); ++i) {
    builder.AddItem(d.item_name(i));
  }
  for (SourceId s = 0; s < d.num_sources(); ++s) {
    std::span<const ItemId> items = d.items_of(s);
    std::span<const SlotId> slots = d.slots_of(s);
    for (size_t i = 0; i < items.size(); ++i) {
      builder.Add(d.source_name(s), d.item_name(items[i]),
                  d.slot_value(slots[i]));
    }
  }
  auto built = builder.Build();
  CD_CHECK_OK(built.status());
  return std::move(built).value();
}

Status DatasetDelta::Validate() const {
  std::set<std::pair<std::string_view, std::string_view>> seen;
  for (const Op& op : ops_) {
    if (!seen.insert({op.source, op.item}).second) {
      return Status::InvalidArgument(StrFormat(
          "delta has two ops for source '%s', item '%s' — one op per "
          "cell",
          op.source.c_str(), op.item.c_str()));
    }
  }
  return Status::OK();
}

namespace {

/// An op resolved to the new snapshot's id space.
struct ResolvedOp {
  SourceId source = kInvalidSource;
  ItemId item = kInvalidItem;
  /// Views the delta op's value string (stable for the whole Apply);
  /// empty and unused for retractions.
  std::string_view value;
  bool retract = false;
  /// New-snapshot slot the Set lands in; filled by the item pass and
  /// consumed by the per-source pass.
  SlotId new_slot = kInvalidSlot;
};

/// One value of a touched item while its slots are rebuilt.
struct LocalSlot {
  /// Views either the old snapshot's slot table (possibly mapped
  /// memory — stable, the old Dataset outlives Apply) or a delta op.
  std::string_view value;
  SlotId old_slot = kInvalidSlot;  // kInvalidSlot for delta-born values
  std::vector<SourceId> providers;  // sorted ascending
};

void SortedErase(std::vector<SourceId>* v, SourceId s) {
  auto it = std::lower_bound(v->begin(), v->end(), s);
  if (it != v->end() && *it == s) v->erase(it);
}

void SortedInsert(std::vector<SourceId>* v, SourceId s) {
  auto it = std::lower_bound(v->begin(), v->end(), s);
  if (it == v->end() || *it != s) v->insert(it, s);
}

}  // namespace

StatusOr<AppliedDelta> Dataset::Apply(const DatasetDelta& delta) const {
  CD_RETURN_IF_ERROR(delta.Validate());

  AppliedDelta out;
  Dataset& next = out.data;
  DeltaSummary& sum = out.summary;

  // Materialized copies even when this snapshot is view-backed: Apply
  // is the copy-on-write seam for mapped snapshots, and the name
  // tables must grow for delta-born sources/items anyway.
  next.source_names_ = source_names_;
  next.item_names_ = item_names_;
  std::vector<std::string>& next_source_names =
      next.source_names_.MutableOwned();
  std::vector<std::string>& next_item_names =
      next.item_names_.MutableOwned();

  // --- Resolve names, registering new sources/items in op order. ---
  std::unordered_map<std::string_view, uint32_t> source_ids;
  std::unordered_map<std::string_view, uint32_t> item_ids;
  source_ids.reserve(source_names_.size() + delta.num_ops());
  item_ids.reserve(item_names_.size() + delta.num_ops());
  for (SourceId s = 0; s < source_names_.size(); ++s) {
    source_ids.emplace(source_names_[s], s);
  }
  for (ItemId d = 0; d < item_names_.size(); ++d) {
    item_ids.emplace(item_names_[d], d);
  }

  const size_t old_sources = num_sources();
  const size_t old_items = num_items();
  std::vector<ResolvedOp> rops;
  rops.reserve(delta.num_ops());
  for (const DatasetDelta::Op& op : delta.ops()) {
    ResolvedOp r;
    r.retract = op.retract;
    if (!op.retract) r.value = op.value;
    auto s_it = source_ids.find(op.source);
    if (s_it != source_ids.end()) {
      r.source = s_it->second;
    } else if (op.retract) {
      return Status::InvalidArgument(StrFormat(
          "delta retracts from unknown source '%s'", op.source.c_str()));
    } else {
      r.source = static_cast<SourceId>(next_source_names.size());
      next_source_names.emplace_back(op.source);
      // Key the view on the delta's op string (stable), not on the
      // growing names vector (reallocation would dangle it).
      source_ids.emplace(op.source, r.source);
      ++sum.added_sources;
    }
    auto d_it = item_ids.find(op.item);
    if (d_it != item_ids.end()) {
      r.item = d_it->second;
    } else if (op.retract) {
      return Status::InvalidArgument(StrFormat(
          "delta retracts unknown item '%s'", op.item.c_str()));
    } else {
      r.item = static_cast<ItemId>(next_item_names.size());
      next_item_names.emplace_back(op.item);
      item_ids.emplace(op.item, r.item);
      ++sum.added_items;
    }
    const bool in_old = r.source < old_sources && r.item < old_items;
    SlotId existing =
        in_old ? slot_of(r.source, r.item) : kInvalidSlot;
    if (op.retract) {
      if (existing == kInvalidSlot) {
        return Status::InvalidArgument(StrFormat(
            "delta retracts an observation that does not exist: "
            "source '%s', item '%s'",
            op.source.c_str(), op.item.c_str()));
      }
      ++sum.retracted;
    } else if (existing == kInvalidSlot) {
      ++sum.added;
    } else {
      ++sum.overwritten;
    }
    rops.push_back(r);
  }

  const size_t new_sources = next_source_names.size();
  const size_t new_items = next_item_names.size();

  for (const ResolvedOp& r : rops) {
    sum.touched_sources.push_back(r.source);
    sum.touched_items.push_back(r.item);
  }
  std::sort(sum.touched_sources.begin(), sum.touched_sources.end());
  sum.touched_sources.erase(std::unique(sum.touched_sources.begin(),
                                        sum.touched_sources.end()),
                            sum.touched_sources.end());
  std::sort(sum.touched_items.begin(), sum.touched_items.end());
  sum.touched_items.erase(
      std::unique(sum.touched_items.begin(), sum.touched_items.end()),
      sum.touched_items.end());

  // Ops of each touched item, in delta order.
  std::unordered_map<ItemId, std::vector<ResolvedOp*>> item_ops;
  item_ops.reserve(sum.touched_items.size());
  for (ResolvedOp& r : rops) item_ops[r.item].push_back(&r);

  // --- Item pass: splice touched items, copy the rest verbatim. ---
  std::vector<std::string>& next_slot_value =
      next.slot_value_.MutableOwned();
  std::vector<ItemId>& next_slot_item = next.slot_item_.MutableOwned();
  std::vector<SlotId>& next_item_slot_begin =
      next.item_slot_begin_.MutableOwned();
  std::vector<uint32_t>& next_provider_begin =
      next.provider_begin_.MutableOwned();
  std::vector<SourceId>& next_providers = next.providers_.MutableOwned();
  sum.old_to_new_slot.assign(num_slots(), kInvalidSlot);
  next_item_slot_begin.assign(new_items + 1, 0);
  next_slot_value.reserve(num_slots() + sum.added);
  next_slot_item.reserve(num_slots() + sum.added);
  next_provider_begin.reserve(num_slots() + sum.added + 1);
  next_providers.reserve(num_observations() + sum.added);

  std::vector<LocalSlot> locals;
  size_t ti = 0;  // cursor into sum.touched_items
  for (ItemId item = 0; item < new_items; ++item) {
    next_item_slot_begin[item] =
        static_cast<SlotId>(next_slot_value.size());
    const bool touched =
        ti < sum.touched_items.size() && sum.touched_items[ti] == item;
    if (!touched) {
      // Bitwise carry-over: same values in the same (lexicographic)
      // order, same provider lists.
      for (SlotId v = slot_begin(item); v < slot_end(item); ++v) {
        sum.old_to_new_slot[v] =
            static_cast<SlotId>(next_slot_value.size());
        next_slot_value.emplace_back(slot_value_[v]);
        next_slot_item.push_back(item);
        next_provider_begin.push_back(
            static_cast<uint32_t>(next_providers.size()));
        std::span<const SourceId> span = providers(v);
        next_providers.insert(next_providers.end(), span.begin(),
                              span.end());
      }
      continue;
    }
    ++ti;
    // Rebuild this item's slots: old values first (already in value
    // order), then apply the ops, then restore value order.
    locals.clear();
    if (item < old_items) {
      for (SlotId v = slot_begin(item); v < slot_end(item); ++v) {
        LocalSlot ls;
        ls.value = slot_value_[v];
        ls.old_slot = v;
        std::span<const SourceId> span = providers(v);
        ls.providers.assign(span.begin(), span.end());
        locals.push_back(std::move(ls));
      }
    }
    for (ResolvedOp* r : item_ops[item]) {
      if (r->source < old_sources && item < old_items) {
        SlotId ov = slot_of(r->source, item);
        if (ov != kInvalidSlot) {
          SortedErase(&locals[ov - slot_begin(item)].providers,
                      r->source);
        }
      }
      if (r->retract) continue;
      auto match = std::find_if(
          locals.begin(), locals.end(), [&](const LocalSlot& ls) {
            return ls.value == r->value;
          });
      if (match == locals.end()) {
        LocalSlot ls;
        ls.value = r->value;
        ls.providers.push_back(r->source);
        locals.push_back(std::move(ls));
      } else {
        SortedInsert(&match->providers, r->source);
      }
    }
    std::sort(locals.begin(), locals.end(),
              [](const LocalSlot& a, const LocalSlot& b) {
                return a.value < b.value;
              });
    for (LocalSlot& ls : locals) {
      if (ls.providers.empty()) continue;  // value lost its last source
      SlotId nv = static_cast<SlotId>(next_slot_value.size());
      if (ls.old_slot != kInvalidSlot) {
        sum.old_to_new_slot[ls.old_slot] = nv;
      }
      next_slot_value.emplace_back(ls.value);
      next_slot_item.push_back(item);
      next_provider_begin.push_back(
          static_cast<uint32_t>(next_providers.size()));
      next_providers.insert(next_providers.end(),
                            ls.providers.begin(), ls.providers.end());
    }
  }
  next_item_slot_begin[new_items] =
      static_cast<SlotId>(next_slot_value.size());
  next_provider_begin.push_back(
      static_cast<uint32_t>(next_providers.size()));

  // Resolve every Set's landing slot for the per-source pass (the
  // provider lists just built contain the op's source by now).
  for (ResolvedOp& r : rops) {
    if (r.retract) continue;
    for (SlotId v = next_item_slot_begin[r.item];
         v < next_item_slot_begin[r.item + 1]; ++v) {
      if (next_slot_value[v] == r.value) {
        r.new_slot = v;
        break;
      }
    }
  }

  // --- Source pass: merge touched sources' rows, remap the rest. ---
  std::unordered_map<SourceId, std::vector<ResolvedOp*>> source_ops;
  source_ops.reserve(sum.touched_sources.size());
  for (ResolvedOp& r : rops) source_ops[r.source].push_back(&r);
  // touched_sources is the sorted-unique set of rop sources, so this
  // visits every source_ops entry, in source-id order rather than
  // bucket order.
  for (SourceId s : sum.touched_sources) {
    std::vector<ResolvedOp*>& ops = source_ops[s];
    std::sort(ops.begin(), ops.end(),
              [](const ResolvedOp* a, const ResolvedOp* b) {
                return a->item < b->item;
              });
  }

  std::vector<uint32_t>& next_src_begin = next.src_begin_.MutableOwned();
  std::vector<ItemId>& next_obs_item = next.obs_item_.MutableOwned();
  std::vector<SlotId>& next_obs_slot = next.obs_slot_.MutableOwned();
  next_src_begin.assign(new_sources + 1, 0);
  next_obs_item.reserve(num_observations() + sum.added);
  next_obs_slot.reserve(num_observations() + sum.added);
  for (SourceId s = 0; s < new_sources; ++s) {
    next_src_begin[s] = static_cast<uint32_t>(next_obs_item.size());
    auto ops_it = source_ops.find(s);
    if (ops_it == source_ops.end()) {
      // Untouched source: same items, slots remapped (all survive —
      // this source still provides each of its values).
      std::span<const ItemId> items = items_of(s);
      std::span<const SlotId> slots = slots_of(s);
      for (size_t i = 0; i < items.size(); ++i) {
        next_obs_item.push_back(items[i]);
        next_obs_slot.push_back(sum.old_to_new_slot[slots[i]]);
      }
      continue;
    }
    // Touched source: merge its (item-sorted) old row with its
    // (item-sorted) ops.
    std::span<const ItemId> items =
        s < old_sources ? items_of(s) : std::span<const ItemId>();
    std::span<const SlotId> slots =
        s < old_sources ? slots_of(s) : std::span<const SlotId>();
    const std::vector<ResolvedOp*>& ops = ops_it->second;
    size_t i = 0;
    size_t j = 0;
    while (i < items.size() || j < ops.size()) {
      if (j == ops.size() ||
          (i < items.size() && items[i] < ops[j]->item)) {
        next_obs_item.push_back(items[i]);
        next_obs_slot.push_back(sum.old_to_new_slot[slots[i]]);
        ++i;
      } else {
        if (i < items.size() && items[i] == ops[j]->item) ++i;
        if (!ops[j]->retract) {
          next_obs_item.push_back(ops[j]->item);
          next_obs_slot.push_back(ops[j]->new_slot);
        }
        ++j;
      }
    }
  }
  next_src_begin[new_sources] =
      static_cast<uint32_t>(next_obs_item.size());

  return out;
}

}  // namespace copydetect
