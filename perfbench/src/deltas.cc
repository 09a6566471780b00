#include "deltas.h"

#include <string_view>

#include "common/json.h"

namespace perfbench {

using namespace copydetect;

namespace {

constexpr double kSwitchShare = 0.7;
constexpr double kRetractShare = 0.2;  // the rest adds new-source cells
constexpr uint64_t kNewSources = 3;
/// Retractions leave sources with few cells alone, so no source runs
/// dry.
constexpr size_t kMinCoverageToRetract = 8;

}  // namespace

DatasetDelta DeltaStream::Next() {
  DatasetDelta delta;
  const size_t want = 1 + rng_.NextBelow(4);
  // (source name, item) cells already in this delta: one op per cell.
  std::set<std::pair<std::string, ItemId>> cells;
  const auto num_sources = static_cast<uint64_t>(data_.num_sources());
  for (int attempt = 0; delta.num_ops() < want && attempt < 64;
       ++attempt) {
    const double kind = rng_.NextDouble();
    if (kind < kSwitchShare + kRetractShare) {
      const auto s = static_cast<SourceId>(rng_.NextBelow(num_sources));
      const auto items = data_.items_of(s);
      if (items.empty()) continue;
      const size_t at = rng_.NextBelow(items.size());
      const ItemId d = items[at];
      const std::string source(data_.source_name(s));
      if (cells.count({source, d}) != 0) continue;
      if (kind < kSwitchShare) {
        // Another provider's value for the same item.
        const SlotId own = data_.slots_of(s)[at];
        const size_t values = data_.num_values(d);
        if (values < 2) continue;
        SlotId pick =
            data_.slot_begin(d) +
            static_cast<SlotId>(rng_.NextBelow(values - 1));
        if (pick >= own) ++pick;
        delta.Set(source, data_.item_name(d), data_.slot_value(pick));
        retracted_.erase({s, d});
      } else {
        if (items.size() < kMinCoverageToRetract ||
            retracted_.count({s, d}) != 0) {
          continue;
        }
        delta.Retract(source, data_.item_name(d));
        retracted_.insert({s, d});
      }
      cells.insert({source, d});
    } else {
      const std::string source =
          "perfbench-new-" + std::to_string(rng_.NextBelow(kNewSources));
      const auto d =
          static_cast<ItemId>(rng_.NextBelow(data_.num_items()));
      if (cells.count({source, d}) != 0 || data_.num_values(d) == 0) {
        continue;
      }
      const SlotId pick =
          data_.slot_begin(d) +
          static_cast<SlotId>(rng_.NextBelow(data_.num_values(d)));
      delta.Set(source, data_.item_name(d), data_.slot_value(pick));
      cells.insert({source, d});
    }
  }
  return delta;
}

std::string UpdateLine(const DatasetDelta& delta,
                       const std::string& session) {
  JsonValue set = JsonValue::Array();
  JsonValue retract = JsonValue::Array();
  for (const DatasetDelta::Op& op : delta.ops()) {
    JsonValue cell = JsonValue::Array();
    cell.Append(JsonValue::Str(op.source));
    cell.Append(JsonValue::Str(op.item));
    if (op.retract) {
      retract.Append(std::move(cell));
    } else {
      cell.Append(JsonValue::Str(op.value));
      set.Append(std::move(cell));
    }
  }
  return JsonValue::Object()
      .Set("verb", JsonValue::Str("update"))
      .Set("session", JsonValue::Str(session))
      .Set("set", std::move(set))
      .Set("retract", std::move(retract))
      .Dump();
}

}  // namespace perfbench
