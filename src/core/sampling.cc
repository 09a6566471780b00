#include "core/sampling.h"

#include <algorithm>
#include <cassert>

#include "common/random.h"
#include "common/timer.h"

namespace copydetect {

std::string_view SamplingMethodName(SamplingMethod method) {
  switch (method) {
    case SamplingMethod::kByItem:
      return "by-item";
    case SamplingMethod::kByCell:
      return "by-cell";
    case SamplingMethod::kScaleSample:
      return "scale-sample";
  }
  return "?";
}

namespace {

/// Chooses the item subset for each method; returns sorted item ids.
std::vector<ItemId> ChooseItems(const Dataset& full,
                                const SampleSpec& spec, Rng* rng) {
  const size_t num_items = full.num_items();
  std::vector<ItemId> chosen;

  switch (spec.method) {
    case SamplingMethod::kByItem:
    case SamplingMethod::kScaleSample: {
      uint64_t k = static_cast<uint64_t>(
          spec.rate * static_cast<double>(num_items) + 0.5);
      k = std::clamp<uint64_t>(k, 1, num_items);
      std::vector<uint64_t> picks =
          rng->SampleWithoutReplacement(num_items, k);
      chosen.assign(picks.begin(), picks.end());
      break;
    }
    case SamplingMethod::kByCell: {
      // Random item order; add items until the sampled cells reach the
      // target fraction of all non-empty cells.
      std::vector<ItemId> order(num_items);
      for (ItemId d = 0; d < num_items; ++d) order[d] = d;
      rng->Shuffle(&order);
      size_t target = static_cast<size_t>(
          spec.rate * static_cast<double>(full.num_observations()) + 0.5);
      size_t cells = 0;
      for (ItemId d : order) {
        if (cells >= target) break;
        chosen.push_back(d);
        cells += full.item_providers(d).size();
      }
      if (chosen.empty()) chosen.push_back(order.front());
      std::sort(chosen.begin(), chosen.end());
      break;
    }
  }

  if (spec.method == SamplingMethod::kScaleSample) {
    // Guarantee >= N items per source when the source has that many.
    std::vector<uint8_t> in_sample(num_items, 0);
    for (ItemId d : chosen) in_sample[d] = 1;
    std::vector<uint32_t> per_source(full.num_sources(), 0);
    for (SourceId s = 0; s < full.num_sources(); ++s) {
      for (ItemId d : full.items_of(s)) {
        if (in_sample[d]) ++per_source[s];
      }
    }
    for (SourceId s = 0; s < full.num_sources(); ++s) {
      std::span<const ItemId> items = full.items_of(s);
      size_t want = std::min<size_t>(spec.min_items_per_source,
                                     items.size());
      if (per_source[s] >= want) continue;
      // Draw missing items uniformly from the source's uncovered ones.
      std::vector<ItemId> missing;
      for (ItemId d : items) {
        if (!in_sample[d]) missing.push_back(d);
      }
      size_t need = want - per_source[s];
      for (size_t pick = 0; pick < need && !missing.empty(); ++pick) {
        size_t idx =
            static_cast<size_t>(rng->NextBelow(missing.size()));
        ItemId d = missing[idx];
        missing[idx] = missing.back();
        missing.pop_back();
        in_sample[d] = 1;
        // Adding an item helps every source providing it.
        for (SourceId other : full.item_providers(d)) {
          ++per_source[other];
        }
      }
    }
    chosen.clear();
    for (ItemId d = 0; d < num_items; ++d) {
      if (in_sample[d]) chosen.push_back(d);
    }
  }
  return chosen;
}

}  // namespace

StatusOr<SampledData> SampleDataset(const Dataset& full,
                                    const SampleSpec& spec) {
  if (spec.rate <= 0.0 || spec.rate > 1.0) {
    return Status::InvalidArgument("sampling rate must be in (0, 1]");
  }
  Rng rng(spec.seed);
  std::vector<ItemId> chosen = ChooseItems(full, spec, &rng);

  SampledData out;
  out.item_map = chosen;

  DatasetBuilder builder;
  // Preserve source ids: register every source first, in order.
  for (SourceId s = 0; s < full.num_sources(); ++s) {
    builder.AddSource(full.source_name(s));
  }
  std::vector<ItemId> new_item_id(full.num_items(), kInvalidItem);
  for (size_t i = 0; i < chosen.size(); ++i) {
    ItemId nid = builder.AddItem(full.item_name(chosen[i]));
    new_item_id[chosen[i]] = nid;
    assert(nid == static_cast<ItemId>(i));
  }
  size_t cells = 0;
  for (SourceId s = 0; s < full.num_sources(); ++s) {
    std::span<const ItemId> items = full.items_of(s);
    std::span<const SlotId> slots = full.slots_of(s);
    for (size_t i = 0; i < items.size(); ++i) {
      if (new_item_id[items[i]] == kInvalidItem) continue;
      builder.Add(s, new_item_id[items[i]], full.slot_value(slots[i]));
      ++cells;
    }
  }
  auto data = builder.Build();
  if (!data.ok()) return data.status();
  out.data = std::move(data).value();

  // Slot mapping: match value strings within each (sampled) item.
  out.slot_map.assign(out.data.num_slots(), kInvalidSlot);
  for (ItemId nd = 0; nd < out.data.num_items(); ++nd) {
    ItemId od = out.item_map[nd];
    for (SlotId nv = out.data.slot_begin(nd); nv < out.data.slot_end(nd);
         ++nv) {
      for (SlotId ov = full.slot_begin(od); ov < full.slot_end(od);
           ++ov) {
        if (full.slot_value(ov) == out.data.slot_value(nv)) {
          out.slot_map[nv] = ov;
          break;
        }
      }
      assert(out.slot_map[nv] != kInvalidSlot);
    }
  }

  out.item_fraction = full.num_items() == 0
                          ? 0.0
                          : static_cast<double>(chosen.size()) /
                                static_cast<double>(full.num_items());
  out.cell_fraction =
      full.num_observations() == 0
          ? 0.0
          : static_cast<double>(cells) /
                static_cast<double>(full.num_observations());
  return out;
}

SampledDetector::SampledDetector(const DetectionParams& params,
                                 std::unique_ptr<CopyDetector> base,
                                 const SampleSpec& spec)
    : CopyDetector(params), base_(std::move(base)), spec_(spec) {
  name_ = std::string(SamplingMethodName(spec.method)) + "(" +
          std::string(base_->name()) + ")";
}

Status SampledDetector::DetectRound(const DetectionInput& in, int round,
                                    CopyResult* out) {
  CD_RETURN_IF_ERROR(in.Validate());
  if (sample_ == nullptr ||
      sampled_generation_ != in.data->generation()) {
    Stopwatch watch;
    watch.Start();
    auto sampled = SampleDataset(*in.data, spec_);
    if (!sampled.ok()) return sampled.status();
    sample_ =
        std::make_unique<SampledData>(std::move(sampled).value());
    sampled_generation_ = in.data->generation();
    base_->Reset();
    watch.Stop();
    sample_seconds_ = watch.Seconds();
    if (base_->reads_overlaps()) {
      sample_overlaps_ = ComputeOverlaps(sample_->data);
    }
  }
  // Project the fusion loop's value probabilities onto the sample.
  projected_probs_.resize(sample_->data.num_slots());
  for (SlotId v = 0; v < sample_->data.num_slots(); ++v) {
    projected_probs_[v] = (*in.value_probs)[sample_->slot_map[v]];
  }
  DetectionInput sub;
  sub.data = &sample_->data;
  sub.overlaps = base_->reads_overlaps() ? &sample_overlaps_ : nullptr;
  sub.value_probs = &projected_probs_;
  sub.accuracies = in.accuracies;  // source ids preserved
  Status st = base_->DetectRound(sub, round, out);
  counters_ = base_->counters();
  return st;
}

void SampledDetector::Reset() {
  CopyDetector::Reset();
  base_->Reset();
  sample_.reset();
  sampled_generation_ = 0;
  sample_overlaps_ = OverlapCounts();
  sample_seconds_ = 0.0;
}

}  // namespace copydetect
