#include "core/detector_registry.h"

#include <algorithm>

#include "core/bound.h"
#include "core/fagin_input.h"
#include "core/hybrid.h"
#include "core/incremental.h"
#include "core/index_algo.h"
#include "core/pairwise.h"

namespace copydetect {
namespace {

using Factory = std::unique_ptr<CopyDetector> (*)(const DetectionParams&);

template <typename D, auto... kArgs>
std::unique_ptr<CopyDetector> Make(const DetectionParams& params) {
  return std::make_unique<D>(params, kArgs...);
}

/// One accepted spelling. Canonical rows carry the factory; alias rows
/// name the canonical row they stand for.
struct Row {
  std::string_view name;
  Factory make = nullptr;
  std::string_view alias_of = {};
};

constexpr Row kDetectors[] = {
    {.name = "bound", .make = &Make<BoundDetector, /*lazy=*/false>},
    {.name = "boundplus", .make = &Make<BoundDetector, /*lazy=*/true>},
    {.name = "fagin-input", .make = &Make<FaginInputDetector>},
    {.name = "hybrid", .make = &Make<HybridDetector>},
    {.name = "incremental", .make = &Make<IncrementalDetector>},
    {.name = "index", .make = &Make<IndexDetector>},
    {.name = "pairwise", .make = &Make<PairwiseDetector>},
    // Legacy spelling kept for old scripts.
    {.name = "bound+", .alias_of = "boundplus"},
    // IndexDetector already shards its scan over
    // DetectionParams::executor, bit-identical at every width.
    {.name = "parallel-index", .alias_of = "index"},
};

/// The canonical row for `name`, following an alias; null when unknown.
const Row* FindCanonical(std::string_view name) {
  for (const Row& row : kDetectors) {
    if (row.name != name) continue;
    return row.make != nullptr ? &row : FindCanonical(row.alias_of);
  }
  return nullptr;
}

}  // namespace

DetectorRegistry& DetectorRegistry::Global() {
  static DetectorRegistry registry;
  return registry;
}

StatusOr<std::unique_ptr<CopyDetector>> DetectorRegistry::Create(
    std::string_view name, const DetectionParams& params) const {
  const Row* row = FindCanonical(name);
  if (row == nullptr) {
    return Status::NotFound("unknown detector '" + std::string(name) +
                            "' (available: " + ListDetectorsJoined() +
                            ")");
  }
  return row->make(params);
}

bool DetectorRegistry::Contains(std::string_view name) const {
  return FindCanonical(name) != nullptr;
}

std::string DetectorRegistry::Resolve(std::string_view name) const {
  const Row* row = FindCanonical(name);
  return row != nullptr ? std::string(row->name) : std::string();
}

std::vector<std::string> ListDetectors() {
  std::vector<std::string> names;
  for (const Row& row : kDetectors) {
    if (row.make != nullptr) names.emplace_back(row.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string ListDetectorsJoined() {
  std::string joined;
  for (const std::string& name : ListDetectors()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

}  // namespace copydetect
