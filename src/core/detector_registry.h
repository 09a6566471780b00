#ifndef COPYDETECT_CORE_DETECTOR_REGISTRY_H_
#define COPYDETECT_CORE_DETECTOR_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/detector.h"

namespace copydetect {

/// Name → factory lookup over the built-in copy-detection algorithms.
/// One constant table in detector_registry.cc lists every canonical
/// name with its factory, and every accepted alias with the canonical
/// name it stands for; adding an algorithm means adding one row there.
/// The public facade (copydetect/session.h) resolves
/// SessionOptions::detector and the CLI's --detector=<name> through
/// it; ListDetectors() feeds --detector=help and error messages.
class DetectorRegistry {
 public:
  /// The registry of the built-in detectors.
  static DetectorRegistry& Global();

  /// Builds a fresh detector by canonical name or alias. NotFound
  /// (listing every canonical name) for unknown spellings.
  StatusOr<std::unique_ptr<CopyDetector>> Create(
      std::string_view name, const DetectionParams& params) const;

  /// True when `name` resolves (canonical or alias).
  bool Contains(std::string_view name) const;

  /// Canonical name for `name` (resolving aliases); "" when unknown.
  std::string Resolve(std::string_view name) const;
};

/// Sorted canonical names of the built-in detectors; aliases are not
/// listed.
std::vector<std::string> ListDetectors();

/// The same list joined for error messages / --detector=help:
/// "bound, boundplus, fagin-input, ...".
std::string ListDetectorsJoined();

}  // namespace copydetect

#endif  // COPYDETECT_CORE_DETECTOR_REGISTRY_H_
