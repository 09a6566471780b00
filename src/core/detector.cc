#include "core/detector.h"

#include "simjoin/overlap.h"

namespace copydetect {

Status DetectionInput::Validate() const {
  if (data == nullptr || value_probs == nullptr || accuracies == nullptr) {
    return Status::InvalidArgument("DetectionInput has null fields");
  }
  if (value_probs->size() != data->num_slots()) {
    return Status::InvalidArgument(
        "value_probs size does not match slot count");
  }
  if (accuracies->size() != data->num_sources()) {
    return Status::InvalidArgument(
        "accuracies size does not match source count");
  }
  return Status::OK();
}

Status DetectionInput::ValidateWithOverlaps() const {
  CD_RETURN_IF_ERROR(Validate());
  if (overlaps == nullptr) {
    return Status::InvalidArgument(
        "DetectionInput has no overlap counts (count them with "
        "ComputeOverlaps)");
  }
  if (overlaps->num_sources() != data->num_sources()) {
    return Status::InvalidArgument(
        "overlap counts do not match the data set's source count");
  }
  return Status::OK();
}

}  // namespace copydetect
