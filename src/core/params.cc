#include "core/params.h"

#include "common/stringutil.h"

namespace copydetect {

Status DetectionParams::Validate() const {
  // The model needs alpha < 0.5 (beta > 0); the index/pruning framework
  // additionally needs beta > 2*alpha, i.e. alpha < 0.25, so that
  // theta_ind = ln(beta/2alpha) is positive — otherwise the prior alone
  // deems evidence-free pairs copiers and skipping them is unsound
  // (implicit in Prop. 3.5).
  if (!(alpha > 0.0 && alpha < 0.25)) {
    return Status::InvalidArgument(
        StrFormat("alpha must be in (0, 0.25), got %g", alpha));
  }
  if (!(s > 0.0 && s < 1.0)) {
    return Status::InvalidArgument(
        StrFormat("s must be in (0, 1), got %g", s));
  }
  if (!(n >= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("n must be >= 1, got %g", n));
  }
  if (!(rho_accuracy > 0.0)) {
    return Status::InvalidArgument("rho_accuracy must be positive");
  }
  if (!(rho_value > 0.0)) {
    return Status::InvalidArgument("rho_value must be positive");
  }
  CD_RETURN_IF_ERROR(plan.Validate());
  return Status::OK();
}

}  // namespace copydetect
