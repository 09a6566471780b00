#include "fusion/truth_finder.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"

namespace copydetect {

std::vector<SlotId> VoteFusion(const Dataset& data) {
  std::vector<SlotId> truth(data.num_items(), kInvalidSlot);
  for (ItemId d = 0; d < data.num_items(); ++d) {
    size_t best = 0;
    for (SlotId v = data.slot_begin(d); v < data.slot_end(d); ++v) {
      size_t n = data.providers(v).size();
      if (n > best) {
        best = n;
        truth[d] = v;
      }
    }
  }
  return truth;
}

Status FusionLoop::Bind(const Dataset& data, CopyDetector* detector,
                        const OverlapCounts* overlaps) {
  CD_RETURN_IF_ERROR(options_.params.Validate());
  if (options_.use_copy_detection && detector == nullptr) {
    return Status::InvalidArgument(
        "use_copy_detection requires a detector");
  }
  data_ = &data;
  detector_ = detector;
  overlaps_ = overlaps;
  owned_overlaps_ = OverlapCounts();
  if (overlaps_ == nullptr && options_.use_copy_detection &&
      detector->reads_overlaps()) {
    owned_overlaps_ = ComputeOverlaps(data);
    overlaps_ = &owned_overlaps_;
  }
  return Status::OK();
}

Status FusionLoop::Start(const Dataset& data, CopyDetector* detector,
                         const OverlapCounts* overlaps) {
  Stopwatch init;
  init.Start();
  CD_RETURN_IF_ERROR(Bind(data, detector, overlaps));
  result_ = FusionResult();
  result_.value_probs = InitialValueProbs(data);
  result_.accuracies =
      InitialAccuracies(data.num_sources(), options_.initial_accuracy);
  done_ = options_.max_rounds < 1;
  if (done_) result_.truth = ChooseTruth(data, result_.value_probs);
  init.Stop();
  result_.total_seconds = init.Seconds();
  return Status::OK();
}

Status FusionLoop::Resume(const Dataset& data, CopyDetector* detector,
                          FusionResult state) {
  if (state.value_probs.size() != data.num_slots() ||
      state.accuracies.size() != data.num_sources()) {
    return Status::InvalidArgument(
        "FusionLoop::Resume: state dimensions disagree with the data "
        "set");
  }
  CD_RETURN_IF_ERROR(Bind(data, detector, /*overlaps=*/nullptr));
  result_ = std::move(state);
  done_ = result_.converged || result_.rounds >= options_.max_rounds;
  return Status::OK();
}

StatusOr<bool> FusionLoop::Step() {
  if (data_ == nullptr) {
    return Status::FailedPrecondition("FusionLoop::Step before Start");
  }
  if (done_) return false;

  Stopwatch step_watch;
  step_watch.Start();
  const Dataset& data = *data_;
  const int round = result_.rounds + 1;
  RoundTrace trace;
  trace.round = round;

  if (options_.use_copy_detection) {
    DetectionInput in;
    in.data = &data;
    in.overlaps = overlaps_;
    in.value_probs = &result_.value_probs;
    in.accuracies = &result_.accuracies;
    Stopwatch detect;
    const double cpu_before = ProcessCpuSeconds();
    detect.Start();
    CD_RETURN_IF_ERROR(
        detector_->DetectRound(in, round, &result_.copies));
    detect.Stop();
    trace.detect_seconds = detect.Seconds();
    trace.detect_cpu_seconds = ProcessCpuSeconds() - cpu_before;
    trace.computations = detector_->counters().Total();
    trace.copying_pairs = result_.copies.CopyingPairs().size();
    result_.detect_seconds += trace.detect_seconds;
    result_.detect_cpu_seconds += trace.detect_cpu_seconds;
  }

  Stopwatch fuse;
  fuse.Start();
  std::vector<double> old_probs;
  if (options_.damping > 0.0) old_probs = result_.value_probs;
  ComputeValueProbs(data, result_.accuracies, result_.copies,
                    options_.params, &result_.value_probs);
  if (options_.damping > 0.0) {
    for (size_t v = 0; v < result_.value_probs.size(); ++v) {
      result_.value_probs[v] =
          (1.0 - options_.damping) * result_.value_probs[v] +
          options_.damping * old_probs[v];
    }
  }
  std::vector<double> old_accs = result_.accuracies;
  ComputeAccuracies(data, result_.value_probs, &result_.accuracies,
                    options_.params.executor);
  fuse.Stop();
  trace.fusion_seconds = fuse.Seconds();

  double delta = 0.0;
  for (size_t s = 0; s < old_accs.size(); ++s) {
    delta = std::max(delta,
                     std::abs(old_accs[s] - result_.accuracies[s]));
  }
  trace.max_accuracy_change = delta;
  result_.trace.push_back(trace);
  result_.rounds = round;
  if (round > 1 && delta < options_.epsilon) {
    result_.converged = true;
    done_ = true;
  } else if (round >= options_.max_rounds) {
    done_ = true;
  }
  if (done_) result_.truth = ChooseTruth(data, result_.value_probs);
  step_watch.Stop();
  result_.total_seconds += step_watch.Seconds();
  return true;
}

StatusOr<FusionResult> IterativeFusion::Run(const Dataset& data,
                                            CopyDetector* detector) const {
  FusionLoop loop(options_);
  CD_RETURN_IF_ERROR(loop.Start(data, detector));
  while (true) {
    StatusOr<bool> stepped = loop.Step();
    if (!stepped.ok()) return stepped.status();
    if (!*stepped) break;
  }
  return std::move(loop).Take();
}

}  // namespace copydetect
