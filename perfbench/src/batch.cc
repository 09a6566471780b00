// The run phase: closed-loop cold Session::Run calls over the worlds
// in turn, alternating threads=1 and threads=N. Untraced it times
// Session::Run; traced it drives the same fusion loop through
// FusionLoop with a forwarding detector, so each DetectRound and each
// fusion step gets its own span.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/detector_registry.h"
#include "core/inverted_index.h"
#include "simjoin/overlap.h"
#include "workload.h"

namespace perfbench {

using namespace copydetect;

namespace {

/// Share of the run phase spent at threads=1; the rest runs parallel.
constexpr double kSerialShare = 0.6;

/// Forwards every call to the real detector and wraps DetectRound in a
/// span. Keeps a copy of the first round-1 input it sees so the
/// inverted index can be rebuilt on it afterwards.
class TracedDetector : public CopyDetector {
 public:
  TracedDetector(std::unique_ptr<CopyDetector> inner, Tracer* tracer,
                 std::string span_name)
      : CopyDetector(inner->params()),
        inner_(std::move(inner)),
        tracer_(tracer),
        span_name_(std::move(span_name)) {}

  std::string_view name() const override { return inner_->name(); }

  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override {
    if (round == 1 && round1_probs_.empty()) {
      round1_probs_ = *in.value_probs;
      round1_accuracies_ = *in.accuracies;
    }
    ScopedSpan span(tracer_, span_name_, parent_, op_);
    Status status = inner_->DetectRound(in, round, out);
    counters_ = inner_->counters();
    return status;
  }

  void Reset() override {
    CopyDetector::Reset();
    inner_->Reset();
  }

  void set_parent(int64_t parent, uint64_t op) {
    parent_ = parent;
    op_ = op;
  }

  std::vector<double>& round1_probs() { return round1_probs_; }
  std::vector<double>& round1_accuracies() { return round1_accuracies_; }

 private:
  std::unique_ptr<CopyDetector> inner_;
  Tracer* tracer_;
  std::string span_name_;
  int64_t parent_ = -1;
  uint64_t op_ = 0;
  std::vector<double> round1_probs_;
  std::vector<double> round1_accuracies_;
};

/// Runs `body` back to back until `seconds` have passed (at least
/// once).
template <typename Fn>
void Loop(double seconds, Fn&& body) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    body();
  } while (Clock::now() < end);
}

}  // namespace

RunPhase::RunPhase(Context& ctx, const std::vector<World>& worlds)
    : ctx_(ctx), worlds_(worlds) {
  // One session per width serves every world (a Session resets its
  // detector on each Run, and all worlds of a profile share options:
  // n is the profile's false-value pool).
  auto serial = Session::Create(BenchOptions(worlds[0], 1));
  auto parallel = Session::Create(BenchOptions(worlds[0], ctx.par_threads));
  CD_CHECK_OK(serial.status());
  CD_CHECK_OK(parallel.status());
  serial_.emplace(std::move(serial).value());
  parallel_.emplace(std::move(parallel).value());

  // Reference runs, untimed: they fill caches and give the bytes every
  // later run of the same world must reproduce, and the quality guards.
  for (const World& w : worlds) {
    auto reference = serial_->Run(w.data);
    ctx.tally->Record(reference.ok(), "reference Session::Run");
    CD_CHECK_OK(reference.status());
    expected_.push_back(reference->ToJson(w.data));
    references_.push_back(std::move(reference).value());
  }
  if (!ctx.trace) QualityGuards();
}

/// truth_accuracy and copy_f1, pooled over the reference reports of
/// all worlds. Accuracy is over the complete planted truth; copy
/// precision (against the clique closure) and recall (against the
/// planted edges) are pooled as counts before forming F1.
void RunPhase::QualityGuards() {
  double correct = 0.0;
  double items = 0.0;
  double precise = 0.0;
  double output = 0.0;
  double recalled = 0.0;
  double planted = 0.0;
  auto add = [&](const World& w, const Report& r) {
    const double n = static_cast<double>(w.full_truth.size());
    correct += w.full_truth.Accuracy(w.data, r.truth()) * n;
    items += n;
    const PrfScores p = ScoreCopyPairs(r.copies(), w.copy_pairs);
    precise += p.precision * static_cast<double>(p.output_pairs);
    output += static_cast<double>(p.output_pairs);
    recalled += p.recall * static_cast<double>(p.reference_pairs);
    planted += static_cast<double>(p.reference_pairs);
  };
  for (size_t k = 0; k < worlds_.size(); ++k) {
    add(worlds_[k], references_[k]);
  }
  const double precision = output > 0 ? precise / output : 1.0;
  const double recall = planted > 0 ? recalled / planted : 1.0;
  ctx_.metrics->Set("truth_accuracy", items > 0 ? correct / items : 0.0,
                    "frac");
  ctx_.metrics->Set("copy_f1",
                    precision + recall > 0
                        ? 2 * precision * recall / (precision + recall)
                        : 0.0,
                    "frac");
}

void RunPhase::Segment(double seconds) {
  if (ctx_.trace) {
    TracedRuns(1, "", seconds * kSerialShare);
    TracedRuns(ctx_.par_threads, "_par", seconds * (1.0 - kSerialShare));
    return;
  }
  auto timed = [&](bool par, std::vector<double>* samples) {
    const size_t k = samples->size() % worlds_.size();
    Session& session = par ? *parallel_ : *serial_;
    const Clock::time_point t0 = Clock::now();
    auto report = session.Run(worlds_[k].data);
    samples->push_back(Seconds(Clock::now() - t0));
    // Outside the timed window: repeated runs, and threads=1 vs
    // threads=N, must render the same bytes — all but the executor
    // width the report declares.
    if (report.ok()) report->threads = 1;
    ctx_.tally->Record(
        report.ok() && report->ToJson(worlds_[k].data) == expected_[k],
        par ? "Session::Run threads=N matches threads=1"
            : "Session::Run threads=1 matches the reference");
    return samples->back();
  };
  // The two widths alternate, each taking its share of the time spent
  // so far, so both see the same stretch of machine time.
  Loop(seconds, [&] {
    if (serial_total_ * (1.0 - kSerialShare) <=
        parallel_total_ * kSerialShare) {
      serial_total_ += timed(false, &serial_s_);
    } else {
      parallel_total_ += timed(true, &parallel_s_);
    }
  });
}

// Span names carry the width: "run"/"fusion.step"/"core.detect" at
// threads=1, with a "_par" suffix at threads=N.
void RunPhase::TracedRuns(size_t threads, const std::string& suffix,
                          double seconds) {
  Tracer& tracer = *ctx_.tracer;
  Executor executor(threads);
  const SessionOptions options = BenchOptions(worlds_[0], threads);
  DetectionParams params = options.ToDetectionParams();
  params.executor = &executor;
  auto inner = DetectorRegistry::Global().Create(options.detector, params);
  CD_CHECK_OK(inner.status());
  TracedDetector detector(std::move(inner).value(), &tracer,
                          "core.detect" + suffix);
  FusionOptions fusion = options.ToFusionOptions();
  fusion.params.executor = &executor;
  Loop(seconds, [&] {
    const size_t k = traced_runs_++ % worlds_.size();
    const uint64_t op = tracer.NewOp();
    FusionLoop loop(fusion);
    detector.Reset();
    Status status;
    {
      ScopedSpan root(&tracer, "run" + suffix, -1, op);
      {
        ScopedSpan start(&tracer, "fusion.start" + suffix, root.id(), op);
        status = loop.Start(worlds_[k].data, &detector);
      }
      while (status.ok() && !loop.done()) {
        ScopedSpan step(&tracer, "fusion.step" + suffix, root.id(), op);
        detector.set_parent(step.id(), op);
        status = loop.Step().status();
      }
    }
    const FusionResult& result = loop.result();
    ctx_.tally->Record(
        status.ok() && result.truth == references_[k].truth() &&
            result.copies.CopyingPairs().size() ==
                references_[k].copies().CopyingPairs().size(),
        "traced FusionLoop matches Session::Run");
    computations_ = detector.counters().Total();
    copying_pairs_ = result.copies.CopyingPairs().size();
    rounds_ = result.rounds;
  });
  if (round1_probs_.empty()) {
    round1_probs_ = std::move(detector.round1_probs());
    round1_accuracies_ = std::move(detector.round1_accuracies());
  }
}

void RunPhase::Finish() {
  Metrics& m = *ctx_.metrics;
  if (!ctx_.trace) {
    // The parallel runs are checked but not reported end to end: their
    // medians spread too widely between runs on a shared 4-core VM
    // (interquartile range up to 40% of the median over 10 seeds).
    const Tail tail = TailOf(serial_s_);
    m.Set("run_s", Median(serial_s_), "s");
    m.Set("run_tail_s", tail.value, "s");
    std::fprintf(stderr,
                 "perfbench: run phase: %zu runs at threads=1, %zu at "
                 "threads=%zu (median %.6f s) over %zu worlds; run_tail_s "
                 "is the %s\n",
                 serial_s_.size(), parallel_s_.size(), ctx_.par_threads,
                 Median(parallel_s_), worlds_.size(),
                 DescribeTail(tail).c_str());
    return;
  }

  // InvertedIndex::Build on the round-1 input of the first traced run
  // (world 0), and the shared-item counts, each timed on its own.
  Tracer& tracer = *ctx_.tracer;
  const World& world = worlds_[0];
  DetectionInput in;
  in.data = &world.data;
  in.value_probs = &round1_probs_;
  in.accuracies = &round1_accuracies_;
  Executor executor(1);
  DetectionParams params = BenchOptions(world, 1).ToDetectionParams();
  params.executor = &executor;
  size_t entries = 0;
  size_t tail_entries = 0;
  for (int i = 0; i < 5; ++i) {
    const uint64_t op = tracer.NewOp();
    ScopedSpan root(&tracer, "index", -1, op);
    ScopedSpan build(&tracer, "core.index_build", root.id(), op);
    auto index = InvertedIndex::Build(in, params);
    ctx_.tally->Record(index.ok(), "InvertedIndex::Build");
    if (!index.ok()) continue;
    entries = index->num_entries();
    tail_entries = index->num_entries() - index->tail_begin();
  }
  size_t positive_pairs = 0;
  for (int i = 0; i < 3; ++i) {
    const uint64_t op = tracer.NewOp();
    ScopedSpan root(&tracer, "overlap", -1, op);
    ScopedSpan count(&tracer, "simjoin.overlap", root.id(), op);
    positive_pairs = ComputeOverlaps(world.data).NumPositivePairs();
  }

  m.Set("core.computations", static_cast<double>(computations_), "count");
  m.Set("core.copying_pairs", static_cast<double>(copying_pairs_),
        "count");
  m.Set("core.index_entries", static_cast<double>(entries), "count");
  m.Set("core.index_tail_entries", static_cast<double>(tail_entries),
        "count");
  m.Set("fusion.rounds", static_cast<double>(rounds_), "count");
  m.Set("simjoin.positive_pairs", static_cast<double>(positive_pairs),
        "count");
}

SessionOptions BenchOptions(const World& world, size_t threads) {
  SessionOptions options;
  options.detector = "hybrid";
  options.alpha = 0.1;
  options.s = 0.8;
  options.n = world.suggested_n;
  options.max_rounds = 8;
  options.epsilon = 1e-4;
  options.threads = threads;
  return options;
}

uint64_t WorldSeed(uint64_t seed, int k) {
  return k == 0 ? seed : seed * 1000 + static_cast<uint64_t>(k);
}

}  // namespace perfbench
