#include "copydetect/session.h"

#include <algorithm>
#include <charconv>
#include <memory>
#include <string_view>
#include <utility>

#include "common/executor.h"
#include "common/json.h"
#include "common/timer.h"
#include "core/incremental.h"
#include "fusion/value_probs.h"
#include "simjoin/overlap.h"
#include "snapshot/snapshot_io.h"

namespace copydetect {

namespace {

/// Appends "label must ..." style problems; shared formatting for the
/// aggregated validation message.
void Require(bool ok, std::vector<std::string>* problems,
             std::string problem) {
  if (!ok) problems->push_back(std::move(problem));
}

}  // namespace

Status SessionOptions::Validate() const {
  std::vector<std::string> problems;
  // Model-parameter ranges, mirroring DetectionParams::Validate() (the
  // unit tests in tests/session_test.cc pin the two in sync) — but
  // collected instead of first-failure.
  Require(alpha > 0.0 && alpha < 0.25, &problems,
          StrFormat("alpha must be in (0, 0.25), got %g", alpha));
  Require(s > 0.0 && s < 1.0, &problems,
          StrFormat("s must be in (0, 1), got %g", s));
  Require(n >= 1.0, &problems, StrFormat("n must be >= 1, got %g", n));
  Require(rho_accuracy > 0.0, &problems,
          "rho_accuracy must be positive");
  Require(rho_value > 0.0, &problems, "rho_value must be positive");
  // Loop controls.
  Require(max_rounds >= 0, &problems,
          StrFormat("max_rounds must be >= 0, got %d", max_rounds));
  Require(epsilon > 0.0, &problems,
          StrFormat("epsilon must be positive, got %g", epsilon));
  Require(initial_accuracy > 0.0 && initial_accuracy < 1.0, &problems,
          StrFormat("initial_accuracy must be in (0, 1), got %g",
                    initial_accuracy));
  Require(damping >= 0.0 && damping < 1.0, &problems,
          StrFormat("damping must be in [0, 1), got %g", damping));
  // Detector and sampling.
  if (use_copy_detection &&
      !DetectorRegistry::Global().Contains(detector)) {
    problems.push_back("unknown detector '" + detector +
                       "' (available: " + ListDetectorsJoined() + ")");
  }
  Require(sample_rate >= 0.0 && sample_rate <= 1.0, &problems,
          StrFormat("sample_rate must be in [0, 1] (0 disables "
                    "sampling), got %g",
                    sample_rate));
  Require(update_rebuild_fraction >= 0.0 &&
              update_rebuild_fraction <= 1.0,
          &problems,
          StrFormat("update_rebuild_fraction must be in [0, 1], got %g",
                    update_rebuild_fraction));
  // Shard plan.
  Require(plan.num_shards >= 1, &problems,
          "plan.num_shards must be at least 1");
  Require(plan.num_shards < 1 || plan.shard_id < plan.num_shards,
          &problems,
          StrFormat("plan.shard_id %u out of range for %u shards",
                    plan.shard_id, plan.num_shards));
  if (plan.active()) {
    // A plan-restricted detector sees only its owned pairs, so state
    // maintained across rounds/updates and sampled sub-snapshots
    // cannot be reconciled with the merged whole.
    Require(!online_updates, &problems,
            "a multi-shard plan is incompatible with online_updates");
    Require(sample_rate == 0.0, &problems,
            "a multi-shard plan is incompatible with detection "
            "sampling");
  }
  if (!problems.empty()) {
    std::string joined;
    for (const std::string& p : problems) {
      if (!joined.empty()) joined += "; ";
      joined += p;
    }
    return Status::InvalidArgument("invalid SessionOptions: " + joined);
  }
  // Defensive: if the per-field rules above ever drift from
  // DetectionParams::Validate(), surface its verdict instead of
  // letting the mismatch hide until Run.
  return ToDetectionParams().Validate();
}

DetectionParams SessionOptions::ToDetectionParams() const {
  DetectionParams params;
  params.alpha = alpha;
  params.s = s;
  params.n = n;
  params.hybrid_threshold = hybrid_threshold;
  params.rho_accuracy = rho_accuracy;
  params.rho_value = rho_value;
  params.plan = plan;
  return params;
}

FusionOptions SessionOptions::ToFusionOptions() const {
  FusionOptions fusion;
  fusion.params = ToDetectionParams();
  fusion.max_rounds = max_rounds;
  fusion.epsilon = epsilon;
  fusion.initial_accuracy = initial_accuracy;
  fusion.use_copy_detection = use_copy_detection;
  fusion.damping = damping;
  return fusion;
}

Session::Session(SessionOptions options, std::string detector_name,
                 std::unique_ptr<Executor> executor,
                 std::unique_ptr<CopyDetector> detector)
    : options_(std::move(options)),
      detector_name_(std::move(detector_name)),
      executor_(std::move(executor)),
      detector_(std::move(detector)) {}

Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

StatusOr<Session> Session::Create(const SessionOptions& options) {
  CD_RETURN_IF_ERROR(options.Validate());
  auto executor = std::make_unique<Executor>(options.threads);
  DetectionParams params = options.ToDetectionParams();
  params.executor = executor.get();
  std::string name;
  std::unique_ptr<CopyDetector> detector;
  if (options.use_copy_detection) {
    name = DetectorRegistry::Global().Resolve(options.detector);
    auto made = DetectorRegistry::Global().Create(name, params);
    if (!made.ok()) return made.status();
    detector = std::move(made).value();
    if (options.sample_rate > 0.0) {
      SampleSpec spec;
      spec.method = options.sample_method;
      spec.rate = options.sample_rate;
      spec.min_items_per_source = options.sample_min_items_per_source;
      spec.seed = options.sample_seed;
      detector = std::make_unique<SampledDetector>(
          params, std::move(detector), spec);
    }
  }
  return Session(options, std::move(name), std::move(executor),
                 std::move(detector));
}

size_t Session::threads() const { return executor_->num_threads(); }

Status Session::Start(const Dataset& data) {
  if (options_.plan.active()) {
    return Status::FailedPrecondition(
        "Session::Run/Start with a multi-shard plan would report a "
        "partial pair set — drive the run through InitShardedRun / "
        "RunShardRound / MergeShardRound");
  }
  if (options_.online_updates) {
    // Own the snapshot: Update chains deltas off it without imposing
    // lifetime rules on the caller's object. The copy shares the
    // generation (identical content), so overlap counts the session
    // already holds for it stay valid.
    snapshot_ = std::make_unique<Dataset>(data);
    return StartOn(*snapshot_);
  }
  // A Load()ed session owns its snapshot even without online_updates;
  // a fresh run on other data supersedes it — keeping it would make
  // current_data() (and a later Save) serve the stale loaded data
  // set next to the new run's results. Unless the caller is running
  // on that very snapshot, which must stay alive.
  if (snapshot_ != nullptr && &data != snapshot_.get()) {
    snapshot_.reset();
  }
  return StartOn(data);
}

Status Session::StartOn(const Dataset& data) {
  // Fresh run: drop cross-round detector state so consecutive runs on
  // one Session match runs on freshly created Sessions.
  if (detector_ != nullptr) detector_->Reset();
  merged_counters_.reset();
  FusionOptions fusion = options_.ToFusionOptions();
  fusion.params.executor = executor_.get();
  loop_ = std::make_unique<FusionLoop>(fusion);
  data_ = &data;
  report_ = Report();
  if (!KeepsOverlaps()) return loop_->Start(data, detector_.get());
  if (overlaps_ == nullptr || overlaps_generation_ != data.generation()) {
    overlaps_ = std::make_unique<const OverlapCounts>(ComputeOverlaps(data));
    overlaps_generation_ = data.generation();
  }
  return loop_->Start(data, detector_.get(), overlaps_.get());
}

StatusOr<bool> Session::Step() {
  if (loop_ == nullptr) {
    return Status::FailedPrecondition("Session::Step before Start");
  }
  return loop_->Step();
}

bool Session::running() const {
  return loop_ != nullptr && !loop_->done();
}

int Session::round() const {
  return loop_ != nullptr ? loop_->round() : 0;
}

void Session::RefreshReport() {
  report_.detector = detector_name_;
  report_.threads = threads();
  // Mid-run snapshots get a truth computed from the current round's
  // value probabilities; the loop finalizes truth itself on the last
  // round.
  if (report_.fusion.truth.empty() && data_ != nullptr) {
    report_.fusion.truth =
        ChooseTruth(*data_, report_.fusion.value_probs);
  }
  report_.counters = merged_counters_.has_value()
                         ? *merged_counters_
                         : (detector_ != nullptr ? detector_->counters()
                                                 : Counters());
  report_.graph = AnalyzeCopyGraph(report_.fusion.copies);
  report_.incremental_rounds.clear();
  // See through the sampling wrapper: a sampled incremental session
  // still reports its pass statistics.
  const CopyDetector* unwrapped = detector_.get();
  if (const auto* sampled =
          dynamic_cast<const SampledDetector*>(unwrapped)) {
    unwrapped = &sampled->base();
  }
  if (const auto* inc =
          dynamic_cast<const IncrementalDetector*>(unwrapped)) {
    for (const IncrementalDetector::RoundStats& rs :
         inc->round_stats()) {
      IncrementalRoundInfo info;
      info.round = rs.round;
      info.pass1 = rs.pass1;
      info.pass2 = rs.pass2;
      info.pass3 = rs.pass3;
      info.exact = rs.exact;
      info.seconds = rs.seconds;
      info.from_scratch = rs.from_scratch;
      report_.incremental_rounds.push_back(info);
    }
  }
}

const Report& Session::report() {
  // Only a live loop moves on between calls; a finished run, Load or
  // merged shard run refreshed report_ when it completed.
  if (loop_ != nullptr) {
    report_.fusion = loop_->result();
    RefreshReport();
  }
  return report_;
}

Status Session::FinishLoop() {
  while (true) {
    StatusOr<bool> stepped = loop_->Step();
    if (!stepped.ok()) return stepped.status();
    if (!*stepped) break;
  }
  report_.fusion = std::move(*loop_).Take();
  RefreshReport();
  loop_.reset();
  return Status::OK();
}

StatusOr<Report> Session::Run(const Dataset& data) {
  // One-shot runs never leave streaming state behind — in particular
  // not a dangling data_ pointer when a round fails mid-run.
  auto fail = [this](const Status& status) {
    report_ = Report();
    loop_.reset();
    data_ = nullptr;
    return status;
  };
  Status started = Start(data);
  if (!started.ok()) return fail(started);
  Status finished = FinishLoop();
  if (!finished.ok()) return fail(finished);
  if (options_.online_updates) {
    // Keep the report and snapshot live: Update and report() chain
    // off them. The caller gets a copy.
    return report_;
  }
  Report out = std::move(report_);
  report_ = Report();
  data_ = nullptr;
  return out;
}

namespace {

/// Real-valued SessionOptions fields by their stable OPTIONS-section
/// names (docs/FORMATS.md lists the full set).
constexpr std::pair<std::string_view, double SessionOptions::*>
    kRealOptionFields[] = {
        {"alpha", &SessionOptions::alpha},
        {"s", &SessionOptions::s},
        {"n", &SessionOptions::n},
        {"rho_accuracy", &SessionOptions::rho_accuracy},
        {"rho_value", &SessionOptions::rho_value},
        {"epsilon", &SessionOptions::epsilon},
        {"initial_accuracy", &SessionOptions::initial_accuracy},
        {"damping", &SessionOptions::damping},
        {"sample_rate", &SessionOptions::sample_rate},
        {"update_rebuild_fraction",
         &SessionOptions::update_rebuild_fraction},
};

/// The OPTIONS section of a saved session: every SessionOptions field
/// under its stable name. Load() refuses names it does not know, so a
/// field added by a future version cannot be dropped silently —
/// adding one goes hand in hand with a format version bump.
std::vector<snapshot::OptionField> OptionFieldsOf(
    const SessionOptions& o) {
  using F = snapshot::OptionField;
  std::vector<F> fields;
  fields.push_back(F::Text("detector", o.detector));
  for (const auto& [name, member] : kRealOptionFields) {
    fields.push_back(F::Real(std::string(name), o.*member));
  }
  fields.push_back(F::Uint("hybrid_threshold", o.hybrid_threshold));
  fields.push_back(
      F::Uint("max_rounds", static_cast<uint64_t>(o.max_rounds)));
  fields.push_back(F::Bool("use_copy_detection", o.use_copy_detection));
  fields.push_back(F::Uint("threads", o.threads));
  fields.push_back(F::Uint("sample_method",
                           static_cast<uint64_t>(o.sample_method)));
  fields.push_back(F::Uint("sample_min_items_per_source",
                           o.sample_min_items_per_source));
  fields.push_back(F::Uint("sample_seed", o.sample_seed));
  fields.push_back(F::Bool("online_updates", o.online_updates));
  return fields;
}

Status OptionsFromFields(const std::vector<snapshot::OptionField>& fields,
                         SessionOptions* out) {
  using F = snapshot::OptionField;
  for (const F& f : fields) {
    auto typed = [&f](F::Type want) -> Status {
      if (f.type == want) return Status::OK();
      return Status::InvalidArgument(
          "snapshot: OPTIONS field '" + f.name +
          "' has an unexpected type — file written by an incompatible "
          "library");
    };
    bool real_field = false;
    for (const auto& [name, member] : kRealOptionFields) {
      if (f.name == name) {
        CD_RETURN_IF_ERROR(typed(F::Type::kReal));
        out->*member = f.real_value;
        real_field = true;
        break;
      }
    }
    if (real_field) continue;
    if (f.name == "detector") {
      CD_RETURN_IF_ERROR(typed(F::Type::kText));
      out->detector = f.text_value;
    } else if (f.name == "hybrid_threshold") {
      CD_RETURN_IF_ERROR(typed(F::Type::kUint));
      out->hybrid_threshold = static_cast<size_t>(f.uint_value);
    } else if (f.name == "max_rounds") {
      CD_RETURN_IF_ERROR(typed(F::Type::kUint));
      out->max_rounds = static_cast<int>(f.uint_value);
    } else if (f.name == "use_copy_detection") {
      CD_RETURN_IF_ERROR(typed(F::Type::kBool));
      out->use_copy_detection = f.uint_value != 0;
    } else if (f.name == "threads") {
      CD_RETURN_IF_ERROR(typed(F::Type::kUint));
      out->threads = static_cast<size_t>(f.uint_value);
    } else if (f.name == "sample_method") {
      CD_RETURN_IF_ERROR(typed(F::Type::kUint));
      if (f.uint_value >
          static_cast<uint64_t>(SamplingMethod::kScaleSample)) {
        return Status::InvalidArgument(StrFormat(
            "snapshot: unknown sampling method %llu in OPTIONS",
            static_cast<unsigned long long>(f.uint_value)));
      }
      out->sample_method = static_cast<SamplingMethod>(f.uint_value);
    } else if (f.name == "sample_min_items_per_source") {
      CD_RETURN_IF_ERROR(typed(F::Type::kUint));
      out->sample_min_items_per_source =
          static_cast<size_t>(f.uint_value);
    } else if (f.name == "sample_seed") {
      CD_RETURN_IF_ERROR(typed(F::Type::kUint));
      out->sample_seed = f.uint_value;
    } else if (f.name == "online_updates") {
      CD_RETURN_IF_ERROR(typed(F::Type::kBool));
      out->online_updates = f.uint_value != 0;
    } else {
      return Status::InvalidArgument(
          "snapshot: unknown OPTIONS field '" + f.name +
          "' — the file was written by a newer library (new fields "
          "ship with a format version bump); refusing to drop "
          "configuration silently");
    }
  }
  return Status::OK();
}

/// Appends the decimal spelling of an integer (what JsonValue::Int64
/// and JsonValue::Uint64 render).
template <typename Int>
void AppendInt(Int v, std::string* out) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

std::string Report::ToJson(const Dataset& data) const {
  // Rendered straight into one string, keys in a fixed order; the
  // numbers and strings go through the same writers as JsonValue, so
  // the bytes match a JsonValue::Dump of the same document.
  auto key = [](std::string_view k, std::string* out) {
    AppendJsonString(k, out);
    *out += ':';
  };
  auto source = [&data](SourceId s, std::string* out) {
    AppendJsonString(data.source_name(s), out);
  };

  // The pair map iterates in table order; sort by (a, b) so the bytes
  // are independent of hash layout.
  struct Pair {
    SourceId a;
    SourceId b;
    PairPosterior p;
  };
  std::vector<Pair> pairs;
  pairs.reserve(fusion.copies.NumTracked());
  fusion.copies.ForEach(
      [&pairs](SourceId a, SourceId b, const PairPosterior& p) {
        if (p.IsCopying()) pairs.push_back({a, b, p});
      });
  std::sort(pairs.begin(), pairs.end(), [](const Pair& x, const Pair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });

  // A size estimate, so the string grows once or not at all.
  size_t estimate = 256 + fusion.truth.size() * 96 +
                    fusion.accuracies.size() * 64 + pairs.size() * 160;
  for (const CopyCluster& cluster : graph.clusters) {
    estimate += 64 + cluster.members.size() * 32 +
                cluster.edges.size() * 144;
  }
  std::string out;
  out.reserve(estimate);

  out += '{';
  key("detector", &out);
  AppendJsonString(detector, &out);
  out += ',';
  key("threads", &out);
  AppendInt(threads, &out);
  out += ',';
  key("rounds", &out);
  AppendInt(fusion.rounds, &out);
  out += ',';
  key("converged", &out);
  out += fusion.converged ? "true" : "false";
  out += ',';
  key("num_sources", &out);
  AppendInt(data.num_sources(), &out);
  out += ',';
  key("num_items", &out);
  AppendInt(data.num_items(), &out);

  out += ',';
  key("truth", &out);
  out += '[';
  for (size_t item = 0; item < fusion.truth.size(); ++item) {
    const SlotId slot = fusion.truth[item];
    if (item > 0) out += ',';
    out += '{';
    key("item", &out);
    AppendJsonString(data.item_name(static_cast<ItemId>(item)), &out);
    out += ',';
    key("value", &out);
    if (slot == kInvalidSlot) {
      out += "null,";
      key("probability", &out);
      out += "null";
    } else {
      AppendJsonString(data.slot_value(slot), &out);
      out += ',';
      key("probability", &out);
      AppendJsonDouble(slot < fusion.value_probs.size()
                           ? fusion.value_probs[slot]
                           : 0.0,
                       &out);
    }
    out += '}';
  }
  out += ']';

  out += ',';
  key("accuracies", &out);
  out += '[';
  for (size_t s = 0; s < fusion.accuracies.size(); ++s) {
    if (s > 0) out += ',';
    out += '{';
    key("source", &out);
    source(static_cast<SourceId>(s), &out);
    out += ',';
    key("accuracy", &out);
    AppendJsonDouble(fusion.accuracies[s], &out);
    out += '}';
  }
  out += ']';

  out += ',';
  key("copies", &out);
  out += '[';
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Pair& pr = pairs[i];
    if (i > 0) out += ',';
    out += '{';
    key("a", &out);
    source(pr.a, &out);
    out += ',';
    key("b", &out);
    source(pr.b, &out);
    out += ',';
    key("p_indep", &out);
    AppendJsonDouble(pr.p.p_indep, &out);
    out += ',';
    key("p_a_copies_b", &out);
    AppendJsonDouble(pr.p.p_first_copies, &out);
    out += ',';
    key("p_b_copies_a", &out);
    AppendJsonDouble(pr.p.p_second_copies, &out);
    out += '}';
  }
  out += ']';

  out += ',';
  key("clusters", &out);
  out += '[';
  for (size_t c = 0; c < graph.clusters.size(); ++c) {
    const CopyCluster& cluster = graph.clusters[c];
    if (c > 0) out += ',';
    out += '{';
    key("original", &out);
    if (cluster.original == kInvalidSource) {
      out += "null";
    } else {
      source(cluster.original, &out);
    }
    out += ',';
    key("members", &out);
    out += '[';
    for (size_t m = 0; m < cluster.members.size(); ++m) {
      if (m > 0) out += ',';
      source(cluster.members[m], &out);
    }
    out += ']';
    out += ',';
    key("edges", &out);
    out += '[';
    for (size_t i = 0; i < cluster.edges.size(); ++i) {
      const ClassifiedEdge& e = cluster.edges[i];
      const char* kind = e.kind == EdgeKind::kDirect     ? "direct"
                         : e.kind == EdgeKind::kCoCopy ? "co-copy"
                                                         : "indirect";
      if (i > 0) out += ',';
      out += '{';
      key("a", &out);
      source(e.a, &out);
      out += ',';
      key("b", &out);
      source(e.b, &out);
      out += ',';
      key("kind", &out);
      AppendJsonString(kind, &out);
      out += ',';
      key("p_a_copies_b", &out);
      AppendJsonDouble(e.pr_a_copies_b, &out);
      out += ',';
      key("p_b_copies_a", &out);
      AppendJsonDouble(e.pr_b_copies_a, &out);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";

  // Deliberately absent: the timing fields of FusionResult (wall time
  // is never deterministic) and the detector counters (per-run, reset
  // to zero by Session::Load — including them would make a reloaded
  // session render differently from the one that wrote the snapshot).
  return out;
}

Status Session::Save(const std::string& path) {
  if (running()) {
    return Status::FailedPrecondition(
        "Session::Save mid-run — drive the streaming run to its final "
        "Step first");
  }
  const Dataset* data = current_data();
  if (data == nullptr) {
    return Status::FailedPrecondition(
        "Session::Save: no state to save — complete a run first "
        "(without online_updates, Run() hands its state to the caller "
        "and keeps nothing; use online_updates or the streaming API)");
  }
  // A finished streaming run keeps its result in the loop.
  const FusionResult& fusion =
      loop_ != nullptr ? loop_->result() : report_.fusion;
  // Fail here, not at some later Load: a fusion result that does not
  // match the current data (e.g. a run's report was handed to the
  // caller and the session kept only a loaded snapshot) must never
  // reach disk.
  if (fusion.accuracies.size() != data->num_sources() ||
      fusion.value_probs.size() != data->num_slots()) {
    return Status::FailedPrecondition(
        "Session::Save: the session holds no fusion state for its "
        "current data set — complete a run on it first");
  }
  // Written straight from the live structures: nothing is copied.
  const std::vector<snapshot::OptionField> fields = OptionFieldsOf(options_);
  snapshot::SessionStateView state;
  state.generation = data->generation();
  state.options = fields;
  state.data = data;
  state.fusion = &fusion;
  if (overlaps_ != nullptr && overlaps_generation_ == state.generation) {
    state.overlaps = overlaps_.get();
    state.overlaps_generation = state.generation;
  }
  return snapshot::Write(path, state);
}

StatusOr<Session> Session::Load(const std::string& path,
                                const LoadOptions& options) {
  auto state = options.mode == LoadMode::kMapped
                   ? snapshot::ReadMapped(path)
                   : snapshot::Read(path);
  if (!state.ok()) return state.status();
  SessionOptions session_options;
  Status parsed = OptionsFromFields(state->options, &session_options);
  if (!parsed.ok()) return parsed;
  auto session = Session::Create(session_options);
  if (!session.ok()) return session.status();
  Status installed = session->InstallLoaded(std::move(*state));
  if (!installed.ok()) return installed;
  return session;
}

Status Session::InstallLoaded(snapshot::SessionState state) {
  // The loaded snapshot draws a fresh process-local generation; every
  // piece of derived state below is rebound to it.
  snapshot_ = std::make_unique<Dataset>(std::move(state.data));
  data_ = snapshot_.get();
  report_ = Report();
  report_.fusion = std::move(state.fusion);
  if (KeepsOverlaps() && state.has_overlaps) {
    overlaps_ =
        std::make_unique<const OverlapCounts>(std::move(state.overlaps));
    overlaps_generation_ = snapshot_->generation();
  }
  RefreshReport();
  return Status::OK();
}

Status Session::Update(const DatasetDelta& delta) {
  if (!options_.online_updates) {
    return Status::FailedPrecondition(
        "Session::Update requires SessionOptions::online_updates");
  }
  if (running()) {
    return Status::FailedPrecondition(
        "Session::Update while a streaming run is active — finish it "
        "first");
  }
  if (snapshot_ == nullptr) {
    return Status::FailedPrecondition(
        "Session::Update before the first Run/Start");
  }

  update_stats_ = UpdateStats();
  Stopwatch apply_watch;
  apply_watch.Start();
  auto applied = snapshot_->Apply(delta);
  if (!applied.ok()) return applied.status();
  const DeltaSummary& summary = applied->summary;
  update_stats_.touched_sources = summary.touched_sources.size();
  update_stats_.touched_items = summary.touched_items.size();
  update_stats_.added_observations = summary.added;
  update_stats_.overwritten_observations = summary.overwritten;
  update_stats_.retracted_observations = summary.retracted;
  snapshot_ = std::make_unique<Dataset>(std::move(applied->data));
  apply_watch.Stop();
  update_stats_.apply_seconds = apply_watch.Seconds();

  // A cold run on the new snapshot; StartOn recounts the overlaps of
  // its fresh generation.
  Stopwatch run_watch;
  run_watch.Start();
  Status status = StartOn(*snapshot_);
  if (status.ok()) status = FinishLoop();
  run_watch.Stop();
  update_stats_.run_seconds = run_watch.Seconds();
  if (!status.ok()) {
    // Mirror Run's failure path: clear data_ too, so a subsequent
    // report() doesn't compute truth from an empty fusion state.
    report_ = Report();
    loop_.reset();
    data_ = nullptr;
    return status;
  }
  return Status::OK();
}

namespace {

/// Stands in for the detector inside the BSP merge's single fusion
/// Step: DetectRound serves the already-merged shard copies verbatim,
/// so the Step reads exactly what a single-process detector would
/// have produced for the round.
class PrecomputedDetector : public CopyDetector {
 public:
  PrecomputedDetector(const DetectionParams& params, CopyResult copies)
      : CopyDetector(params), copies_(std::move(copies)) {}

  std::string_view name() const override { return "precomputed"; }

  bool reads_overlaps() const override { return false; }

  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override {
    (void)in;
    (void)round;
    *out = copies_;
    return Status::OK();
  }

 private:
  CopyResult copies_;
};

}  // namespace

Status Session::CheckBspEligible() const {
  if (detector_ == nullptr) {
    return Status::FailedPrecondition(
        "sharded runs need a detector — nothing to shard in an "
        "accuracy-only session");
  }
  if (options_.online_updates || options_.sample_rate > 0.0) {
    return Status::FailedPrecondition(
        "sharded runs are incompatible with online_updates and "
        "detection sampling");
  }
  if (detector_name_ == "incremental") {
    return Status::FailedPrecondition(
        "the incremental detector keeps cross-round state that cannot "
        "survive the per-round process boundary of a sharded run — "
        "use a round-stateless detector");
  }
  if (options_.max_rounds < 1) {
    return Status::FailedPrecondition(
        "sharded runs need max_rounds >= 1");
  }
  return Status::OK();
}

Status Session::InitShardedRun(const Dataset& data,
                               const std::string& state_path) {
  CD_RETURN_IF_ERROR(CheckBspEligible());
  snapshot::BspState state;
  state.num_shards = options_.plan.num_shards;
  // Round 0 exactly as FusionLoop::Start computes it, so the sharded
  // run's round 1 reads bit-identical inputs.
  state.fusion.value_probs = InitialValueProbs(data);
  state.fusion.accuracies =
      InitialAccuracies(data.num_sources(), options_.initial_accuracy);
  return snapshot::WriteBspState(state_path, state);
}

Status Session::RunShardRound(const Dataset& data,
                              const std::string& state_path,
                              const std::string& shard_path) {
  CD_RETURN_IF_ERROR(CheckBspEligible());
  auto state = snapshot::ReadBspState(state_path, data);
  if (!state.ok()) return state.status();
  if (state->num_shards != options_.plan.num_shards) {
    return Status::InvalidArgument(StrFormat(
        "shard round: the state file frames a %u-shard run but this "
        "session's plan says %u shards",
        state->num_shards, options_.plan.num_shards));
  }
  if (state->fusion.converged ||
      state->fusion.rounds >= options_.max_rounds) {
    return Status::FailedPrecondition(
        "shard round: the sharded run already finished");
  }
  const int round = state->fusion.rounds + 1;
  // The detector was created with this session's plan in its params,
  // so it scores only the owned pairs. Reset makes repeated calls on
  // one session behave like the fresh process per superstep the
  // protocol assumes (and zeroes counters, so the shard file carries
  // this round's work alone).
  detector_->Reset();
  // Counted per round, like everything else a shard process holds.
  OverlapCounts overlaps;
  DetectionInput in;
  in.data = &data;
  if (detector_->reads_overlaps()) {
    overlaps = ComputeOverlaps(data);
    in.overlaps = &overlaps;
  }
  in.value_probs = &state->fusion.value_probs;
  in.accuracies = &state->fusion.accuracies;
  ShardResult part;
  part.num_shards = options_.plan.num_shards;
  part.shard_id = options_.plan.shard_id;
  part.round = round;
  CD_RETURN_IF_ERROR(detector_->DetectRound(in, round, &part.copies));
  part.counters = detector_->counters();
  return snapshot::WriteShardResult(shard_path, part);
}

StatusOr<bool> Session::MergeShardRound(
    const Dataset& data, const std::vector<std::string>& shard_paths,
    const std::string& state_path) {
  CD_RETURN_IF_ERROR(CheckBspEligible());
  auto state = snapshot::ReadBspState(state_path, data);
  if (!state.ok()) return state.status();
  if (state->num_shards != options_.plan.num_shards) {
    return Status::InvalidArgument(StrFormat(
        "merge: the state file frames a %u-shard run but this "
        "session's plan says %u shards",
        state->num_shards, options_.plan.num_shards));
  }
  if (state->fusion.converged ||
      state->fusion.rounds >= options_.max_rounds) {
    return Status::FailedPrecondition(
        "merge: the sharded run already finished");
  }
  std::vector<ShardResult> parts;
  parts.reserve(shard_paths.size());
  for (const std::string& p : shard_paths) {
    auto part = snapshot::ReadShardResult(p, data);
    if (!part.ok()) return part.status();
    if (part->num_shards != state->num_shards) {
      return Status::InvalidArgument(StrFormat(
          "merge: %s belongs to a %u-shard run, the state file to a "
          "%u-shard one",
          p.c_str(), part->num_shards, state->num_shards));
    }
    if (part->round != state->fusion.rounds + 1) {
      return Status::InvalidArgument(StrFormat(
          "merge: %s holds round %d but the state file expects round "
          "%d",
          p.c_str(), part->round, state->fusion.rounds + 1));
    }
    parts.push_back(std::move(*part));
  }
  CopyResult merged;
  Counters round_counters;
  CD_RETURN_IF_ERROR(
      MergeShardResults(parts, &merged, &round_counters));
  state->counters += round_counters;

  // Advance the fusion loop exactly one round, the merged copies
  // standing in for the detection call. The merge sees the whole pair
  // set, so its params carry no plan.
  FusionOptions fusion = options_.ToFusionOptions();
  fusion.params.executor = executor_.get();
  fusion.params.plan = ShardPlan();
  PrecomputedDetector precomputed(fusion.params, std::move(merged));
  FusionLoop loop(fusion);
  CD_RETURN_IF_ERROR(
      loop.Resume(data, &precomputed, std::move(state->fusion)));
  StatusOr<bool> stepped = loop.Step();
  if (!stepped.ok()) return stepped.status();
  state->fusion = std::move(loop).Take();
  const bool done = state->fusion.converged ||
                    state->fusion.rounds >= options_.max_rounds;
  CD_RETURN_IF_ERROR(snapshot::WriteBspState(state_path, *state));
  if (done) {
    // Serve the finished run through report(). The session's own
    // detector never ran this work, so the counters accumulated over
    // the merged rounds stand in for detector_->counters().
    if (snapshot_ != nullptr && &data != snapshot_.get()) {
      snapshot_.reset();
    }
    loop_.reset();
    data_ = &data;
    report_ = Report();
    report_.fusion = std::move(state->fusion);
    merged_counters_ = state->counters;
    RefreshReport();
  }
  return done;
}

}  // namespace copydetect
