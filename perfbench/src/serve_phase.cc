// The serve phase: an in-process copydetectd (serve::Server over an
// AF_UNIX socket, with a state dir) serving one session per world, fed
// by two open-loop generators with one connection each — updates at a
// fixed rate, and queries at 20/s with a save every 5 s of stream
// time, each taking the sessions in turn. It runs in segments; the
// server restarts on its state dir before each segment after the
// first, and once more at the end. Traced, mirror Sessions replay the
// same delta stream serially so the write path can be split into its
// layers.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "deltas.h"
#include "pacing.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "simjoin/overlap.h"
#include "wire_client.h"
#include "workload.h"

namespace perfbench {

using namespace copydetect;

namespace {

/// The first request of each stream is due this long after it starts.
constexpr double kLead = 0.05;
constexpr double kQueryRate = 20.0;  // queries per second
constexpr double kSaveEvery = 5.0;   // seconds of stream time
/// Traced runs poll the `stats` verb this often for the queue depth.
constexpr double kStatsEvery = 0.5;
constexpr int kProbeRepeats = 3;
constexpr int kHandleProbes = 20;

enum class Kind { kQuery, kSave, kStats };

std::string SessionName(size_t k) { return "w" + std::to_string(k); }

std::string VerbLine(std::string_view verb, const std::string& session) {
  return JsonValue::Object()
      .Set("verb", JsonValue::Str(verb))
      .Set("session", JsonValue::Str(session))
      .Dump();
}

std::string OpenLine(const Context& ctx, int k) {
  JsonValue data =
      JsonValue::Object()
          .Set("generate", JsonValue::Str(ctx.spec->profile))
          .Set("scale", JsonValue::Double(ctx.spec->scale))
          .Set("seed", JsonValue::Uint64(WorldSeed(ctx.seed, k)));
  JsonValue options = JsonValue::Object()
                          .Set("detector", JsonValue::Str("hybrid"))
                          .Set("threads", JsonValue::Uint64(1))
                          .Set("alpha", JsonValue::Double(0.1))
                          .Set("s", JsonValue::Double(0.8))
                          .Set("max_rounds", JsonValue::Uint64(8))
                          .Set("epsilon", JsonValue::Double(1e-4));
  return JsonValue::Object()
      .Set("verb", JsonValue::Str("open"))
      .Set("session", JsonValue::Str(SessionName(k)))
      .Set("data", std::move(data))
      .Set("options", std::move(options))
      .Dump();
}

/// The update stream's seed for a world. Multiplied so the stream does
/// not replay the generator's own random sequence (both would start
/// from Rng(world seed)).
uint64_t StreamSeed(uint64_t world_seed) {
  return world_seed * 0x2545F4914F6CDD1DULL + 1;
}

/// The report member of a query reply — its last member, so everything
/// between "report": and the closing brace. Empty when absent.
std::string_view ReportOf(std::string_view reply) {
  constexpr std::string_view kKey = "\"report\":";
  const size_t at = reply.find(kKey);
  if (!IsOkReply(reply) || at == std::string_view::npos ||
      reply.back() != '}') {
    return {};
  }
  const size_t begin = at + kKey.size();
  return reply.substr(begin, reply.size() - 1 - begin);
}

/// Largest "queue_depth" in a `stats` reply.
uint64_t MaxQueueDepth(std::string_view reply) {
  constexpr std::string_view kKey = "\"queue_depth\":";
  uint64_t depth = 0;
  for (size_t at = reply.find(kKey); at != std::string_view::npos;
       at = reply.find(kKey, at + 1)) {
    depth = std::max<uint64_t>(
        depth, std::strtoull(reply.data() + at + kKey.size(), nullptr, 10));
  }
  return depth;
}

double Elapsed(Clock::time_point t0) { return Seconds(Clock::now() - t0); }

}  // namespace

std::unique_ptr<ServeHarness> ServeHarness::Open(Context& ctx) {
  std::unique_ptr<ServeHarness> h(new ServeHarness());
  h->socket_path_ = ctx.work_dir + "/copydetectd.sock";
  h->state_dir_ = ctx.work_dir + "/state";
  std::error_code ec;
  std::filesystem::remove_all(h->state_dir_, ec);
  std::filesystem::create_directories(h->state_dir_, ec);
  if (!h->Start(ctx) || !h->OpenSession(ctx, 0)) return nullptr;
  return h;
}

ServeHarness::~ServeHarness() {
  if (server_ != nullptr) server_->Shutdown();
}

bool ServeHarness::OpenSession(Context& ctx, int k) {
  auto channel = SocketChannel::Connect(socket_path_);
  const bool opened =
      channel != nullptr && IsOkReply(channel->Call(OpenLine(ctx, k)));
  ctx.tally->Record(opened, "wire open");
  return opened;
}

bool ServeHarness::Start(Context& ctx) {
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.manager.state_dir = state_dir_;
  auto server = serve::Server::Start(options);
  ctx.tally->Record(server.ok(), "serve::Server::Start");
  if (!server.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 server.status().ToString().c_str());
    return false;
  }
  server_ = std::move(server).value();
  return true;
}

void ServeHarness::Restart(Context& ctx) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<SocketChannel> channel;
  std::string reply;
  if (Start(ctx) &&
      (channel = SocketChannel::Connect(socket_path_)) != nullptr) {
    reply = channel->Call(VerbLine("query", SessionName(0)));
  }
  recover_s_.push_back(Elapsed(t0));
  for (size_t k = 0; k < served_.size(); ++k) {
    if (k > 0 && channel != nullptr) {
      reply = channel->Call(VerbLine("query", SessionName(k)));
    }
    ctx.tally->Record(!served_[k].empty() && ReportOf(reply) == served_[k],
                      "restarted server serves the last report");
  }
}

void ServeHarness::Segment(Context& ctx, std::span<const World> worlds,
                           double seconds) {
  const size_t sessions = worlds.size();
  Tracer& tracer = *ctx.tracer;
  Tally& tally = *ctx.tally;
  if (streams_.empty()) {
    served_.resize(sessions);
    for (size_t k = 0; k < sessions; ++k) {
      streams_.emplace_back(
          worlds[k].data,
          StreamSeed(WorldSeed(ctx.seed, static_cast<int>(k))));
    }
  }
  if (server_ == nullptr) Restart(ctx);

  // --- Schedules, fixed before the segment starts; updates, queries
  // and saves take the sessions in turn. ---
  const size_t first_delta = deltas_.size();
  std::vector<Request> updates;
  for (size_t i = 0;; ++i) {
    const double due =
        kLead + static_cast<double>(i) / ctx.spec->update_rate;
    if (due >= seconds) break;
    const size_t k = deltas_.size() % sessions;
    deltas_.push_back(streams_[k].Next());
    delta_session_.push_back(k);
    updates.push_back({due, UpdateLine(deltas_.back(), SessionName(k))});
  }
  struct Event {
    double due;
    Kind kind;
  };
  std::vector<Event> events;
  for (size_t j = 0;; ++j) {
    const double due = kLead + static_cast<double>(j) / kQueryRate;
    if (due >= seconds) break;
    events.push_back({due, Kind::kQuery});
  }
  for (double at = kSaveEvery * static_cast<double>(saves_ + 1);
       at < stream_time_ + seconds; at += kSaveEvery) {
    events.push_back({at - stream_time_, Kind::kSave});
  }
  if (ctx.trace) {
    for (double due = kLead; due < seconds; due += kStatsEvery) {
      events.push_back({due, Kind::kStats});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.due < b.due;
                   });
  const std::string stats_line =
      JsonValue::Object().Set("verb", JsonValue::Str("stats")).Dump();
  std::vector<Request> reads;
  for (const Event& e : events) {
    const std::string line =
        e.kind == Kind::kQuery  ? VerbLine("query",
                                           SessionName(queries_++ % sessions))
        : e.kind == Kind::kSave ? VerbLine("save",
                                           SessionName(saves_++ % sessions))
                                : stats_line;
    reads.push_back({e.due, line});
  }
  stream_time_ += seconds;

  // --- The stream. ---
  auto writer = SocketChannel::Connect(socket_path_);
  auto reader = SocketChannel::Connect(socket_path_);
  tally.Record(writer != nullptr && reader != nullptr, "connect");
  if (writer == nullptr || reader == nullptr) return;
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  std::vector<Outcome> update_out;
  std::thread update_thread([&] {
    update_out = RunOpenLoop(writer.get(), updates, start, {});
  });
  std::vector<Outcome> read_out = RunOpenLoop(
      reader.get(), reads, start,
      [&](size_t i, const std::string& reply) {
        if (events[i].kind == Kind::kStats) {
          depth_max_ = std::max(depth_max_, MaxQueueDepth(reply));
        }
      });
  update_thread.join();

  const double origin = tracer.At(start);  // stream time -> trace time
  for (const Outcome& o : update_out) {
    tally.Record(o.ok, "wire update replies ok");
    update_s_.push_back(o.latency());
    late_max_ = std::max(late_max_, o.late());
    if (ctx.trace) {
      tracer.Add("wire.update", origin + o.due, origin + o.done, -1,
                 tracer.NewOp());
    }
  }
  update_out_.insert(update_out_.end(), update_out.begin(),
                     update_out.end());
  for (size_t i = 0; i < read_out.size(); ++i) {
    const Outcome& o = read_out[i];
    const Kind kind = events[i].kind;
    tally.Record(o.ok, kind == Kind::kQuery  ? "wire query replies ok"
                       : kind == Kind::kSave ? "wire save replies ok"
                                             : "wire stats replies ok");
    late_max_ = std::max(late_max_, o.late());
    if (kind == Kind::kQuery) {
      query_s_.push_back(o.latency());
      query_wire_s_.push_back(o.done - o.sent);
      query_bytes_.push_back(static_cast<double>(o.reply_bytes));
    } else if (kind == Kind::kSave) {
      save_s_.push_back(o.latency());
    }
    if (ctx.trace) {
      tracer.Add(kind == Kind::kQuery  ? "wire.query"
                 : kind == Kind::kSave ? "wire.save"
                                       : "wire.stats",
                 origin + o.due, origin + o.done, -1, tracer.NewOp());
    }
  }
  for (size_t i = first_delta; i < deltas_.size(); ++i) {
    lines_.push_back(updates[i - first_delta].line);
  }
  for (const Request& r : reads) lines_.push_back(r.line);

  // --- After the stream: what each session serves now, a save of each,
  // and (traced, once) the transport-free handle probes. ---
  for (size_t k = 0; k < sessions; ++k) {
    served_[k] = ReportOf(reader->Call(VerbLine("query", SessionName(k))));
    tally.Record(!served_[k].empty(), "query after the stream");
  }
  for (size_t k = 0; k < sessions; ++k) {
    const Clock::time_point t0 = Clock::now();
    tally.Record(IsOkReply(reader->Call(VerbLine("save", SessionName(k)))),
                 "save after the stream");
    save_s_.push_back(Elapsed(t0));
  }
  if (ctx.trace && handle_s_.empty()) {
    const std::string query_line = VerbLine("query", SessionName(0));
    for (int i = 0; i < kHandleProbes; ++i) {
      const uint64_t op = tracer.NewOp();
      ScopedSpan root(&tracer, "handle", -1, op);
      ScopedSpan handle(&tracer, "serve.handle_query", root.id(), op);
      const Clock::time_point t0 = Clock::now();
      const bool ok = IsOkReply(server_->HandleLine(query_line));
      handle_s_.push_back(Elapsed(t0));
      tally.Record(ok, "Server::HandleLine query");
    }
  }
  writer.reset();
  reader.reset();
  server_->Shutdown();
  server_.reset();
}

void ServeHarness::Finish(Context& ctx, std::span<const World> worlds) {
  Tracer& tracer = *ctx.tracer;
  Tally& tally = *ctx.tally;
  Metrics& m = *ctx.metrics;
  const size_t sessions = worlds.size();
  Restart(ctx);

  // --- Update ≡ rebuild: each world's merged data through
  // Dataset::Apply, then a cold Run that must render the served bytes.
  std::vector<Dataset> current;
  std::vector<OverlapCounts> counts(sessions);
  for (size_t k = 0; k < sessions; ++k) {
    current.push_back(worlds[k].data);
    if (ctx.trace) counts[k] = ComputeOverlaps(current[k]);
  }
  std::vector<double> touched_items;
  for (size_t i = 0; i < deltas_.size(); ++i) {
    const size_t k = delta_session_[i];
    const uint64_t op = tracer.NewOp();
    ScopedSpan root(&tracer, "apply", -1, op);
    StatusOr<AppliedDelta> applied = [&] {
      ScopedSpan apply(&tracer, "model.apply", root.id(), op);
      return current[k].Apply(deltas_[i]);
    }();
    tally.Record(applied.ok(), "Dataset::Apply");
    if (!applied.ok()) break;
    if (ctx.trace) {
      ScopedSpan patch(&tracer, "simjoin.overlap_update", root.id(), op);
      if (!UpdateOverlaps(&counts[k], current[k], applied->data,
                          applied->summary.touched_items)) {
        counts[k] = ComputeOverlaps(applied->data);  // the universe grew
      }
    }
    touched_items.push_back(
        static_cast<double>(applied->summary.touched_items.size()));
    current[k] = std::move(applied->data);
  }
  for (size_t k = 0; k < sessions; ++k) {
    const Dataset rebuilt = RebuildFromScratch(current[k]);
    auto cold = Session::Create(BenchOptions(worlds[k], 1));
    CD_CHECK_OK(cold.status());
    const uint64_t op = tracer.NewOp();
    ScopedSpan root(&tracer, "cold_run", -1, op);
    std::string json;
    {
      ScopedSpan run(&tracer, "api.cold_run", root.id(), op);
      auto report = cold->Run(rebuilt);
      if (report.ok()) json = report->ToJson(rebuilt);
    }
    tally.Record(!json.empty() && json == served_[k],
                 "final query equals a cold Run on the merged data");
  }

  const Tail update_tail = TailOf(update_s_);
  const Tail query_tail = TailOf(query_s_);
  std::fprintf(stderr,
               "perfbench: serve phase: %zu sessions, %zu updates, %zu "
               "queries, %zu saves, %zu restarts; update_tail_s is the %s; "
               "query tail %.6f s is the %s; generator ran at most %.6f s "
               "late\n",
               sessions, update_s_.size(), query_s_.size(), save_s_.size(),
               recover_s_.size(), DescribeTail(update_tail).c_str(),
               query_tail.value, DescribeTail(query_tail).c_str(),
               late_max_);
  if (!ctx.trace) {
    // The query tail is printed, not reported end to end: queries that
    // overlap an update slow down several-fold, and how many of them
    // reach the tail rank varies too much between runs on a shared
    // 4-core VM (interquartile range up to the median over 10 seeds).
    m.Set("update_s", Median(update_s_), "s");
    m.Set("update_tail_s", update_tail.value, "s");
    m.Set("query_s", Median(query_s_), "s");
    m.Set("save_s", Median(save_s_), "s");
    m.Set("recover_s", Median(recover_s_), "s");
    return;
  }
  MirrorLayers(ctx, worlds, touched_items);
}

// Traced only: mirror sessions replay the delta stream serially,
// splitting each update into Session::Update and what the session
// worker's publish costs; then the snapshot and wire-parsing layers.
void ServeHarness::MirrorLayers(Context& ctx,
                                std::span<const World> worlds,
                                const std::vector<double>& touched_items) {
  Tracer& tracer = *ctx.tracer;
  Tally& tally = *ctx.tally;
  Metrics& m = *ctx.metrics;
  const size_t sessions = worlds.size();
  std::vector<std::optional<Session>> mirrors(sessions);
  for (size_t k = 0; k < sessions; ++k) {
    SessionOptions options = BenchOptions(worlds[k], 1);
    options.online_updates = true;
    auto mirror = Session::Create(options);
    CD_CHECK_OK(mirror.status());
    mirrors[k].emplace(std::move(mirror).value());
    tally.Record(mirrors[k]->Run(worlds[k].data).ok(),
                 "mirror Session::Run");
  }
  std::vector<double> queue_wait_s;
  std::vector<double> apply_s;
  std::vector<double> run_s;
  std::vector<double> reused;
  std::vector<double> render_bytes;
  double incremental = 0.0;
  std::vector<std::string> mirror_json(sessions);
  for (size_t i = 0; i < deltas_.size(); ++i) {
    Session& mirror = *mirrors[delta_session_[i]];
    const uint64_t op = tracer.NewOp();
    ScopedSpan root(&tracer, "update", -1, op);
    const Clock::time_point t0 = Clock::now();
    Status status;
    {
      ScopedSpan update(&tracer, "api.update", root.id(), op);
      status = mirror.Update(deltas_[i]);
    }
    // What the session worker's Publish does: copy the report, render.
    Report published;
    {
      ScopedSpan copy(&tracer, "api.report", root.id(), op);
      published = mirror.report();
    }
    std::string& json = mirror_json[delta_session_[i]];
    {
      ScopedSpan render(&tracer, "api.render", root.id(), op);
      json = published.ToJson(*mirror.current_data());
    }
    const double service = Elapsed(t0);
    tally.Record(status.ok(), "mirror Session::Update");
    const UpdateStats& stats = mirror.last_update_stats();
    apply_s.push_back(stats.apply_seconds);
    run_s.push_back(stats.run_seconds);
    reused.push_back(static_cast<double>(stats.reused_pairs));
    incremental += stats.incremental ? 1.0 : 0.0;
    render_bytes.push_back(static_cast<double>(json.size()));
    if (i < update_out_.size() && update_out_[i].ok) {
      queue_wait_s.push_back(update_out_[i].latency() - service);
    }
  }
  for (size_t k = 0; k < sessions && k < deltas_.size(); ++k) {
    tally.Record(mirror_json[k] == served_[k],
                 "mirror report equals served");
  }

  // Snapshot layer: save and load the first mirror, owned and mapped.
  const std::string snap_path = ctx.work_dir + "/mirror.cdsnap";
  for (int i = 0; i < kProbeRepeats; ++i) {
    const uint64_t op = tracer.NewOp();
    Status saved = [&] {
      ScopedSpan root(&tracer, "snapshot", -1, op);
      ScopedSpan save(&tracer, "snapshot.save", root.id(), op);
      return mirrors[0]->Save(snap_path);
    }();
    tally.Record(saved.ok(), "Session::Save");
  }
  std::error_code ec;
  const auto file_bytes = std::filesystem::file_size(snap_path, ec);
  for (LoadMode mode : {LoadMode::kOwned, LoadMode::kMapped}) {
    const char* name = mode == LoadMode::kOwned ? "snapshot.load"
                                                : "snapshot.load_mapped";
    for (int i = 0; i < kProbeRepeats; ++i) {
      const uint64_t op = tracer.NewOp();
      StatusOr<Session> loaded = [&] {
        ScopedSpan root(&tracer, "snapshot", -1, op);
        ScopedSpan load(&tracer, name, root.id(), op);
        return Session::Load(snap_path, mode);
      }();
      tally.Record(loaded.ok() && loaded->report().ToJson(
                                      *loaded->current_data()) == served_[0],
                   "Session::Load serves the saved report");
    }
  }

  // Wire parsing of every request line the streams sent.
  for (const std::string& line : lines_) {
    const uint64_t op = tracer.NewOp();
    ScopedSpan root(&tracer, "parse", -1, op);
    ScopedSpan parse(&tracer, "serve.parse", root.id(), op);
    tally.Record(serve::ParseRequest(line).ok(), "ParseRequest");
  }

  const double n =
      deltas_.empty() ? 1.0 : static_cast<double>(deltas_.size());
  m.Set("model.touched_items", Median(touched_items), "count");
  m.Set("api.update_apply_s", Median(apply_s), "s");
  m.Set("api.update_run_s", Median(run_s), "s");
  m.Set("api.update_reused_pairs", Median(reused), "count");
  m.Set("api.update_incremental_frac", incremental / n, "frac");
  m.Set("api.render_bytes", Median(render_bytes), "bytes");
  m.Set("snapshot.file_bytes", static_cast<double>(ec ? 0 : file_bytes),
        "bytes");
  m.Set("serve.query_transport_s",
        Median(query_wire_s_) - Median(handle_s_), "s");
  m.Set("serve.response_bytes", Median(query_bytes_), "bytes");
  m.Set("serve.queue_wait_s", Median(queue_wait_s), "s");
  m.Set("serve.queue_depth_max", static_cast<double>(depth_max_), "count");
  m.Set("bench.gen_late_max_s", late_max_, "s");
}

}  // namespace perfbench
