#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// What one benchmark run is: a workload (data shape, time split and
// request rates), its seed and window, and the sinks it reports into.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "copydetect/session.h"
#include "deltas.h"
#include "pacing.h"
#include "stats.h"
#include "trace.h"

namespace copydetect::serve {
class Server;
}  // namespace copydetect::serve

namespace perfbench {

/// Every workload runs the same two phases on its own generated worlds
/// and differs in the shape of those worlds and in how the window is
/// split between the phases:
///   * the serve phase: an in-process copydetectd over an AF_UNIX
///     socket serving one session per world, fed an open-loop update
///     stream and an open-loop query stream with periodic saves;
///   * the run phase: closed-loop cold Session::Run calls, alternating
///     threads=1 and threads=min(4, nproc).
/// The window is cut into kCycles cycles of a serve segment and a run
/// segment, and the server restarts on its state dir at the start of
/// every serve segment after the first, so every metric samples the
/// whole window: on the 4-core VM it was tuned on, speed drifts by up
/// to ±20% over tens of seconds.
/// A run measures several worlds, all generated from its seed, because
/// the cost of one generated world varies widely from seed to seed
/// (a cold run on book-cs x0.5 takes 0.09-0.17 s over seeds 1-10, on
/// stock-1day x0.2 0.36-0.43 s).
struct WorkloadSpec {
  std::string name;
  std::string profile;  ///< datagen profile
  double scale = 1.0;
  int served_worlds = 1;  ///< worlds served, one session each
  /// Worlds the run phase cycles through and the quality guards pool
  /// over; the served ones come first. Enough that run_s and the
  /// guards vary little from seed to seed.
  int run_worlds = 1;
  double run_share = 0.5;    ///< share of each cycle in the run segment
  double update_rate = 3.0;  ///< updates per second, all sessions
};

inline constexpr int kCycles = 8;

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// Named values with units, in the order they were set.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, {value, unit}});
  }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// Shared state of one run.
struct Context {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  bool trace = false;
  size_t par_threads = 1;  ///< min(4, nproc)
  std::string work_dir;    ///< scratch directory, removed at the end
  Tracer* tracer = nullptr;
  Tally* tally = nullptr;
  Metrics* metrics = nullptr;
};

/// Generator seed of world `k` of a run: the run's seed for world 0,
/// then seed * 1000 + k.
uint64_t WorldSeed(uint64_t seed, int k);

/// The paper's options (alpha .1, s .8, n = suggested_n, 8 rounds,
/// epsilon 1e-4) with detector hybrid at `threads`.
copydetect::SessionOptions BenchOptions(const copydetect::World& world,
                                        size_t threads);

/// The run phase (batch.cc). Untraced it times Session::Run; traced it
/// drives the same fusion loop through FusionLoop with a forwarding
/// detector, so each DetectRound and each fusion step gets a span.
class RunPhase {
 public:
  /// Reference runs of every world (untimed); untraced, the quality
  /// guards truth_accuracy and copy_f1.
  RunPhase(Context& ctx, const std::vector<copydetect::World>& worlds);

  /// One run segment: cold runs over the worlds in turn for `seconds`,
  /// 60% of the time at threads=1, each checked against its world's
  /// reference bytes.
  void Segment(double seconds);

  /// Untraced: run_s, run_tail_s. Traced: the core.*, fusion.* and
  /// simjoin.overlap_* layer metrics.
  void Finish();

 private:
  void QualityGuards();
  void TracedRuns(size_t threads, const std::string& suffix,
                  double seconds);

  Context& ctx_;
  const std::vector<copydetect::World>& worlds_;
  std::optional<copydetect::Session> serial_;
  std::optional<copydetect::Session> parallel_;
  std::vector<copydetect::Report> references_;
  std::vector<std::string> expected_;  // reference ToJson per world
  std::vector<double> serial_s_;
  std::vector<double> parallel_s_;
  double serial_total_ = 0.0;
  double parallel_total_ = 0.0;
  size_t traced_runs_ = 0;
  // Traced only: what the last traced run saw.
  uint64_t computations_ = 0;
  size_t copying_pairs_ = 0;
  int rounds_ = 0;
  std::vector<double> round1_probs_;
  std::vector<double> round1_accuracies_;
};

/// The served sessions: the in-process server, its state dir and one
/// session per world, opened through the wire (serve_phase.cc).
class ServeHarness {
 public:
  /// Starts a server on a fresh state dir under ctx.work_dir and opens
  /// the session of world 0 with the wire `open` verb. Null on failure
  /// (counted in ctx.tally).
  static std::unique_ptr<ServeHarness> Open(Context& ctx);
  ~ServeHarness();
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  /// Opens the session of world `k`; false on failure (counted).
  bool OpenSession(Context& ctx, int k);

  /// One serve segment. When the server is down it first restarts on
  /// the state dir, timed to its first served query, and every session
  /// must serve the report it served before the shutdown (Load ≡ Run).
  /// Then the streams run for `seconds`; then every session is queried
  /// and saved, and the server shuts down.
  void Segment(Context& ctx, std::span<const copydetect::World> worlds,
               double seconds);

  /// A last restart, the Update ≡ rebuild checks, and the metrics.
  /// Untraced: update_s, update_tail_s, query_s, save_s, recover_s.
  /// Traced: the model.*, simjoin.overlap_update_s, api.*, snapshot.*,
  /// serve.* and bench.gen_late_max_s layer metrics.
  void Finish(Context& ctx, std::span<const copydetect::World> worlds);

 private:
  ServeHarness() = default;
  bool Start(Context& ctx);
  void Restart(Context& ctx);
  void MirrorLayers(Context& ctx, std::span<const copydetect::World> worlds,
                    const std::vector<double>& touched_items);

  std::string socket_path_;
  std::string state_dir_;
  std::unique_ptr<copydetect::serve::Server> server_;

  // The update streams and everything sent so far.
  std::vector<DeltaStream> streams_;
  std::vector<copydetect::DatasetDelta> deltas_;
  std::vector<size_t> delta_session_;  // the session of each delta
  std::vector<std::string> lines_;     // every request line sent
  std::vector<Outcome> update_out_;    // one per delta
  double stream_time_ = 0.0;           // serve time before this segment
  size_t queries_ = 0;                 // stream queries so far
  size_t saves_ = 0;                   // stream saves so far
  std::vector<std::string> served_;    // last report each session served

  std::vector<double> update_s_;
  std::vector<double> query_s_;
  std::vector<double> query_wire_s_;  // sent to reply
  std::vector<double> query_bytes_;
  std::vector<double> save_s_;
  std::vector<double> recover_s_;
  std::vector<double> handle_s_;
  double late_max_ = 0.0;
  uint64_t depth_max_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
