// perfbench: one run of one copydetect benchmark workload.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--work-dir=<dir>] [--trace-out=<file>]
//   perfbench --selftest
//
// Human-readable progress goes to stderr; the last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer
// ones from a separate traced run. README.md lists both.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "workload.h"

namespace perfbench {

int RunSelfTests();  // selftest.cc

using namespace copydetect;

namespace {

constexpr int kSetupRepeats = 5;

/// Span names whose median duration is a per-layer metric.
constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
    {"core.detect_s", "core.detect"},
    {"core.detect_par_s", "core.detect_par"},
    {"core.index_build_s", "core.index_build"},
    {"simjoin.overlap_s", "simjoin.overlap"},
    {"simjoin.overlap_update_s", "simjoin.overlap_update"},
    {"model.apply_s", "model.apply"},
    {"api.update_s", "api.update"},
    {"api.render_s", "api.render"},
    {"api.cold_run_s", "api.cold_run"},
    {"snapshot.save_s", "snapshot.save"},
    {"snapshot.load_s", "snapshot.load"},
    {"snapshot.load_mapped_s", "snapshot.load_mapped"},
    {"serve.parse_s", "serve.parse"},
    {"serve.handle_query_s", "serve.handle_query"},
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Seconds one Begin/End pair costs, measured on a scratch tracer.
double SpanCost() {
  constexpr int kPairs = 20000;
  Tracer scratch(true, Clock::now());
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kPairs; ++i) scratch.End(scratch.Begin("x", -1, 0));
  return Seconds(Clock::now() - t0) / kPairs;
}

/// Per-layer metrics from the spans, and the share of each traced
/// operation that no layer span accounts for.
void LayerMetrics(const Tracer& tracer, Metrics* m) {
  const std::vector<Span> spans = tracer.spans();
  std::map<std::string, SpanSamples> groups = GroupByName(spans);
  for (const auto& [metric, span] : kSpanMetrics) {
    m->Set(metric, Median(groups[span].durations), "s");
  }
  m->Set("fusion.self_s", Median(groups["fusion.step"].self), "s");

  // Operations are root spans; wire.* roots are timed from outside the
  // server only and are split by subtraction (serve.queue_wait_s,
  // serve.query_transport_s), so they are left out here.
  std::map<std::string, bool> has_children;
  for (const Span& s : spans) {
    if (s.parent >= 0) has_children[spans[s.parent].name] = true;
  }
  double unaccounted = 0.0;
  double traced_wall = 0.0;
  std::fprintf(stderr, "perfbench: traced operations (self time of the "
                       "root = unaccounted):\n");
  for (const auto& [name, g] : groups) {
    bool root = false;
    for (const Span& s : spans) {
      if (s.name == name) {
        root = s.parent < 0;
        break;
      }
    }
    if (!root || !has_children[name]) continue;
    const double share = g.total() > 0 ? g.total_self() / g.total() : 0.0;
    unaccounted += g.total_self();
    traced_wall += g.total();
    std::fprintf(stderr, "  %-12s %5zu ops  wall %10.6f s  unaccounted %.4f\n",
                 name.c_str(), g.durations.size(), g.total(), share);
  }
  const double unaccounted_frac =
      traced_wall > 0 ? unaccounted / traced_wall : 0.0;
  std::fprintf(stderr, "  all ops: wall %.6f s, unaccounted %.4f\n",
               traced_wall, unaccounted_frac);
  m->Set("bench.unaccounted_frac", unaccounted_frac, "frac");
  const double overhead =
      traced_wall > 0
          ? SpanCost() * static_cast<double>(spans.size()) / traced_wall
          : 0.0;
  m->Set("bench.trace_overhead", overhead, "frac");
}

void PrintResult(const Tally& tally, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted());
  out += ", \"failed\": " + std::to_string(tally.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics.entries()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", value_unit.first);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           value_unit.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string work_dir = ".bench_build/perfbench-run";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--selftest") {
      args->selftest = true;
      continue;
    }
    const size_t eq = arg.find('=');
    if (!arg.starts_with("--") || eq == std::string_view::npos) {
      std::fprintf(stderr, "perfbench: expected --flag=value, got %s\n",
                   argv[i]);
      return false;
    }
    const std::string key(arg.substr(2, eq - 2));
    const std::string value(arg.substr(eq + 1));
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "work-dir") {
      args->work_dir = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag --%s\n", key.c_str());
      return false;
    }
  }
  return args->selftest || args->seconds > 0;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Dense, few sources: index build and entry scans dominate. One
      // update costs about a cold run (~0.4 s), hence 1 update/s.
      {"batch-stock", "stock-1day", 0.2, 4, 8, 0.7, 1.0},
      // Sparse, many sources, big report: the write path and rendering
      // dominate. Its planted copy graphs are small, so the quality
      // guards need many worlds.
      {"serve-mixed", "book-full", 0.05, 8, 32, 0.4, 3.0},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.selftest) return RunSelfTests();
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (want",
                 args.workload.c_str());
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }

  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.work_dir.c_str());
    return 3;
  }
  Tracer tracer(args.trace, Clock::now());
  Tally tally;
  Metrics metrics;
  Context ctx;
  ctx.spec = spec;
  ctx.seed = args.seed;
  ctx.trace = args.trace;
  ctx.par_threads = std::min<size_t>(4, nproc);
  ctx.work_dir = args.work_dir;
  ctx.tracer = &tracer;
  ctx.tally = &tally;
  ctx.metrics = &metrics;

  std::fprintf(stderr,
               "perfbench: workload %s: profile %s scale %g, %d worlds "
               "(%d served), detector hybrid, threads 1 and %zu "
               "(nproc %zu), %g updates/s, seed %llu, %g s window in %d "
               "cycles (%.0f%% run phase), trace %d\n",
               spec->name.c_str(), spec->profile.c_str(), spec->scale,
               spec->run_worlds, spec->served_worlds, ctx.par_threads, nproc,
               spec->update_rate, static_cast<unsigned long long>(args.seed),
               args.seconds, kCycles, spec->run_share * 100.0,
               args.trace ? 1 : 0);

  // Set-up, repeated: generate world 0 and bring up a server with its
  // session. The last one is kept; the other worlds and their sessions
  // are added untimed.
  std::vector<double> setup_s;
  std::vector<World> worlds;
  std::unique_ptr<ServeHarness> harness;
  auto add_world = [&](int k) {
    auto made = MakeWorldByName(spec->profile, spec->scale,
                                WorldSeed(args.seed, k));
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   made.status().ToString().c_str());
      return false;
    }
    worlds.push_back(std::move(made).value());
    return true;
  };
  for (int i = 0; i < kSetupRepeats; ++i) {
    harness.reset();
    worlds.clear();
    const Clock::time_point t0 = Clock::now();
    if (!add_world(0)) return 3;
    harness = ServeHarness::Open(ctx);
    setup_s.push_back(Seconds(Clock::now() - t0));
    if (harness == nullptr) {
      std::fprintf(stderr, "perfbench: set-up failed\n");
      return 3;
    }
  }
  for (int k = 1; k < spec->run_worlds; ++k) {
    if (!add_world(k) ||
        (k < spec->served_worlds && !harness->OpenSession(ctx, k))) {
      std::fprintf(stderr, "perfbench: set-up failed\n");
      return 3;
    }
  }

  {
    const std::span<const World> served(worlds.data(),
                                        spec->served_worlds);
    RunPhase runs(ctx, worlds);
    const double cycle = args.seconds / kCycles;
    for (int c = 0; c < kCycles; ++c) {
      harness->Segment(ctx, served, cycle * (1.0 - spec->run_share));
      runs.Segment(cycle * spec->run_share);
    }
    harness->Finish(ctx, served);
    runs.Finish();
  }
  harness.reset();

  if (args.trace) {
    LayerMetrics(tracer, &metrics);
    if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  } else {
    metrics.Set("setup_s", Median(setup_s), "s");
    metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Set("ok_frac", tally.ok_frac(), "frac");
  }
  std::filesystem::remove_all(args.work_dir, ec);

  for (const auto& [name, value_unit] : metrics.entries()) {
    std::fprintf(stderr, "  %-30s %.9g %s\n", name.c_str(),
                 value_unit.first, value_unit.second.c_str());
  }
  std::fprintf(stderr, "perfbench: %llu operations and checks, %llu failed\n",
               static_cast<unsigned long long>(tally.attempted()),
               static_cast<unsigned long long>(tally.failed()));
  std::fflush(stderr);
  PrintResult(tally, metrics);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
