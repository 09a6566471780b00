#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around its calls into each layer.
// A span is (name, start, end, parent, operation id); spans of one
// operation share the id. They stay in memory until the run ends.
// A disabled tracer records nothing and costs one branch per call.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  int64_t id = -1;
  int64_t parent = -1;  ///< -1 for an operation's root span
  uint64_t op = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }
  /// Seconds since the origin.
  double Now() const { return Seconds(Clock::now() - origin_); }
  double At(Clock::time_point t) const { return Seconds(t - origin_); }

  /// A fresh operation id.
  uint64_t NewOp();
  /// Opens a span now; returns its id (-1 when disabled).
  int64_t Begin(std::string_view name, int64_t parent, uint64_t op);
  void End(int64_t id);
  /// Records a span measured elsewhere (e.g. from a request's due time
  /// to its reply).
  int64_t Add(std::string_view name, double start, double end,
              int64_t parent, uint64_t op);

  std::vector<Span> spans() const;

  /// One JSON object per line; false on IO failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_op_ = 1;
};

/// Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, int64_t parent,
             uint64_t op)
      : tracer_(tracer), id_(tracer->Begin(name, parent, op)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Self time of every span (aligned with `spans`): its duration minus
/// the part of its interval covered by the union of its children.
/// Span ids must be indices into `spans`, as Tracer assigns them.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Durations and self times of all spans of one name.
struct SpanSamples {
  std::vector<double> durations;
  std::vector<double> self;
  double total() const;
  double total_self() const;
};

std::map<std::string, SpanSamples> GroupByName(
    const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
