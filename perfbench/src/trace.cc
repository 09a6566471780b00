#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

namespace perfbench {

uint64_t Tracer::NewOp() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_op_++;
}

int64_t Tracer::Begin(std::string_view name, int64_t parent,
                      uint64_t op) {
  if (!enabled_) return -1;
  const double now = Now();
  return Add(name, now, now, parent, op);
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

int64_t Tracer::Add(std::string_view name, double start, double end,
                    int64_t parent, uint64_t op) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = std::string(name);
  span.start = start;
  span.end = end;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.op = op;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : all) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"id\":%lld,\"parent\":%lld,\"op\":%llu}\n",
                 s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start,
                                                           s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double reach = s.start;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, reach);
      end = std::min(end, s.end);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

double SpanSamples::total() const {
  return std::accumulate(durations.begin(), durations.end(), 0.0);
}

double SpanSamples::total_self() const {
  return std::accumulate(self.begin(), self.end(), 0.0);
}

std::map<std::string, SpanSamples> GroupByName(
    const std::vector<Span>& spans) {
  std::vector<double> self = SelfTimes(spans);
  std::map<std::string, SpanSamples> groups;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanSamples& g = groups[spans[i].name];
    g.durations.push_back(spans[i].end - spans[i].start);
    g.self.push_back(self[i]);
  }
  return groups;
}

}  // namespace perfbench
