// Self-tests of the benchmark's own statistics: tail-rank selection,
// due-time latency under a stalled fake server, failure counting and
// span self-time arithmetic. `perfbench --selftest` runs them; run.py
// does so before every measurement.

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pacing.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "selftest: FAILED line %d: %s\n", line, what);
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void TestTailRank() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted
  Tail t = TailOf(hundred);
  EXPECT(t.defined);
  EXPECT(t.samples == 100);
  EXPECT(Near(t.value, 90.0));  // 10 samples (91..100) lie beyond it
  EXPECT(Near(t.percentile, 100.0 * 89 / 99));

  std::vector<double> eleven = {5, 1, 9, 3, 7, 11, 2, 8, 4, 10, 6};
  t = TailOf(eleven);
  EXPECT(t.defined);
  EXPECT(Near(t.value, 1.0));
  EXPECT(Near(t.percentile, 0.0));

  t = TailOf({3, 1, 2, 4, 5, 6, 7, 8, 9, 10});  // only 10 samples
  EXPECT(!t.defined);
  EXPECT(Near(t.value, 10.0));
  EXPECT(Near(t.percentile, 100.0));
  EXPECT(TailOf({}).samples == 0);

  EXPECT(Near(Median({3, 1, 2}), 2.0));
  EXPECT(Near(Median({4, 1, 3, 2}), 2.5));
  EXPECT(Near(Median({}), 0.0));
}

/// An in-memory server answering requests in order with a fixed
/// service time, except one request that stalls. With `blocking_send`,
/// Send waits until the server is idle — a full socket buffer — so the
/// generator itself falls behind during the stall.
class FakeServer : public Channel {
 public:
  FakeServer(double service, size_t stall_at, double stall,
             bool blocking_send)
      : service_(service),
        stall_at_(stall_at),
        stall_(stall),
        blocking_send_(blocking_send),
        worker_([this] { Work(); }) {}

  ~FakeServer() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  bool Send(std::string_view line) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (blocking_send_) {
      cv_.wait(lock, [&] { return requests_.empty() && !busy_; });
    }
    requests_.emplace_back(line);
    cv_.notify_all();
    return true;
  }

  bool Receive(std::string* reply) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !replies_.empty(); });
    *reply = replies_.front();
    replies_.pop_front();
    return true;
  }

  /// When the stalled request's reply was produced.
  Clock::time_point stall_end() const { return stall_end_; }

 private:
  void Work() {
    size_t served = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [&] { return stop_ || !requests_.empty(); });
      if (stop_) return;
      requests_.pop_front();
      busy_ = true;
      lock.unlock();
      const double pause = served == stall_at_ ? stall_ : service_;
      std::this_thread::sleep_for(std::chrono::duration<double>(pause));
      lock.lock();
      if (served == stall_at_) stall_end_ = Clock::now();
      ++served;
      busy_ = false;
      replies_.push_back("{\"ok\":true}");
      cv_.notify_all();
    }
  }

  const double service_;
  const size_t stall_at_;
  const double stall_;
  const bool blocking_send_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> requests_;
  std::deque<std::string> replies_;
  bool busy_ = false;
  bool stop_ = false;
  Clock::time_point stall_end_;
  std::thread worker_;  // last: starts after every other member
};

void TestDueTimeLatency(bool blocking_send) {
  constexpr double kEvery = 0.01;
  constexpr double kService = 0.001;
  constexpr double kStall = 0.08;
  constexpr size_t kStallAt = 2;
  std::vector<Request> schedule;
  for (size_t i = 0; i < 16; ++i) {
    schedule.push_back({0.005 + kEvery * static_cast<double>(i), "{}"});
  }
  FakeServer server(kService, kStallAt, kStall, blocking_send);
  const Clock::time_point start = Clock::now();
  std::vector<Outcome> out = RunOpenLoop(&server, schedule, start, {});
  const double stall_end = Seconds(server.stall_end() - start);
  EXPECT(out.size() == schedule.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT(out[i].ok);
    EXPECT(out[i].done >= out[i].sent);
    EXPECT(Near(out[i].latency(), out[i].done - out[i].due));
    if (i >= kStallAt && out[i].due < stall_end) {
      // Every request due while the server stalled waits for the stall
      // to end, counted from when it was due.
      EXPECT(out[i].latency() >= stall_end - out[i].due - 1e-4);
    }
  }
  EXPECT(out[kStallAt].latency() >= kStall);
  // Requests due after the stall drained are fast again.
  EXPECT(out.back().due < stall_end ||
         out.back().latency() < kStall / 2);
  double late = 0.0;
  for (const Outcome& o : out) late = std::max(late, o.late());
  if (blocking_send) {
    // The generator fell behind, and said so.
    EXPECT(late >= kStall / 2);
  } else {
    EXPECT(late < kStall / 2);
  }
}

/// Sends fail after the first `ok_sends` requests.
class BrokenChannel : public Channel {
 public:
  explicit BrokenChannel(size_t ok_sends) : left_(ok_sends) {}
  bool Send(std::string_view) override {
    if (left_ == 0) return false;
    --left_;
    ++pending_;
    return true;
  }
  bool Receive(std::string* reply) override {
    if (pending_ == 0) return false;
    --pending_;
    *reply = replies_++ % 2 == 0 ? "{\"ok\":true}"
                                 : "{\"ok\":false,\"error\":{}}";
    return true;
  }

 private:
  size_t left_;                      // sender thread only
  std::atomic<size_t> pending_{0};   // sent, not yet answered
  size_t replies_ = 0;               // receiver thread only
};

void TestFailureCounting() {
  Tally tally(/*log_failures=*/false);
  EXPECT(Near(tally.ok_frac(), 1.0));
  tally.Record(true, "a");
  tally.Record(true, "b");
  tally.Record(false, "an expected failure");
  tally.Record(true, "c");
  EXPECT(tally.attempted() == 4);
  EXPECT(tally.failed() == 1);
  EXPECT(Near(tally.ok_frac(), 0.75));

  EXPECT(IsOkReply("{\"ok\":true,\"x\":1}"));
  EXPECT(!IsOkReply("{\"ok\":false}"));
  EXPECT(!IsOkReply(""));

  // 6 requests, 4 sent, of which replies alternate ok / not ok: 2 ok,
  // 2 refused, 2 never sent — 4 failures.
  std::vector<Request> schedule(6, Request{0.0, "{}"});
  BrokenChannel channel(4);
  std::vector<Outcome> out =
      RunOpenLoop(&channel, schedule, Clock::now(), {});
  Tally wire(/*log_failures=*/false);
  for (const Outcome& o : out) wire.Record(o.ok, "wire");
  EXPECT(wire.attempted() == 6);
  EXPECT(wire.failed() == 4);
}

void TestSelfTime() {
  Tracer tracer(true, Clock::now());
  const int64_t root = tracer.Add("root", 0, 10, -1, 1);
  const int64_t a = tracer.Add("a", 1, 4, root, 1);
  tracer.Add("b", 3, 6, root, 1);         // overlaps a (parallel child)
  tracer.Add("c", 8, 12, root, 1);        // runs past the root: clipped
  tracer.Add("a.child", 2, 3, a, 1);
  tracer.Add("other", 20, 25, -1, 2);     // a second operation
  const std::vector<Span> spans = tracer.spans();
  const std::vector<double> self = SelfTimes(spans);
  EXPECT(Near(self[0], 10 - (6 - 1) - (10 - 8)));  // union [1,6]+[8,10]
  EXPECT(Near(self[1], 3 - 1));
  EXPECT(Near(self[2], 3));
  EXPECT(Near(self[3], 4));
  EXPECT(Near(self[4], 1));
  EXPECT(Near(self[5], 5));
  auto groups = GroupByName(spans);
  EXPECT(Near(groups["root"].total(), 10));
  EXPECT(Near(groups["root"].total_self(), 3));

  Tracer off(false, Clock::now());
  EXPECT(off.Begin("x", -1, 1) == -1);
  off.End(-1);
  EXPECT(off.spans().empty());
}

}  // namespace

int RunSelfTests() {
  TestTailRank();
  TestDueTimeLatency(/*blocking_send=*/false);
  TestDueTimeLatency(/*blocking_send=*/true);
  TestFailureCounting();
  TestSelfTime();
  std::fprintf(stderr, "selftest: %s (%d failed checks)\n",
               failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
