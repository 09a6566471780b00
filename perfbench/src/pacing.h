#ifndef PERFBENCH_PACING_H_
#define PERFBENCH_PACING_H_

// The open-loop request generator: requests go out on a fixed
// schedule whether or not earlier replies have arrived, and every
// latency is measured from the request's due time, so a stall is
// charged to every request that was due while it lasted.

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace perfbench {

/// One ordered request/reply stream (a connection).
class Channel {
 public:
  virtual ~Channel() = default;
  /// Sends one request line (no trailing newline). False on failure.
  virtual bool Send(std::string_view line) = 0;
  /// Blocks for the next reply line, in request order. False on
  /// failure.
  virtual bool Receive(std::string* reply) = 0;
};

struct Request {
  double due = 0.0;  ///< seconds after the stream's start
  std::string line;
};

struct Outcome {
  double due = 0.0;   ///< seconds after the stream's start
  double sent = 0.0;  ///< when the line was handed to the channel
  double done = 0.0;  ///< when its reply had been read
  bool ok = false;    ///< replied, and the reply is {"ok":true,...}
  size_t reply_bytes = 0;

  double latency() const { return done - due; }
  double late() const { return sent - due; }
};

/// True for a wire reply that starts {"ok":true.
bool IsOkReply(std::string_view reply);

/// Runs `schedule` (sorted by due time) on `channel`: a sender thread
/// sleeps until each request is due and sends it without waiting for
/// replies, while the calling thread reads the replies in order and
/// hands each to `on_reply` (may be empty). Returns one Outcome per
/// request; requests that were never sent or answered are not ok.
std::vector<Outcome> RunOpenLoop(
    Channel* channel, const std::vector<Request>& schedule,
    Clock::time_point start,
    const std::function<void(size_t, const std::string&)>& on_reply);

}  // namespace perfbench

#endif  // PERFBENCH_PACING_H_
