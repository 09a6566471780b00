#include "pacing.h"

#include <condition_variable>
#include <mutex>
#include <thread>

namespace perfbench {

bool IsOkReply(std::string_view reply) {
  return reply.starts_with("{\"ok\":true");
}

std::vector<Outcome> RunOpenLoop(
    Channel* channel, const std::vector<Request>& schedule,
    Clock::time_point start,
    const std::function<void(size_t, const std::string&)>& on_reply) {
  std::vector<Outcome> outcomes(schedule.size());
  std::mutex mu;
  std::condition_variable cv;
  size_t sent = 0;      // requests handed to the channel so far
  bool gave_up = false;  // the sender stopped early on a send failure

  std::thread sender([&] {
    for (size_t i = 0; i < schedule.size(); ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       schedule[i].due));
      std::this_thread::sleep_until(due);
      outcomes[i].due = schedule[i].due;
      outcomes[i].sent = Seconds(Clock::now() - start);
      const bool ok = channel->Send(schedule[i].line);
      std::lock_guard<std::mutex> lock(mu);
      if (!ok) {
        gave_up = true;
        break;
      }
      sent = i + 1;
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    gave_up = true;
    cv.notify_one();
  });

  std::string reply;
  for (size_t i = 0; i < schedule.size(); ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return sent > i || gave_up; });
      if (sent <= i) break;  // never sent
    }
    if (!channel->Receive(&reply)) break;
    Outcome& o = outcomes[i];
    o.done = Seconds(Clock::now() - start);
    o.ok = IsOkReply(reply);
    o.reply_bytes = reply.size();
    if (on_reply) on_reply(i, reply);
  }
  sender.join();
  return outcomes;
}

}  // namespace perfbench
