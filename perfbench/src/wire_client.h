#ifndef PERFBENCH_WIRE_CLIENT_H_
#define PERFBENCH_WIRE_CLIENT_H_

// A client connection to copydetectd's newline-delimited JSON protocol
// over an AF_UNIX stream socket.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pacing.h"

namespace perfbench {

class SocketChannel : public Channel {
 public:
  /// Connects to `socket_path`; null (with a message on stderr) on
  /// failure.
  static std::unique_ptr<SocketChannel> Connect(
      const std::string& socket_path);
  ~SocketChannel() override;
  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  bool Send(std::string_view line) override;
  bool Receive(std::string* reply) override;

  /// Send + Receive, for closed-loop calls. "" on failure.
  std::string Call(std::string_view line);

 private:
  explicit SocketChannel(int fd) : fd_(fd), chunk_(1 << 20) {}

  int fd_;
  std::string buffer_;  // bytes read past the last returned line
  /// recv() target. Large, so a big reply drains in few wake-ups.
  std::vector<char> chunk_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_CLIENT_H_
