#include "wire_client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace perfbench {

std::unique_ptr<SocketChannel> SocketChannel::Connect(
    const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "perfbench: socket path too long: %s\n",
                 socket_path.c_str());
    return nullptr;
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.data(), socket_path.size());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    std::fprintf(stderr, "perfbench: connect %s: %s\n",
                 socket_path.c_str(), std::strerror(errno));
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<SocketChannel>(new SocketChannel(fd));
}

SocketChannel::~SocketChannel() { ::close(fd_); }

bool SocketChannel::Send(std::string_view line) {
  std::string framed(line);
  framed.push_back('\n');
  size_t off = 0;
  while (off < framed.size()) {
    ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool SocketChannel::Receive(std::string* reply) {
  size_t scanned = 0;
  while (true) {
    size_t eol = buffer_.find('\n', scanned);
    if (eol != std::string::npos) {
      reply->assign(buffer_, 0, eol);
      buffer_.erase(0, eol + 1);
      return true;
    }
    scanned = buffer_.size();
    ssize_t n = ::recv(fd_, chunk_.data(), chunk_.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk_.data(), static_cast<size_t>(n));
  }
}

std::string SocketChannel::Call(std::string_view line) {
  std::string reply;
  if (!Send(line) || !Receive(&reply)) return "";
  return reply;
}

}  // namespace perfbench
