#include "serve/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/expo.h"
#include "obs/metrics.h"

namespace cem::serve {
namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

/// Blocking full write (the response is small; EINTR retried).
void WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // Peer gone; nothing useful to do on a stats socket.
    }
    off += static_cast<size_t>(n);
  }
}

}  // namespace

Result<std::unique_ptr<StatsServer>> StatsServer::Start(uint16_t port,
                                                        StatsSources sources) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError(std::string("stats socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return InternalError("stats bind 127.0.0.1:" + std::to_string(port) +
                         ": " + err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return InternalError("stats listen: " + err);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return InternalError("stats getsockname: " + err);
  }
  return std::unique_ptr<StatsServer>(
      new StatsServer(fd, ntohs(addr.sin_port), std::move(sources)));
}

StatsServer::StatsServer(int listen_fd, uint16_t port, StatsSources sources)
    : listen_fd_(listen_fd), port_(port), sources_(std::move(sources)) {
  thread_ = std::thread([this] { AcceptLoop(); });
}

StatsServer::~StatsServer() {
  stopping_.store(true, std::memory_order_release);
  // Shutting the listening socket down makes the blocked accept() return
  // immediately (EINVAL on Linux) — the portable no-self-pipe wakeup.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
}

StatsServer::Response StatsServer::Handle(std::string_view path) const {
  Response response;
  if (path == "/metrics" || path == "/metrics.json") {
    if (sources_.refresh) sources_.refresh();
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    if (path == "/metrics") {
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = obs::RenderMetricsPrometheus(snapshot);
    } else {
      response.content_type = "application/json";
      response.body = snapshot.ToJson();
    }
    return response;
  }
  if (path == "/slowlog.json") {
    response.content_type = "application/json";
    response.body =
        sources_.slowlog_json ? sources_.slowlog_json() : std::string("[]\n");
    return response;
  }
  if (path == "/healthz") {
    const bool healthy = !sources_.healthy || sources_.healthy();
    response.status = healthy ? 200 : 503;
    response.body = healthy ? "ok\n" : "stalled\n";
    return response;
  }
  response.status = 404;
  response.body = "not found\n";
  return response;
}

void StatsServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown() at destruction (or a dead listener): leave the loop.
      break;
    }
    // A stuck client must not wedge the single accept thread forever.
    timeval timeout{};
    timeout.tv_sec = 2;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    ServeConnection(fd);
    ::close(fd);
  }
}

void StatsServer::ServeConnection(int fd) const {
  // Only the request line matters: "GET <path> HTTP/1.x". The whole head
  // is read, through the blank line that ends it (headers are ignored): a
  // byte still unread at close() makes the kernel reset the connection,
  // and the client can lose the response.
  char buf[2048];
  size_t have = 0;
  while (have < sizeof(buf) - 1) {
    const ssize_t n = ::recv(fd, buf + have, sizeof(buf) - 1 - have, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (have == 0) return;  // Nothing readable; drop the connection.
      break;
    }
    have += static_cast<size_t>(n);
    const std::string_view head(buf, have);
    if (head.find("\r\n\r\n") != std::string_view::npos ||
        head.find("\n\n") != std::string_view::npos) {
      break;
    }
  }
  buf[have] = '\0';
  std::string_view request(buf, have);
  request = request.substr(0, request.find_first_of("\r\n"));

  Response response;
  if (request.substr(0, 4) != "GET ") {
    response.status = 405;
    response.body = "only GET\n";
  } else {
    std::string_view path = request.substr(4);
    path = path.substr(0, path.find(' '));
    // Query strings are accepted and ignored (scrapers add cache busters).
    path = path.substr(0, path.find('?'));
    response = Handle(path);
  }

  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.0 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                response.status, StatusText(response.status),
                response.content_type.c_str(), response.body.size());
  WriteAll(fd, std::string(header) + response.body);
}

}  // namespace cem::serve
