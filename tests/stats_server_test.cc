// StatsServer suite (tier1-concurrency; TSAN in CI). Two layers:
//
//  * Handle() — the socket-free routing surface: content types, bodies,
//    the /metrics vs /metrics.json same-snapshot contract, /healthz
//    flipping on the watchdog verdict, 404s.
//
//  * The real listener — an ephemeral-port server scraped over loopback
//    TCP (a hand-rolled HTTP/1.0 client below) while a MatchService
//    ingests and answers concurrently; responses must stay well-formed.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/bib_generator.h"
#include "mln/mln_matcher.h"
#include "obs/metrics.h"
#include "serve/match_service.h"
#include "serve/stats_server.h"
#include "stream/streaming_matcher.h"
#include "util/random.h"

namespace cem {
namespace {

using serve::MatchService;
using serve::StatsServer;
using serve::StatsSources;
using stream::StreamingMatcher;

// ----------------------------------------------------------------- Handle --

TEST(StatsServerHandle, MetricsIsPrometheusTextOfTheGlobalRegistry) {
  obs::MetricsRegistry::Global().counter("stats_test_handle_marker").Add(1);
  const auto server = StatsServer::Start(0);
  ASSERT_TRUE(server.ok()) << server.status().message();
  const StatsServer::Response response = (*server)->Handle("/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type,
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(response.body.find("# TYPE cem_stats_test_handle_marker_total"),
            std::string::npos);
  EXPECT_NE(response.body.find("cem_stats_test_handle_marker_total"),
            std::string::npos);
}

TEST(StatsServerHandle, MetricsJsonMatchesTheRegistrySnapshotExport) {
  obs::MetricsRegistry::Global().counter("stats_test_json_marker").Add(1);
  const auto server = StatsServer::Start(0);
  ASSERT_TRUE(server.ok());
  const StatsServer::Response response = (*server)->Handle("/metrics.json");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  // Byte-equal to the --metrics-json export of the same instant: the
  // registry is quiescent here, so a fresh snapshot renders identically.
  EXPECT_EQ(response.body, obs::MetricsRegistry::Global().Snapshot().ToJson());
}

TEST(StatsServerHandle, RefreshRunsBeforeEveryMetricsSnapshot) {
  std::atomic<int> refreshes{0};
  StatsSources sources;
  sources.refresh = [&] { refreshes.fetch_add(1); };
  const auto server = StatsServer::Start(0, sources);
  ASSERT_TRUE(server.ok());
  (void)(*server)->Handle("/metrics");
  EXPECT_EQ(refreshes.load(), 1);
  (void)(*server)->Handle("/metrics.json");
  EXPECT_EQ(refreshes.load(), 2);
  (void)(*server)->Handle("/healthz");  // Not a snapshot endpoint.
  EXPECT_EQ(refreshes.load(), 2);
}

TEST(StatsServerHandle, SlowlogAndHealthzReadTheirSources) {
  std::atomic<bool> healthy{true};
  StatsSources sources;
  sources.slowlog_json = [] { return std::string("[{\"query_id\": 9}]\n"); };
  sources.healthy = [&] { return healthy.load(); };
  const auto server = StatsServer::Start(0, sources);
  ASSERT_TRUE(server.ok());

  const StatsServer::Response slowlog = (*server)->Handle("/slowlog.json");
  EXPECT_EQ(slowlog.status, 200);
  EXPECT_EQ(slowlog.content_type, "application/json");
  EXPECT_EQ(slowlog.body, "[{\"query_id\": 9}]\n");

  EXPECT_EQ((*server)->Handle("/healthz").status, 200);
  EXPECT_EQ((*server)->Handle("/healthz").body, "ok\n");
  healthy.store(false);
  const StatsServer::Response sick = (*server)->Handle("/healthz");
  EXPECT_EQ(sick.status, 503);
  EXPECT_EQ(sick.body, "stalled\n");
}

TEST(StatsServerHandle, DefaultSourcesAreHealthyAndEmpty) {
  const auto server = StatsServer::Start(0);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->Handle("/healthz").status, 200);
  const StatsServer::Response slowlog = (*server)->Handle("/slowlog.json");
  EXPECT_EQ(slowlog.status, 200);
  EXPECT_EQ(slowlog.body.front(), '[');
}

TEST(StatsServerHandle, UnknownPathsAre404) {
  const auto server = StatsServer::Start(0);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->Handle("/").status, 404);
  EXPECT_EQ((*server)->Handle("/metrics2").status, 404);
  EXPECT_EQ((*server)->Handle("").status, 404);
}

// --------------------------------------------------------- Real listener --

/// Minimal HTTP/1.0 GET over loopback: sends the request, drains the
/// response until the server closes (close-per-response protocol).
std::string HttpGet(uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

TEST(StatsServerSocket, ServesAllEndpointsOverLoopback) {
  obs::MetricsRegistry::Global().counter("stats_test_socket_marker").Add(1);
  const auto server = StatsServer::Start(0);
  ASSERT_TRUE(server.ok()) << server.status().message();
  ASSERT_NE((*server)->port(), 0);

  const std::string metrics = HttpGet((*server)->port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("Content-Length: "), std::string::npos);
  EXPECT_NE(metrics.find("cem_stats_test_socket_marker_total"),
            std::string::npos);

  const std::string json = HttpGet((*server)->port(), "/metrics.json");
  EXPECT_NE(json.find("HTTP/1.0 200"), std::string::npos);
  const std::string body = BodyOf(json);
  EXPECT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');

  // A query string routes like the bare path.
  const std::string with_query =
      HttpGet((*server)->port(), "/healthz?probe=1");
  EXPECT_NE(with_query.find("HTTP/1.0 200"), std::string::npos) << with_query;
  EXPECT_EQ(BodyOf(with_query), "ok\n");

  EXPECT_NE(HttpGet((*server)->port(), "/nope").find("HTTP/1.0 404"),
            std::string::npos);
}

TEST(StatsServerSocket, HeadSplitAcrossSegmentsClosesWithoutReset) {
  // The blank line that ends the request head arrives as its own segment
  // right behind the request line, as a shell's printf sends it. A byte
  // the server leaves unread makes its close() reset the connection, which
  // fails the client's read and can drop the response.
  const auto server = StatsServer::Start(0);
  ASSERT_TRUE(server.ok()) << server.status().message();
  for (int attempt = 0; attempt < 50; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons((*server)->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << std::strerror(errno);
    const std::string line = "GET /metrics HTTP/1.0\r\n";
    ASSERT_EQ(::send(fd, line.data(), line.size(), 0),
              static_cast<ssize_t>(line.size()));
    ASSERT_EQ(::send(fd, "\r\n", 2, 0), 2);
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      response.append(buf, static_cast<size_t>(n));
    }
    const int read_errno = errno;
    ::close(fd);
    EXPECT_EQ(n, 0) << "attempt " << attempt << ": the read ended in "
                    << std::strerror(read_errno);
    EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  }
}

TEST(StatsServerSocket, ScrapesStayWellFormedDuringConcurrentIngest) {
  // The TSAN target: a scraper hammers the live endpoints while the
  // service ingests chunks and a reader issues lookups — the wiring
  // dedup_tool --serve --stats-port runs. Every response must be a
  // complete HTTP/1.0 answer with the declared body.
  data::BibConfig config = data::BibConfig::DblpLike(0.05);
  config.seed = 47;
  const auto dataset = data::GenerateBibDataset(config);
  const mln::MlnMatcher matcher(*dataset);
  std::vector<data::EntityId> refs = dataset->author_refs();
  Rng rng(9);
  rng.Shuffle(refs);
  StreamingMatcher streaming(matcher);
  MatchService service(streaming);

  StatsSources sources;
  sources.refresh = [&] { service.PublishWindowGauges(); };
  sources.slowlog_json = [&] { return service.slow_query_log().ToJson(); };
  const auto server = StatsServer::Start(0, sources);
  ASSERT_TRUE(server.ok()) << server.status().message();
  const uint16_t port = (*server)->port();

  std::atomic<bool> done{false};
  std::atomic<size_t> bad_responses{0};
  std::thread scraper([&] {
    const char* targets[] = {"/metrics", "/metrics.json", "/slowlog.json",
                             "/healthz"};
    size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::string response = HttpGet(port, targets[i++ % 4]);
      if (response.find("HTTP/1.0 200") == std::string::npos ||
          response.find("\r\n\r\n") == std::string::npos) {
        bad_responses.fetch_add(1);
      }
    }
  });
  std::thread reader([&] {
    size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (i % 16 == 15) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      (void)service.Lookup({refs[i++ % refs.size()]});
    }
  });
  const size_t chunk = 8;
  for (size_t start = 0; start < refs.size(); start += chunk) {
    const size_t end = std::min(refs.size(), start + chunk);
    ASSERT_TRUE(
        service.IngestBatch({refs.begin() + start, refs.begin() + end}).ok());
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  reader.join();
  EXPECT_EQ(bad_responses.load(), 0u);

  // After quiescing, the JSON endpoint still matches the direct export.
  const std::string body = BodyOf(HttpGet(port, "/metrics.json"));
  EXPECT_EQ(body, obs::MetricsRegistry::Global().Snapshot().ToJson());
}

}  // namespace
}  // namespace cem
