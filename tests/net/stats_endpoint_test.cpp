// Live stats endpoint: a ClashNode configured with stats_port serves
// its metrics registry as Prometheus text exposition over plain HTTP,
// and the document round-trips through obs::parse_exposition — the
// same parser the registry tests use.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <set>
#include <string>

#include "net/node.hpp"
#include "obs/expose.hpp"

namespace clash::net {
namespace {

NodeConfig single_node_config() {
  NodeConfig cfg;
  cfg.id = ServerId{0};
  cfg.listen = Endpoint{"127.0.0.1", 0};
  cfg.members[cfg.id] = cfg.listen;
  cfg.clash.key_width = 16;
  cfg.clash.initial_depth = 2;
  cfg.enable_membership = false;  // one node, nothing to gossip with
  cfg.stats_port = 0;             // auto-pick
  return cfg;
}

/// Blocking HTTP/1.0 GET against the stats endpoint; returns the full
/// wire response (headers + body) or fails the test.
std::string http_get(std::uint16_t port, const std::string& path = "/metrics") {
  auto fd = connect_tcp(Endpoint{"127.0.0.1", port});
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return {};
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd.value().get(), request.data() + sent,
                             request.size() - sent, 0);
    EXPECT_GT(n, 0);
    if (n <= 0) return {};
    sent += std::size_t(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd.value().get(), buf, sizeof(buf), 0);
    if (n <= 0) break;  // Connection: close terminates the document
    response.append(buf, std::size_t(n));
  }
  return response;
}

/// Splits a response into (status+headers, body) at the blank line.
std::pair<std::string, std::string> split_http(const std::string& resp) {
  const std::size_t gap = resp.find("\r\n\r\n");
  if (gap == std::string::npos) return {resp, ""};
  return {resp.substr(0, gap), resp.substr(gap + 4)};
}

TEST(StatsEndpoint, ServesRegistryAsParsableExposition) {
  ClashNode node(single_node_config());
  node.start();
  ASSERT_NE(node.stats_port(), 0);

  const std::string response = http_get(node.stats_port());
  const auto [headers, body] = split_http(response);

  EXPECT_NE(headers.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(headers.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(headers.find("Connection: close"), std::string::npos);
  const std::size_t cl = headers.find("Content-Length: ");
  ASSERT_NE(cl, std::string::npos);
  EXPECT_EQ(std::stoul(headers.substr(cl + 16)), body.size());

  // The acceptance round trip: the served document parses with the
  // registry tests' parser and carries every node-level series.
  const auto parsed = obs::parse_exposition(body);
  ASSERT_FALSE(parsed.empty());
  ASSERT_TRUE(parsed.count("clash_node_ring_servers"));
  EXPECT_EQ(parsed.at("clash_node_ring_servers"), 1.0);
  ASSERT_TRUE(parsed.count("clash_node_peer_connections"));
  EXPECT_EQ(parsed.at("clash_node_peer_connections"), 0.0);
  EXPECT_TRUE(parsed.count("clash_node_active_groups"));
  EXPECT_TRUE(parsed.count("clash_loop_tick_usec_count"));
  // One X-macro'd MessageStats field, spot-checked by name.
  EXPECT_TRUE(parsed.count("clash_msgs_splits"));

  // The HTTP document and the in-process scrape expose the same series
  // (values may differ between scrapes — the loop keeps ticking).
  const auto direct = obs::parse_exposition(node.scrape_text());
  std::set<std::string> http_names;
  std::set<std::string> direct_names;
  for (const auto& [name, value] : parsed) http_names.insert(name);
  for (const auto& [name, value] : direct) direct_names.insert(name);
  EXPECT_EQ(http_names, direct_names);

  node.stop();
}

TEST(StatsEndpoint, ServesRepeatedAndPipelinedClients) {
  ClashNode node(single_node_config());
  node.start();
  ASSERT_NE(node.stats_port(), 0);

  // Sequential scrapes each get a complete document.
  for (int i = 0; i < 3; ++i) {
    const auto [headers, body] = split_http(http_get(node.stats_port()));
    EXPECT_NE(headers.find("200 OK"), std::string::npos);
    EXPECT_FALSE(obs::parse_exposition(body).empty());
  }

  // Two clients connected at once; both served off the single loop.
  auto a = connect_tcp(Endpoint{"127.0.0.1", node.stats_port()});
  auto b = connect_tcp(Endpoint{"127.0.0.1", node.stats_port()});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(b.value().get(), req.data(), req.size(), 0),
            ssize_t(req.size()));
  ASSERT_EQ(::send(a.value().get(), req.data(), req.size(), 0),
            ssize_t(req.size()));
  for (auto* fd : {&a, &b}) {
    std::string resp;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd->value().get(), buf, sizeof(buf), 0);
      if (n <= 0) break;
      resp.append(buf, std::size_t(n));
    }
    const auto [headers, body] = split_http(resp);
    EXPECT_NE(headers.find("200 OK"), std::string::npos);
    EXPECT_FALSE(obs::parse_exposition(body).empty());
  }

  node.stop();
}

TEST(StatsEndpoint, ServesClusterGaugesFromTheCensus) {
  // Membership on (self-only): the driver's tick refreshes the local
  // census record, so the clash_cluster_* gauges fold a one-node view.
  NodeConfig cfg = single_node_config();
  cfg.enable_membership = true;
  cfg.protocol_period = std::chrono::milliseconds(20);
  ClashNode node(cfg);
  node.start();
  ASSERT_NE(node.stats_port(), 0);

  // Wait for the first census refresh to land (loop-thread tick).
  for (int i = 0; i < 200 && node.cluster_view().nodes.empty(); ++i) {
    usleep(10'000);
  }
  ASSERT_EQ(node.cluster_view().nodes.size(), 1u);

  const auto [headers, body] = split_http(http_get(node.stats_port()));
  EXPECT_NE(headers.find("200 OK"), std::string::npos);
  const auto parsed = obs::parse_exposition(body);
  ASSERT_TRUE(parsed.count("clash_cluster_nodes"));
  EXPECT_EQ(parsed.at("clash_cluster_nodes"), 1.0);
  EXPECT_TRUE(parsed.count("clash_cluster_total_load"));
  EXPECT_TRUE(parsed.count("clash_cluster_active_groups"));
  EXPECT_TRUE(parsed.count("clash_cluster_census_age_periods"));
  EXPECT_TRUE(parsed.count("clash_census_absorbed"));

  node.stop();
}

TEST(StatsEndpoint, ServesTraceAndHealthzDocuments) {
  NodeConfig cfg = single_node_config();
  cfg.enable_membership = true;
  cfg.protocol_period = std::chrono::milliseconds(20);
  ClashNode node(cfg);
  node.start();
  ASSERT_NE(node.stats_port(), 0);
  for (int i = 0; i < 200 && node.cluster_view().nodes.empty(); ++i) {
    usleep(10'000);
  }

  // /trace serves a Chrome trace_event document (possibly empty).
  const auto [trace_headers, trace_body] =
      split_http(http_get(node.stats_port(), "/trace"));
  EXPECT_NE(trace_headers.find("200 OK"), std::string::npos);
  EXPECT_NE(trace_headers.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(trace_body.find("\"traceEvents\""), std::string::npos);

  // /healthz reports ring size and census freshness as JSON.
  const auto [hz_headers, hz_body] =
      split_http(http_get(node.stats_port(), "/healthz"));
  EXPECT_NE(hz_headers.find("200 OK"), std::string::npos);
  EXPECT_NE(hz_headers.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(hz_body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(hz_body.find("\"ring_servers\":1"), std::string::npos);
  EXPECT_NE(hz_body.find("\"census_nodes\":1"), std::string::npos);
  EXPECT_NE(hz_body.find("\"census_max_age_periods\""), std::string::npos);

  // The default path still serves the metrics document.
  const auto [m_headers, m_body] = split_http(http_get(node.stats_port()));
  EXPECT_NE(m_headers.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_FALSE(obs::parse_exposition(m_body).empty());

  node.stop();
}

TEST(StatsEndpoint, TraceTimestampsShareTheNodeClock) {
  NodeConfig cfg = single_node_config();
  cfg.watchdog.tick_budget_us = 2'000;
  ClashNode node(cfg);
  node.hub().tracer.set_enabled(true);
  node.start();
  ASSERT_NE(node.stats_port(), 0);
  // One loop round far past the budget lands a slow-tick event; every
  // other event the node records is stamped on its own epoch, and the
  // slow tick must be too.
  (void)node.run_on_loop([](ClashServer&) {
    usleep(20'000);
    return true;
  });

  const auto [trace_headers, trace_body] =
      split_http(http_get(node.stats_port(), "/trace"));
  const auto [fr_headers, fr_body] =
      split_http(http_get(node.stats_port(), "/flightrec"));
  const std::size_t now_at = fr_body.find("\"now_us\":");
  ASSERT_NE(now_at, std::string::npos);
  const long long now_us = std::stoll(fr_body.substr(now_at + 9));

  EXPECT_NE(trace_body.find("\"name\":\"loop_tick\""), std::string::npos)
      << trace_body;
  std::size_t events = 0;
  for (std::size_t at = trace_body.find("\"ts\":"); at != std::string::npos;
       at = trace_body.find("\"ts\":", at + 1)) {
    const long long ts = std::stoll(trace_body.substr(at + 5));
    EXPECT_GE(ts, 0);
    EXPECT_LE(ts, now_us) << trace_body;
    ++events;
  }
  EXPECT_GT(events, 0u);
  node.stop();
}

TEST(StatsEndpoint, ServesTheFlightrecDocument) {
  ClashNode node(single_node_config());
  node.start();
  ASSERT_NE(node.stats_port(), 0);

  // /flightrec serves the live black box: the flight-event ring and
  // the in-flight op table, in the same shape a postmortem dump would
  // carry for this node.
  const auto [headers, body] =
      split_http(http_get(node.stats_port(), "/flightrec"));
  EXPECT_NE(headers.find("200 OK"), std::string::npos);
  EXPECT_NE(headers.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(body.find("\"node\":0"), std::string::npos);
  EXPECT_NE(body.find("\"now_us\":"), std::string::npos);
  EXPECT_NE(body.find("\"schema\":\"clash-flightrec-v1\""),
            std::string::npos);
  EXPECT_NE(body.find("\"schema\":\"clash-inflight-v1\""),
            std::string::npos);
  // Balanced braces: the concatenated document stays one JSON value.
  EXPECT_EQ(std::count(body.begin(), body.end(), '{'),
            std::count(body.begin(), body.end(), '}'));

  node.stop();
}

TEST(StatsEndpoint, DisabledByDefault) {
  NodeConfig cfg = single_node_config();
  cfg.stats_port = -1;
  ClashNode node(cfg);
  node.start();
  EXPECT_EQ(node.stats_port(), 0);
  node.stop();
}

}  // namespace
}  // namespace clash::net
