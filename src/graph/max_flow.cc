#include "graph/max_flow.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "util/logging.h"

namespace cem::graph {

MaxFlow::MaxFlow(int num_nodes) : adjacency_(num_nodes) {
  CEM_CHECK(num_nodes >= 2);
}

int MaxFlow::AddEdge(int u, int v, double cap, double rev_cap) {
  CEM_CHECK(!solved_) << "AddEdge after Solve";
  CEM_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  CEM_CHECK(cap >= 0.0 && rev_cap >= 0.0);
  adjacency_[u].push_back(
      {v, cap, static_cast<int>(adjacency_[v].size())});
  adjacency_[v].push_back(
      {u, rev_cap, static_cast<int>(adjacency_[u].size()) - 1});
  return static_cast<int>(adjacency_[u].size()) - 1;
}

bool MaxFlow::Bfs(int source, int sink) {
  level_.assign(num_nodes(), -1);
  std::deque<int> queue{source};
  level_[source] = 0;
  while (!queue.empty()) {
    int u = queue.front();
    queue.pop_front();
    for (const Edge& e : adjacency_[u]) {
      if (e.cap > kCapacityEps && level_[e.to] < 0) {
        level_[e.to] = level_[u] + 1;
        queue.push_back(e.to);
      }
    }
  }
  return level_[sink] >= 0;
}

double MaxFlow::Dfs(int node, int sink, double pushed) {
  if (node == sink) return pushed;
  for (size_t& i = iter_[node]; i < adjacency_[node].size(); ++i) {
    Edge& e = adjacency_[node][i];
    if (e.cap <= kCapacityEps || level_[e.to] != level_[node] + 1) continue;
    double got = Dfs(e.to, sink, std::min(pushed, e.cap));
    if (got > kCapacityEps) {
      e.cap -= got;
      adjacency_[e.to][e.reverse].cap += got;
      return got;
    }
  }
  return 0.0;
}

double MaxFlow::Solve(int source, int sink) {
  CEM_CHECK(!solved_) << "Solve called twice";
  CEM_CHECK(source != sink);
  source_ = source;
  sink_ = sink;
  double flow = 0.0;
  while (Bfs(source, sink)) {
    iter_.assign(num_nodes(), 0);
    while (true) {
      double pushed =
          Dfs(source, sink, std::numeric_limits<double>::infinity());
      if (pushed <= kCapacityEps) break;
      flow += pushed;
    }
  }
  solved_ = true;
  return flow;
}

std::vector<bool> MaxFlow::SourceSideMinCut() const {
  CEM_CHECK(solved_) << "SourceSideMinCut before Solve";
  std::vector<bool> reachable(num_nodes(), false);
  std::deque<int> queue{source_};
  reachable[source_] = true;
  while (!queue.empty()) {
    int u = queue.front();
    queue.pop_front();
    for (const Edge& e : adjacency_[u]) {
      if (e.cap > kCapacityEps && !reachable[e.to]) {
        reachable[e.to] = true;
        queue.push_back(e.to);
      }
    }
  }
  return reachable;
}

std::vector<bool> MaxFlow::SinkUnreachableSet() const {
  CEM_CHECK(solved_) << "SinkUnreachableSet before Solve";
  // Reverse reachability: v can reach sink iff some residual edge v->u
  // exists with u able to reach the sink. A residual edge v->u with
  // positive capacity appears in adjacency_[v]; we need the reverse
  // traversal, so we scan incoming residual edges via the paired entries.
  std::vector<bool> reaches_sink(num_nodes(), false);
  std::deque<int> queue{sink_};
  reaches_sink[sink_] = true;
  while (!queue.empty()) {
    int u = queue.front();
    queue.pop_front();
    // Every edge stored at u has a paired reverse edge at e.to; the
    // capacity of the edge (e.to -> u) is adjacency_[e.to][e.reverse].cap.
    for (const Edge& e : adjacency_[u]) {
      const Edge& incoming = adjacency_[e.to][e.reverse];
      if (incoming.cap > kCapacityEps && !reaches_sink[e.to]) {
        reaches_sink[e.to] = true;
        queue.push_back(e.to);
      }
    }
  }
  std::vector<bool> unreachable(num_nodes());
  for (int v = 0; v < num_nodes(); ++v) unreachable[v] = !reaches_sink[v];
  return unreachable;
}

}  // namespace cem::graph
