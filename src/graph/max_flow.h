#ifndef CEM_GRAPH_MAX_FLOW_H_
#define CEM_GRAPH_MAX_FLOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cem::graph {

/// Residual capacities at or below this count as exhausted, so
/// floating-point residue never opens a phantom augmenting path.
/// SinkUnreachableSet applies the same test: a node whose only edge goes to
/// the sink with capacity c reaches the sink iff c > kCapacityEps.
/// mln::SolveInducedMap decides variables it keeps out of the network by it.
inline constexpr double kCapacityEps = 1e-12;

/// Dinic max-flow over a directed graph with double capacities.
///
/// This is the exact-MAP substrate for the MLN matcher: the Appendix-B MLN
/// grounds to a pairwise-submodular binary energy, whose minimiser is an
/// s-t min-cut (Kolmogorov & Zabih [11] in the paper's references).
///
/// Because the optimal assignments of a submodular energy form a lattice,
/// there is a unique minimal and a unique maximal optimal assignment;
/// `SourceSideMinCut` / `SinkUnreachableSet` expose both so callers can
/// implement the Type-II tie-break "prefer the largest most-likely set"
/// (Section 3.2 of the paper).
class MaxFlow {
 public:
  /// Creates a flow network with `num_nodes` nodes and no edges.
  explicit MaxFlow(int num_nodes);

  /// Adds a directed edge u->v with capacity `cap` (and a residual reverse
  /// edge of capacity `rev_cap`, default 0). Returns the edge index.
  int AddEdge(int u, int v, double cap, double rev_cap = 0.0);

  /// Computes the max flow from `source` to `sink`. May be called once.
  double Solve(int source, int sink);

  /// After Solve: nodes reachable from the source in the residual graph.
  /// This is the source side of the *minimal* min-cut.
  std::vector<bool> SourceSideMinCut() const;

  /// After Solve: nodes that cannot reach the sink in the residual graph.
  /// This is the source side of the *maximal* min-cut (superset of the
  /// minimal one). Contains the source, never the sink.
  std::vector<bool> SinkUnreachableSet() const;

  int num_nodes() const { return static_cast<int>(adjacency_.size()); }

 private:
  struct Edge {
    int to;
    double cap;   // Remaining capacity.
    int reverse;  // Index of the reverse edge in adjacency_[to].
  };

  bool Bfs(int source, int sink);
  double Dfs(int node, int sink, double pushed);

  std::vector<std::vector<Edge>> adjacency_;
  std::vector<int> level_;
  std::vector<size_t> iter_;
  int source_ = -1;
  int sink_ = -1;
  bool solved_ = false;
};

}  // namespace cem::graph

#endif  // CEM_GRAPH_MAX_FLOW_H_
