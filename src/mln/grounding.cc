#include "mln/grounding.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"

namespace cem::mln {

PairGraph PairGraph::Build(const data::Dataset& dataset) {
  PairGraph graph;
  graph.nodes_.resize(dataset.num_candidate_pairs());
  // e2's coauthors, marked for the pair being grounded and cleared before
  // the next one.
  std::vector<uint8_t> co_b_marks(dataset.num_entities(), 0);
  for (data::PairId id = 0; id < dataset.num_candidate_pairs(); ++id) {
    Node& node = graph.nodes_[id];
    const data::CandidatePair& cp = dataset.candidate_pair(id);
    node.pair = cp.pair;
    node.level = cp.level;

    const std::vector<data::EntityId>& co_a = dataset.Coauthors(cp.pair.a);
    const std::vector<data::EntityId>& co_b = dataset.Coauthors(cp.pair.b);

    // Reflexive groundings: shared coauthors (both lists are sorted).
    std::set_intersection(co_a.begin(), co_a.end(), co_b.begin(), co_b.end(),
                          std::back_inserter(node.shared_coauthors));

    // Link groundings: q = (c, d), c from e1's coauthors, d from e2's —
    // the candidate pairs of each c whose other end is marked. c == d is
    // never such a pair (that reflexive case is handled above); p itself
    // is one when e1 and e2 coauthored, and is skipped.
    for (data::EntityId d : co_b) co_b_marks[d] = 1;
    for (data::EntityId c : co_a) {
      for (data::PairId q : dataset.PairsOfEntity(c)) {
        const data::EntityPair qp = dataset.candidate_pair(q).pair;
        const data::EntityId d = qp.a == c ? qp.b : qp.a;
        if (co_b_marks[d] != 0 && q != id) node.links.push_back(q);
      }
    }
    for (data::EntityId d : co_b) co_b_marks[d] = 0;
    std::sort(node.links.begin(), node.links.end());
    node.links.erase(std::unique(node.links.begin(), node.links.end()),
                     node.links.end());
  }
  // Count unordered links once; also sanity-check symmetry.
  size_t directed = 0;
  for (const Node& node : graph.nodes_) directed += node.links.size();
  CEM_CHECK(directed % 2 == 0) << "link relation must be symmetric";
  graph.num_links_ = directed / 2;
  return graph;
}

double PairGraph::GlobalTheta(data::PairId id,
                              const MlnWeights& weights) const {
  const Node& node = nodes_[id];
  return weights.SimWeight(node.level) +
         weights.w_coauthor * static_cast<double>(node.shared_coauthors.size());
}

}  // namespace cem::mln
