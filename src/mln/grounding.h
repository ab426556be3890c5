#ifndef CEM_MLN_GROUNDING_H_
#define CEM_MLN_GROUNDING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "mln/mln_program.h"

namespace cem::mln {

/// The ground Markov network of the Appendix-B MLN over a Dataset's
/// candidate pairs, built once and shared by every neighborhood run.
///
/// Each candidate pair p carries:
///  * its similarity level (unary weight w_sim[level]);
///  * `shared_coauthors` — entities c with coauthor(e1,c) ∧ coauthor(e2,c);
///    each contributes a reflexive coauthor-rule grounding (+w_coauthor
///    when p is matched), provided c is inside the neighborhood;
///  * `links` — other candidate pairs q = (c1,c2) with coauthor(e1,c1) ∧
///    coauthor(e2,c2) (or crossed); the link contributes +w_coauthor when
///    both p and q are matched, provided q's endpoints are inside the
///    neighborhood.
///
/// A neighborhood run induces the sub-network by membership filtering
/// (Section 4's R(C) semantics): all four entities of a link, or the shared
/// coauthor, must lie inside C.
class PairGraph {
 public:
  struct Node {
    data::EntityPair pair;
    text::SimilarityLevel level = text::SimilarityLevel::kNone;
    /// Shared coauthors of the two references (sorted).
    std::vector<data::EntityId> shared_coauthors;
    /// Candidate pairs linked by the coauthor rule (sorted, no self, no
    /// duplicates).
    std::vector<data::PairId> links;
  };

  /// Builds the ground network for `dataset`'s candidate pairs. Per pair
  /// (e1, e2), linear in e2's coauthors plus the candidate pairs of e1's
  /// coauthors — near-linear for bounded degrees.
  static PairGraph Build(const data::Dataset& dataset);

  const Node& node(data::PairId id) const { return nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Global (whole-dataset) unary weight of pair `id`: similarity rule +
  /// one reflexive grounding per shared coauthor.
  double GlobalTheta(data::PairId id, const MlnWeights& weights) const;

  /// Total number of link groundings (each unordered link counted once).
  size_t num_links() const { return num_links_; }

 private:
  std::vector<Node> nodes_;
  size_t num_links_ = 0;
};

}  // namespace cem::mln

#endif  // CEM_MLN_GROUNDING_H_
