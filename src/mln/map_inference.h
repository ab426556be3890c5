#ifndef CEM_MLN_MAP_INFERENCE_H_
#define CEM_MLN_MAP_INFERENCE_H_

#include <cstddef>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/match_set.h"
#include "data/dataset.h"
#include "mln/grounding.h"
#include "mln/mln_program.h"

namespace cem::mln {

/// Statistics of one inference call (for the running-time analyses of
/// Figures 3(d)-(f): the paper's key observation is that message passing
/// shrinks the *active* size of neighborhoods).
struct InferenceStats {
  size_t num_variables = 0;   // Free (unclamped) match variables.
  size_t num_clamped = 0;     // Evidence-clamped variables.
  size_t num_edges = 0;       // Pairwise link terms among free variables.
};

/// The evidence-independent part of a neighborhood's induced sub-network
/// (R(C) semantics): a pure function of (dataset, graph, weights, C), so it
/// is built once per neighborhood and shared by every evidence-conditioned
/// solve over it.
struct InducedModel {
  /// Candidate pairs with both endpoints in C, ascending.
  std::vector<data::PairId> vars;
  /// Induced unary weight per variable: the similarity rule plus one
  /// reflexive coauthor grounding per shared coauthor inside C.
  std::vector<double> theta;
  /// Links between variables, by position, each unordered link once
  /// (first < second).
  std::vector<std::pair<int, int>> links;
};

/// Builds the induced model of the neighborhood `members`, which must be
/// sorted, duplicate-free entities of `dataset` (checked in DCHECK
/// builds). It scans only the members' Dataset::PairsFrom ranges, so the
/// variables come out ascending without a sort. Every membership test is
/// O(1), against a per-thread bitmap of num_entities() bits, and every
/// link's partner is found in a per-thread PairId → position table of
/// num_candidate_pairs() entries; both are all-zero again when the call
/// returns.
InducedModel BuildInducedModel(const data::Dataset& dataset,
                               const PairGraph& graph,
                               const MlnWeights& weights,
                               const std::vector<data::EntityId>& members);

/// Exact MAP over `model` conditioned on evidence: variables in `positive`
/// are clamped to match, those in `negative` to non-match (evidence outside
/// the model's variables is ignored). Returns the *largest* most-likely
/// match set (Section 3.2's tie-break), which includes the clamped positive
/// variables.
///
/// Exactness: the energy is pairwise-submodular (all interaction weights
/// are attractive for w_coauthor >= 0), so the minimiser is an s-t min-cut;
/// the largest optimal assignment is the sink-unreachable side of the
/// residual graph.
core::MatchSet SolveInducedMap(const InducedModel& model,
                               const PairGraph& graph,
                               const MlnWeights& weights,
                               const core::MatchSet& positive,
                               const core::MatchSet& negative,
                               InferenceStats* stats = nullptr);

/// SolveInducedMap over the sub-network induced by `members`.
core::MatchSet SolveNeighborhoodMap(
    const data::Dataset& dataset, const PairGraph& graph,
    const MlnWeights& weights,
    const std::unordered_set<data::EntityId>& members,
    const core::MatchSet& positive, const core::MatchSet& negative,
    InferenceStats* stats = nullptr);

/// Reference solver: enumerates all assignments of the free variables
/// (requires <= 25 of them) and returns the largest maximum-score set.
/// Used by tests to certify the graph-cut solver.
core::MatchSet BruteForceMap(
    const data::Dataset& dataset, const PairGraph& graph,
    const MlnWeights& weights,
    const std::unordered_set<data::EntityId>& members,
    const core::MatchSet& positive, const core::MatchSet& negative);

}  // namespace cem::mln

#endif  // CEM_MLN_MAP_INFERENCE_H_
