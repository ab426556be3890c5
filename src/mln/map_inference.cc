#include "mln/map_inference.h"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "graph/max_flow.h"
#include "util/logging.h"

namespace cem::mln {
namespace {

/// Clamp states of a variable inside one inference call.
enum class Clamp : uint8_t { kFree, kOne, kZero };

/// The per-call part of an induced subproblem: each variable's clamp under
/// the evidence.
std::vector<Clamp> ClampsOf(const InducedModel& model, const PairGraph& graph,
                            const core::MatchSet& positive,
                            const core::MatchSet& negative) {
  std::vector<Clamp> clamp(model.vars.size(), Clamp::kFree);
  for (size_t i = 0; i < model.vars.size(); ++i) {
    const data::EntityPair p = graph.node(model.vars[i]).pair;
    if (negative.Contains(p)) {
      clamp[i] = Clamp::kZero;
    } else if (positive.Contains(p)) {
      clamp[i] = Clamp::kOne;
    }
  }
  return clamp;
}

std::vector<data::EntityId> SortedMembers(
    const std::unordered_set<data::EntityId>& members) {
  std::vector<data::EntityId> sorted(members.begin(), members.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

InducedModel BuildInducedModel(const data::Dataset& dataset,
                               const PairGraph& graph,
                               const MlnWeights& weights,
                               const std::vector<data::EntityId>& members) {
  // A duplicate member would emit its pairs twice.
  CEM_DCHECK(std::adjacent_find(members.begin(), members.end(),
                                std::greater_equal<>()) == members.end() &&
             (members.empty() || members.back() < dataset.num_entities()))
      << "members must be sorted, duplicate-free dataset entities";
  // Two per-thread tables, set for this call's members and variables and
  // cleared by the guard on every way out, so both are all-zero between
  // calls whatever dataset the next call brings: membership of C as one
  // bit per dataset entity, and each variable's position + 1 by PairId.
  thread_local std::vector<uint64_t> member_bits;
  thread_local std::vector<uint32_t> position_of;
  const size_t words = (dataset.num_entities() + 63) / 64;
  if (member_bits.size() < words) member_bits.resize(words, 0);
  if (position_of.size() < dataset.num_candidate_pairs()) {
    position_of.resize(dataset.num_candidate_pairs(), 0);
  }
  const auto in_members = [](data::EntityId e) {
    return ((member_bits[e / 64] >> (e % 64)) & 1) != 0;
  };
  InducedModel model;
  {
    struct ClearOnExit {
      const std::vector<data::EntityId>& members;
      const std::vector<data::PairId>& vars;
      ~ClearOnExit() {
        for (data::EntityId e : members) member_bits[e / 64] = 0;
        for (data::PairId id : vars) position_of[id] = 0;
      }
    } clear_on_exit{members, model.vars};
    for (data::EntityId e : members) {
      member_bits[e / 64] |= uint64_t{1} << (e % 64);
    }
    // Candidate pairs fully inside C, each once: from its smaller endpoint,
    // whose pairs are one PairId range. Members ascend, so the variables
    // come out ascending.
    const std::vector<data::CandidatePair>& pairs = dataset.candidate_pairs();
    for (data::EntityId e : members) {
      const auto [first, last] = dataset.PairsFrom(e);
      for (data::PairId id = first; id < last; ++id) {
        if (in_members(pairs[id].pair.b)) model.vars.push_back(id);
      }
    }
    for (size_t i = 0; i < model.vars.size(); ++i) {
      position_of[model.vars[i]] = static_cast<uint32_t>(i + 1);
    }

    model.theta.reserve(model.vars.size());
    for (size_t i = 0; i < model.vars.size(); ++i) {
      const PairGraph::Node& node = graph.node(model.vars[i]);
      double theta = weights.SimWeight(node.level);
      for (data::EntityId c : node.shared_coauthors) {
        if (in_members(c)) theta += weights.w_coauthor;
      }
      model.theta.push_back(theta);
      // A link {p, q} is inside C iff q is a variable too. Positions follow
      // PairId order, so recording it from the smaller id records it once.
      for (data::PairId q : node.links) {
        if (q <= model.vars[i] || position_of[q] == 0) continue;
        model.links.emplace_back(static_cast<int>(i),
                                 static_cast<int>(position_of[q] - 1));
      }
    }
  }
  return model;
}

core::MatchSet SolveInducedMap(const InducedModel& model,
                               const PairGraph& graph,
                               const MlnWeights& weights,
                               const core::MatchSet& positive,
                               const core::MatchSet& negative,
                               InferenceStats* stats) {
  const size_t n = model.vars.size();
  const std::vector<Clamp> clamp = ClampsOf(model, graph, positive, negative);

  // Fold clamped variables into the free subproblem.
  std::vector<int> free_index(n, -1);
  int num_free = 0;
  for (size_t i = 0; i < n; ++i) {
    if (clamp[i] == Clamp::kFree) free_index[i] = num_free++;
  }
  std::vector<double> theta(num_free);
  for (size_t i = 0; i < n; ++i) {
    if (free_index[i] >= 0) theta[free_index[i]] = model.theta[i];
  }
  std::vector<std::pair<int, int>> free_links;
  for (const auto& [i, j] : model.links) {
    const Clamp ci = clamp[i];
    const Clamp cj = clamp[j];
    if (ci == Clamp::kFree && cj == Clamp::kFree) {
      free_links.emplace_back(free_index[i], free_index[j]);
    } else if (ci == Clamp::kFree && cj == Clamp::kOne) {
      theta[free_index[i]] += weights.w_coauthor;
    } else if (cj == Clamp::kFree && ci == Clamp::kOne) {
      theta[free_index[j]] += weights.w_coauthor;
    }
    // Links to clamped-zero variables never fire.
  }

  if (stats != nullptr) {
    stats->num_variables = static_cast<size_t>(num_free);
    stats->num_clamped = n - static_cast<size_t>(num_free);
    stats->num_edges = free_links.size();
  }

  // Maximise sum(theta_i x_i) + sum(w x_i x_j)  ==  min-cut (see DESIGN.md).
  std::vector<bool> x(num_free, false);
  if (num_free > 0) {
    const double w = weights.w_coauthor;
    CEM_CHECK(w >= 0.0) << "attractive coauthor weight required for exact "
                           "graph-cut inference";
    // c_i = -theta_i - (w/2) * degree_i ; pairwise w/2 both ways.
    std::vector<double> c(num_free);
    for (int i = 0; i < num_free; ++i) c[i] = -theta[i];
    for (const auto& [i, j] : free_links) {
      c[i] -= w / 2.0;
      c[j] -= w / 2.0;
    }
    graph::MaxFlow flow(num_free + 2);
    const int source = num_free;
    const int sink = num_free + 1;
    for (int i = 0; i < num_free; ++i) {
      if (c[i] > 0) {
        flow.AddEdge(i, sink, c[i]);
      } else if (c[i] < 0) {
        flow.AddEdge(source, i, -c[i]);
      }
    }
    for (const auto& [i, j] : free_links) {
      flow.AddEdge(i, j, w / 2.0, w / 2.0);
    }
    flow.Solve(source, sink);
    const std::vector<bool> on_source_side = flow.SinkUnreachableSet();
    for (int i = 0; i < num_free; ++i) x[i] = on_source_side[i];
  }

  const auto matched = [&](size_t i) {
    return clamp[i] == Clamp::kOne || (free_index[i] >= 0 && x[free_index[i]]);
  };
  size_t num_matched = 0;
  for (size_t i = 0; i < n; ++i) num_matched += matched(i) ? 1 : 0;
  core::MatchSet out;
  out.reserve(num_matched);
  for (size_t i = 0; i < n; ++i) {
    if (matched(i)) out.Insert(graph.node(model.vars[i]).pair);
  }
  return out;
}

core::MatchSet SolveNeighborhoodMap(
    const data::Dataset& dataset, const PairGraph& graph,
    const MlnWeights& weights,
    const std::unordered_set<data::EntityId>& members,
    const core::MatchSet& positive, const core::MatchSet& negative,
    InferenceStats* stats) {
  return SolveInducedMap(
      BuildInducedModel(dataset, graph, weights, SortedMembers(members)),
      graph, weights, positive, negative, stats);
}

core::MatchSet BruteForceMap(
    const data::Dataset& dataset, const PairGraph& graph,
    const MlnWeights& weights,
    const std::unordered_set<data::EntityId>& members,
    const core::MatchSet& positive, const core::MatchSet& negative) {
  const InducedModel model =
      BuildInducedModel(dataset, graph, weights, SortedMembers(members));
  const std::vector<Clamp> clamp = ClampsOf(model, graph, positive, negative);
  const size_t n = model.vars.size();

  std::vector<int> free_vars;
  for (size_t i = 0; i < n; ++i) {
    if (clamp[i] == Clamp::kFree) free_vars.push_back(static_cast<int>(i));
  }
  CEM_CHECK(free_vars.size() <= 25) << "brute force limited to 25 variables";

  std::vector<bool> x(n, false);
  for (size_t i = 0; i < n; ++i) x[i] = clamp[i] == Clamp::kOne;

  auto score_of = [&](const std::vector<bool>& assignment) {
    double score = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (assignment[i]) score += model.theta[i];
    }
    for (const auto& [i, j] : model.links) {
      if (assignment[i] && assignment[j]) score += weights.w_coauthor;
    }
    return score;
  };

  double best_score = -1e300;
  size_t best_size = 0;
  std::vector<bool> best = x;
  const uint64_t limit = 1ull << free_vars.size();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    std::vector<bool> assignment = x;
    size_t size = 0;
    for (size_t k = 0; k < free_vars.size(); ++k) {
      assignment[free_vars[k]] = (mask >> k) & 1;
    }
    for (size_t i = 0; i < n; ++i) size += assignment[i] ? 1 : 0;
    const double score = score_of(assignment);
    // Largest most-likely set: better score wins; equal score prefers the
    // larger set (tolerance guards float ties).
    if (score > best_score + 1e-9 ||
        (score > best_score - 1e-9 && size > best_size)) {
      best_score = score;
      best_size = size;
      best = assignment;
    }
  }

  core::MatchSet out;
  for (size_t i = 0; i < n; ++i) {
    if (best[i]) out.Insert(graph.node(model.vars[i]).pair);
  }
  return out;
}

}  // namespace cem::mln
