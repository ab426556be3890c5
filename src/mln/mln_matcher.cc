#include "mln/mln_matcher.h"

#include <algorithm>

#include "mln/map_inference.h"
#include "util/logging.h"

namespace cem::mln {
namespace {

/// Source of MlnMatcher instance ids. Ids are never reused, so a matcher
/// created where a destroyed one lived can never hit that one's cached
/// model.
std::atomic<uint64_t> next_instance_id{1};

/// The induced model of the neighborhood `entities` for matcher
/// `matcher_id`, from the calling thread's one-entry cache: the last model
/// this thread built, keyed by the matcher's instance id and the entity
/// list as passed. COMPUTEMAXIMAL's conditioned re-solves and
/// EntangledPairs follow Match on the same neighborhood and thread, so they
/// hit it. The reference is valid until this thread's next call.
const InducedModel& CachedModel(uint64_t matcher_id,
                                const data::Dataset& dataset,
                                const PairGraph& graph,
                                const MlnWeights& weights,
                                const std::vector<data::EntityId>& entities) {
  struct Cache {
    uint64_t matcher_id = 0;  // 0: empty.
    std::vector<data::EntityId> entities;
    InducedModel model;
  };
  thread_local Cache cache;
  if (cache.matcher_id != matcher_id || cache.entities != entities) {
    cache.matcher_id = 0;
    std::vector<data::EntityId> members = entities;
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    cache.model = BuildInducedModel(dataset, graph, weights, members);
    cache.entities = entities;
    cache.matcher_id = matcher_id;
  }
  return cache.model;
}

}  // namespace

MlnMatcher::MlnMatcher(const data::Dataset& dataset, MlnWeights weights)
    : dataset_(&dataset),
      weights_(weights),
      graph_(PairGraph::Build(dataset)),
      instance_id_(next_instance_id.fetch_add(1, std::memory_order_relaxed)) {}

core::MatchSet MlnMatcher::Match(const std::vector<data::EntityId>& entities,
                                 const core::MatchSet& positive,
                                 const core::MatchSet& negative) const {
  InferenceStats stats;
  core::MatchSet out = SolveInducedMap(
      CachedModel(instance_id_, *dataset_, graph_, weights_, entities),
      graph_, weights_, positive, negative, &stats);
  num_runs_.fetch_add(1, std::memory_order_relaxed);
  total_free_vars_.fetch_add(stats.num_variables, std::memory_order_relaxed);
  return out;
}

std::vector<data::EntityPair> MlnMatcher::EntangledPairs(
    const std::vector<data::EntityId>& entities,
    const core::MatchSet& evidence, const core::MatchSet& base) const {
  const InducedModel& model =
      CachedModel(instance_id_, *dataset_, graph_, weights_, entities);
  const auto unresolved = [&](int i) {
    const data::EntityPair p = graph_.node(model.vars[i]).pair;
    return !base.Contains(p) && !evidence.Contains(p);
  };
  // A pair entangles iff an induced link joins it to another unresolved
  // pair.
  std::vector<bool> entangled(model.vars.size(), false);
  for (const auto& [i, j] : model.links) {
    if (unresolved(i) && unresolved(j)) {
      entangled[i] = true;
      entangled[j] = true;
    }
  }
  std::vector<data::EntityPair> out;
  for (size_t i = 0; i < model.vars.size(); ++i) {
    if (entangled[i]) out.push_back(graph_.node(model.vars[i]).pair);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double MlnMatcher::Score(const core::MatchSet& matches) const {
  double score = 0.0;
  // Unary groundings.
  for (uint64_t key : matches.keys()) {
    const data::EntityPair p = data::PairFromKey(key);
    const auto id = dataset_->FindCandidatePair(p.a, p.b);
    if (!id.has_value()) continue;  // Non-candidate pairs carry no grounding.
    score += graph_.GlobalTheta(*id, weights_);
    // Link groundings, counted once per unordered link.
    for (data::PairId q : graph_.node(*id).links) {
      if (q > *id && matches.Contains(graph_.node(q).pair)) {
        score += weights_.w_coauthor;
      }
    }
  }
  return score;
}

double MlnMatcher::ScoreDelta(
    const core::MatchSet& current,
    const std::vector<data::EntityPair>& additions) const {
  double delta = 0.0;
  core::MatchSet added;  // Additions processed so far (deduplicated).
  for (const data::EntityPair& p : additions) {
    if (current.Contains(p) || added.Contains(p)) continue;
    const auto id = dataset_->FindCandidatePair(p.a, p.b);
    if (id.has_value()) {
      delta += graph_.GlobalTheta(*id, weights_);
      for (data::PairId q : graph_.node(*id).links) {
        const data::EntityPair qp = graph_.node(q).pair;
        // A link fires once when its second endpoint arrives: count links
        // into the already-matched set (current plus earlier additions).
        if (current.Contains(qp) || added.Contains(qp)) {
          delta += weights_.w_coauthor;
        }
      }
    }
    added.Insert(p);
  }
  return delta;
}

void MlnMatcher::ResetCounters() const {
  num_runs_.store(0);
  total_free_vars_.store(0);
}

}  // namespace cem::mln
