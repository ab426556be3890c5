#include "rules/rules_matcher.h"

#include <deque>
#include <unordered_set>

#include "util/logging.h"

namespace cem::rules {

RulesMatcher::RulesMatcher(const data::Dataset& dataset, RulesConfig config)
    : dataset_(&dataset),
      config_(config),
      graph_(mln::PairGraph::Build(dataset)) {}

core::MatchSet RulesMatcher::Match(const std::vector<data::EntityId>& entities,
                                   const core::MatchSet& positive,
                                   const core::MatchSet& negative) const {
  const std::unordered_set<data::EntityId> members(entities.begin(),
                                                   entities.end());
  auto in_members = [&](data::EntityId e) { return members.count(e) > 0; };

  // Collect in-neighborhood candidate pairs.
  std::vector<data::PairId> vars;
  std::unordered_set<uint64_t> var_keys;
  for (data::EntityId e : entities) {
    for (data::PairId id : dataset_->PairsOfEntity(e)) {
      const data::EntityPair p = graph_.node(id).pair;
      if (p.a != e || !in_members(p.b)) continue;
      if (var_keys.insert(data::PairKey(p)).second) vars.push_back(id);
    }
  }

  // Matched set starts from the in-C positive evidence. Note: evidence
  // pairs that are not candidate pairs still count for closure (they are in
  // the output) but provide no rule support (they are not linked).
  core::MatchSet matched;
  for (uint64_t key : positive.keys()) {
    const data::EntityPair p = data::PairFromKey(key);
    if (in_members(p.a) && in_members(p.b) && !negative.Contains(p)) {
      matched.Insert(p);
    }
  }

  // Monotone fixpoint: re-examine pairs until no rule fires. The deque
  // seeds with all unmatched variables; a firing re-activates the
  // link-partners of the newly matched pair.
  std::deque<data::PairId> active(vars.begin(), vars.end());
  std::unordered_set<data::PairId> queued(vars.begin(), vars.end());

  auto support_count = [&](const mln::PairGraph::Node& node) {
    int support = 0;
    for (data::EntityId c : node.shared_coauthors) {
      if (in_members(c)) ++support;
    }
    for (data::PairId q : node.links) {
      const data::EntityPair qp = graph_.node(q).pair;
      if (in_members(qp.a) && in_members(qp.b) && matched.Contains(qp)) {
        ++support;
      }
    }
    return support;
  };

  while (!active.empty()) {
    const data::PairId id = active.front();
    active.pop_front();
    queued.erase(id);
    const mln::PairGraph::Node& node = graph_.node(id);
    if (matched.Contains(node.pair) || negative.Contains(node.pair)) continue;
    const int required = config_.required_support[static_cast<int>(node.level)];
    if (required < 0) continue;
    if (required > 0 && support_count(node) < required) continue;
    matched.Insert(node.pair);
    // Wake the link partners inside C (they may now have enough support);
    // pairs outside C x C are not this run's to decide (R(C) semantics).
    for (data::PairId q : node.links) {
      const data::EntityPair qp = graph_.node(q).pair;
      if (in_members(qp.a) && in_members(qp.b) && queued.insert(q).second) {
        active.push_back(q);
      }
    }
  }

  if (config_.transitive_closure) {
    core::MatchSet closed = core::TransitiveClosure(matched);
    // Negative evidence survives closure: monotonicity (iii) demands that
    // more negative evidence never yields more matches.
    for (uint64_t key : negative.keys()) {
      closed.Erase(data::PairFromKey(key));
    }
    return closed;
  }
  return matched;
}

}  // namespace cem::rules
