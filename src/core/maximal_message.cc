#include "core/maximal_message.h"

#include <algorithm>
#include <unordered_set>

#include "graph/connected_components.h"
#include "util/logging.h"

namespace cem::core {

std::vector<MaximalMessage> ComputeMaximal(
    const Matcher& matcher, const std::vector<data::EntityId>& entities,
    const MatchSet& evidence, const MatchSet& base,
    size_t* conditioned_calls) {
  // Unresolved candidate pairs of C that can possibly entangle with
  // another (the matcher's pruning hook; the default returns all
  // unresolved in-neighborhood candidate pairs).
  const std::vector<data::EntityPair> hypotheses =
      matcher.EntangledPairs(entities, evidence, base);
  if (conditioned_calls != nullptr) *conditioned_calls = hypotheses.size();
  if (hypotheses.empty()) return {};

  // One clamped run per hypothesis: what else does assuming p entail? The
  // matcher reads only evidence inside C x C, and `base` holds every such
  // pair of M+ that it reads, so base ∩ M+ is all the evidence a run needs;
  // each hypothesis is toggled in that small set.
  MatchSet local;
  local.reserve(base.size() + 1);
  for (uint64_t key : base.keys()) {
    if (evidence.keys().count(key) != 0) local.Insert(data::PairFromKey(key));
  }
  std::vector<MatchSet> entailed(hypotheses.size());
  for (size_t i = 0; i < hypotheses.size(); ++i) {
    const bool added = local.Insert(hypotheses[i]);
    entailed[i] = matcher.MatchConditioned(entities, local, MatchSet());
    if (added) local.Erase(hypotheses[i]);
  }

  // Mutual-entailment graph; components are the messages.
  std::unordered_map<uint64_t, uint32_t> position;
  for (uint32_t i = 0; i < hypotheses.size(); ++i) {
    position.emplace(data::PairKey(hypotheses[i]), i);
  }
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 0; i < hypotheses.size(); ++i) {
    for (uint64_t key : entailed[i].keys()) {
      auto it = position.find(key);
      if (it == position.end() || it->second <= i) continue;
      const uint32_t j = it->second;
      if (entailed[j].Contains(hypotheses[i])) edges.emplace_back(i, j);
    }
  }
  std::vector<MaximalMessage> out;
  for (const auto& component : graph::ConnectedComponents(
           static_cast<uint32_t>(hypotheses.size()), edges)) {
    if (component.size() < 2) continue;  // Singletons carry no information.
    MaximalMessage message;
    message.reserve(component.size());
    for (uint32_t idx : component) message.push_back(hypotheses[idx]);
    out.push_back(std::move(message));
  }
  return out;
}

uint32_t MaximalMessageSet::Insert(const MaximalMessage& message) {
  // Collect live messages overlapping the new one.
  std::vector<uint32_t> overlapping;
  for (const data::EntityPair& p : message) {
    auto it = owner_.find(data::PairKey(p));
    if (it != owner_.end() && live_[it->second]) {
      overlapping.push_back(it->second);
    }
  }
  std::sort(overlapping.begin(), overlapping.end());
  overlapping.erase(std::unique(overlapping.begin(), overlapping.end()),
                    overlapping.end());

  // Union of the new message and everything it touches.
  std::unordered_set<uint64_t> merged_keys;
  MaximalMessage merged;
  auto absorb = [&](const MaximalMessage& m) {
    for (const data::EntityPair& p : m) {
      if (merged_keys.insert(data::PairKey(p)).second) merged.push_back(p);
    }
  };
  absorb(message);
  for (uint32_t id : overlapping) {
    absorb(messages_[id]);
    live_[id] = false;
    --num_live_;
  }
  std::sort(merged.begin(), merged.end());

  const uint32_t id = static_cast<uint32_t>(messages_.size());
  for (const data::EntityPair& p : merged) owner_[data::PairKey(p)] = id;
  messages_.push_back(std::move(merged));
  live_.push_back(true);
  ++num_live_;
  return id;
}

void MaximalMessageSet::RemoveMessage(uint32_t id) {
  CEM_CHECK(id < live_.size() && live_[id]);
  live_[id] = false;
  --num_live_;
  for (const data::EntityPair& p : messages_[id]) {
    auto it = owner_.find(data::PairKey(p));
    if (it != owner_.end() && it->second == id) owner_.erase(it);
  }
}

std::vector<uint32_t> MaximalMessageSet::FindIntersecting(
    std::span<const data::EntityPair> pairs) const {
  std::vector<uint32_t> out;
  for (const data::EntityPair& p : pairs) {
    auto it = owner_.find(data::PairKey(p));
    if (it != owner_.end() && live_[it->second]) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<uint32_t> MaximalMessageSet::LiveIds(uint32_t first) const {
  std::vector<uint32_t> out;
  for (uint32_t id = first; id < live_.size(); ++id) {
    if (live_[id]) out.push_back(id);
  }
  return out;
}

const MaximalMessage& MaximalMessageSet::Message(uint32_t id) const {
  CEM_CHECK(id < messages_.size());
  return messages_[id];
}

size_t PromoteSoundMessages(const ProbabilisticMatcher& matcher,
                            MaximalMessageSet& messages, uint32_t first_fresh,
                            MatchSet& matched,
                            std::vector<data::EntityPair>& new_matches) {
  // True once M+ differs from the one every message older than
  // `first_fresh` last failed trigger (b) against.
  bool grown = !new_matches.empty();
  size_t promoted = 0;
  const auto promote = [&](uint32_t id) {
    for (const data::EntityPair& p : messages.Message(id)) {
      if (matched.Insert(p)) {
        new_matches.push_back(p);
        grown = true;
      }
    }
    messages.RemoveMessage(id);
    ++promoted;
  };

  // (a) Only this step's new matches can intersect a live message, and
  // promoting one adds pairs no other (disjoint) message holds, so a single
  // probe finds every such message.
  for (uint32_t id : messages.FindIntersecting(new_matches)) promote(id);

  // (b) Re-test until a sweep promotes nothing; a message that failed
  // against this very M+ would fail again.
  bool swept_clean = false;
  while (!swept_clean) {
    swept_clean = true;
    for (uint32_t id : messages.LiveIds(grown ? 0 : first_fresh)) {
      if (matcher.ScoreDelta(matched, messages.Message(id)) >= -kScoreEps) {
        promote(id);
        swept_clean = false;
      }
    }
  }

  CEM_DCHECK(std::ranges::none_of(messages.LiveIds(), [&](uint32_t id) {
    return std::ranges::any_of(messages.Message(id),
                               [&](const data::EntityPair& p) {
                                 return matched.Contains(p);
                               });
  })) << "a live message intersects M+ after step 7";
  return promoted;
}

}  // namespace cem::core
