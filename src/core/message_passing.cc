#include "core/message_passing.h"

#include <deque>

#include "core/maximal_message.h"
#include "core/neighbor_index.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cem::core {
namespace {

/// FIFO active set with set semantics (a neighborhood queued twice runs
/// once): Algorithm 1/3's A.
class ActiveSet {
 public:
  explicit ActiveSet(size_t n) : queued_(n, false) {}

  void Push(uint32_t id) {
    if (!queued_[id]) {
      queued_[id] = true;
      queue_.push_back(id);
    }
  }

  bool empty() const { return queue_.empty(); }

  uint32_t Pop() {
    const uint32_t id = queue_.front();
    queue_.pop_front();
    queued_[id] = false;
    return id;
  }

 private:
  std::deque<uint32_t> queue_;
  std::vector<bool> queued_;
};

size_t DefaultEvaluationCap(const Cover& cover, size_t configured) {
  if (configured > 0) return configured;
  const size_t k = cover.MaxNeighborhoodSize();
  // Theoretical bound n * k^2 (Theorem 3), floored generously.
  return cover.size() * std::max<size_t>(k * k, 16) + 64;
}

void SeedActiveSet(ActiveSet& active, const Cover& cover,
                   const MpOptions& options) {
  for (uint32_t id : options.initial_order) {
    if (id < cover.size()) active.Push(id);
  }
  for (uint32_t id = 0; id < cover.size(); ++id) active.Push(id);
}

MpResult RunMmpImpl(const ProbabilisticMatcher& matcher, const Cover& cover,
                    const MpOptions& options, bool merge_messages) {
  Timer timer;
  MpResult result;
  NeighborIndex index(cover);
  ActiveSet active(cover.size());
  SeedActiveSet(active, cover, options);
  const size_t cap = DefaultEvaluationCap(cover, options.max_evaluations);

  MatchSet& matched = result.matches;  // M+
  MaximalMessageSet messages;          // T

  while (!active.empty()) {
    if (result.neighborhood_evaluations >= cap) {
      CEM_LOG(Warning) << "MMP evaluation cap reached (" << cap
                       << "); matcher may not be well-behaved";
      break;
    }
    const uint32_t c = active.Pop();
    ++result.neighborhood_evaluations;
    const std::vector<data::EntityId>& entities =
        cover.neighborhood(c).entities;

    // Step 5: direct matches and maximal messages of this neighborhood.
    const MatchSet mc = matcher.Match(entities, matched);
    size_t conditioned_calls = 0;
    const std::vector<MaximalMessage> tc =
        ComputeMaximal(matcher, entities, matched, mc, &conditioned_calls);
    result.matcher_calls += 1 + conditioned_calls;
    result.messages_created += tc.size();

    // Step 6: M+ ∪= MC ; T = (T ∪ TC)*.
    std::vector<data::EntityPair> new_matches = mc.Difference(matched);
    matched.InsertAll(mc);
    if (merge_messages) {
      const uint32_t first_fresh = messages.next_id();
      for (const MaximalMessage& m : tc) messages.Insert(m);
      // Step 7: promote sound messages until fixpoint.
      result.messages_promoted += PromoteSoundMessages(
          matcher, messages, first_fresh, matched, new_matches);
    } else {
      for (const MaximalMessage& m : tc) {
        // Ablation: no merge — insert each message as its own island by
        // testing it immediately and dropping it afterwards.
        const double delta = matcher.ScoreDelta(matched, m);
        if (delta >= -kScoreEps) {
          for (const data::EntityPair& p : m) {
            if (matched.Insert(p)) new_matches.push_back(p);
          }
          ++result.messages_promoted;
        }
      }
    }

    // Step 8: re-activate the neighborhoods affected by anything new.
    // The just-run neighborhood is skipped: by idempotence it cannot add
    // anything to its own output.
    for (uint32_t affected : index.AffectedBy(new_matches)) {
      if (affected != c) active.Push(affected);
    }
  }

  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

MpResult RunNoMp(const Matcher& matcher, const Cover& cover) {
  Timer timer;
  MpResult result;
  for (const Neighborhood& n : cover.neighborhoods()) {
    result.matches.InsertAll(matcher.Match(n.entities));
    ++result.neighborhood_evaluations;
    ++result.matcher_calls;
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

MpResult RunSmp(const Matcher& matcher, const Cover& cover,
                const MpOptions& options) {
  Timer timer;
  MpResult result;
  NeighborIndex index(cover);
  ActiveSet active(cover.size());
  SeedActiveSet(active, cover, options);
  const size_t cap = DefaultEvaluationCap(cover, options.max_evaluations);

  MatchSet& matched = result.matches;  // M+
  while (!active.empty()) {
    if (result.neighborhood_evaluations >= cap) {
      CEM_LOG(Warning) << "SMP evaluation cap reached (" << cap
                       << "); matcher may not be well-behaved";
      break;
    }
    const uint32_t c = active.Pop();
    ++result.neighborhood_evaluations;
    ++result.matcher_calls;
    const MatchSet mc = matcher.Match(cover.neighborhood(c).entities, matched);
    const std::vector<data::EntityPair> new_matches = mc.Difference(matched);
    if (new_matches.empty()) continue;
    matched.InsertAll(mc);
    for (uint32_t affected : index.AffectedBy(new_matches)) {
      if (affected != c) active.Push(affected);
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

MpResult RunMmp(const ProbabilisticMatcher& matcher, const Cover& cover,
                const MpOptions& options) {
  return RunMmpImpl(matcher, cover, options, /*merge_messages=*/true);
}

MpResult RunMmpWithoutMerge(const ProbabilisticMatcher& matcher,
                            const Cover& cover, const MpOptions& options) {
  return RunMmpImpl(matcher, cover, options, /*merge_messages=*/false);
}

}  // namespace cem::core
