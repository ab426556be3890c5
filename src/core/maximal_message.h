#ifndef CEM_CORE_MAXIMAL_MESSAGE_H_
#define CEM_CORE_MAXIMAL_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/match_set.h"
#include "core/matcher.h"
#include "data/entity.h"

namespace cem::core {

/// A maximal message (Definition 8): a set of correlated pairs such that
/// either all of them are in E(E) or none are — a "partial inference
/// waiting to be completed".
using MaximalMessage = std::vector<data::EntityPair>;

/// Tolerance of the MMP step-7 test  P_E(M+ ∪ M) >= P_E(M+): tiny negative
/// score deltas caused by floating-point noise still count as
/// non-decreasing.
inline constexpr double kScoreEps = 1e-9;

/// COMPUTEMAXIMAL (Algorithm 2). For each unresolved candidate pair p in
/// neighborhood C, runs E(C, M+ ∪ {p}) and connects p—p' on mutual
/// entailment; connected components are the maximal messages (Lemma 1).
/// Pairs already matched (in `base`, the matcher's output on (C, M+)) are
/// excluded — they are facts, not hypotheses; singleton components are
/// dropped as information-free.
///
/// Cost is proportional to the neighborhood, not to M+: the evidence is
/// restricted once to C x C (the evidence-locality contract of
/// core/matcher.h makes that invisible to the matcher) and each hypothesis
/// is inserted into and erased from that one small set.
std::vector<MaximalMessage> ComputeMaximal(
    const Matcher& matcher, const std::vector<data::EntityId>& entities,
    const MatchSet& evidence, const MatchSet& base);

/// The set T of Algorithm 3: disjoint maximal messages under the merge
/// rule (T ∪ TC)* — overlapping messages are replaced by their union
/// (valid by Proposition 3(ii)).
class MaximalMessageSet {
 public:
  MaximalMessageSet() = default;

  /// Inserts a message, merging it with every existing message it
  /// overlaps. Returns the id of the resulting (merged) message, which is
  /// always a fresh one: ids only grow, so every message created from now
  /// on has an id >= next_id().
  uint32_t Insert(const MaximalMessage& message);

  /// The id the next Insert will return.
  uint32_t next_id() const { return static_cast<uint32_t>(messages_.size()); }

  /// Removes all pairs of `matched` from every message: once a pair is
  /// known true, every message containing it is entirely true (Definition
  /// 8), so callers should first Extract such messages via
  /// FindIntersecting. This method is for discarding them afterwards.
  void RemoveMessage(uint32_t id);

  /// Ids, ascending and unique, of the live messages holding any of
  /// `pairs`.
  std::vector<uint32_t> FindIntersecting(
      std::span<const data::EntityPair> pairs) const;

  /// Live message ids >= `first`, ascending (all of them by default).
  std::vector<uint32_t> LiveIds(uint32_t first = 0) const;

  /// Pairs of message `id`.
  const MaximalMessage& Message(uint32_t id) const;

  size_t num_live() const { return num_live_; }

 private:
  std::vector<MaximalMessage> messages_;    // Indexed by id; may be dead.
  std::vector<bool> live_;
  std::unordered_map<uint64_t, uint32_t> owner_;  // pair key -> live id.
  size_t num_live_ = 0;
};

/// Step 7 of Algorithm 3: promotes live messages of `messages` into
/// `matched` (M+) until fixpoint, appending every newly matched pair to
/// `new_matches`, and returns the number of messages promoted. Two
/// triggers, in the order the paper's loop applies them:
///  (a) a message intersecting M+ is entirely sound (Definition 8 +
///      soundness of M+);
///  (b) the probabilistic test P_E(M+ ∪ M) >= P_E(M+).
///
/// The work is proportional to what changed since the previous call's
/// fixpoint, which callers describe by two preconditions: `new_matches`
/// holds exactly the pairs added to M+ since then, and every live message
/// with id < `first_fresh` was already live then (later ones were created
/// or merged since). At that fixpoint every live message was disjoint from
/// M+ and failed (b) against it, and live messages are pairwise disjoint.
/// So only `new_matches` can make a message intersect M+, and while M+ has
/// not grown only messages with id >= first_fresh can pass (b) —
/// ScoreDelta is a pure function of (M+, M). The promoted messages, their
/// order and the resulting M+ are those of re-scanning all of M+ and
/// re-testing every live message.
size_t PromoteSoundMessages(const ProbabilisticMatcher& matcher,
                            MaximalMessageSet& messages, uint32_t first_fresh,
                            MatchSet& matched,
                            std::vector<data::EntityPair>& new_matches);

}  // namespace cem::core

#endif  // CEM_CORE_MAXIMAL_MESSAGE_H_
