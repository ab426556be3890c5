#ifndef CEM_CORE_MATCHER_H_
#define CEM_CORE_MATCHER_H_

#include <vector>

#include "core/match_set.h"
#include "data/dataset.h"
#include "data/entity.h"

namespace cem::core {

/// The paper's Type-I black-box abstraction (Definition 1): an entity
/// matcher is a function
///   E : E x 2^(E x E) x 2^(E x E) -> 2^(E x E)
/// taking a set of entities plus positive/negative evidence sets and
/// returning a set of matches.
///
/// Implementations are constructed over a Dataset (the attributes and
/// relations implicit in the paper's E) and run on arbitrary subsets of its
/// entities; relations are used *induced*, i.e. a run on neighborhood C
/// only sees tuples entirely inside C (this is R(C) from Section 4, and is
/// why total covers matter).
///
/// The framework's guarantees (Theorems 1, 2, 4) hold for matchers that are
/// *well-behaved* (Definition 4): idempotent (Definition 2) and monotone
/// (Definition 3). Both shipped matchers (mln::MlnMatcher,
/// rules::RulesMatcher) are well-behaved; property tests verify this
/// empirically and non-well-behaved matchers still run, just without the
/// soundness guarantee.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// E(C, V+, V-). `entities` lists the neighborhood's members (order
  /// irrelevant, duplicates ignored). The output contains every
  /// positive-evidence pair inside C x C (this makes idempotence natural)
  /// plus the newly inferred matches.
  ///
  /// Evidence locality (load-bearing): evidence outside C x C is ignored,
  /// so restricting V+ and V- to pairs with both endpoints in C — candidate
  /// pairs or not — never changes the output of Match, MatchConditioned or
  /// EntangledPairs. COMPUTEMAXIMAL relies on it to hand conditioned runs
  /// that restriction instead of a copy of all of M+;
  /// tests/properties_test.cc pins it for the shipped matchers.
  virtual MatchSet Match(const std::vector<data::EntityId>& entities,
                         const MatchSet& positive,
                         const MatchSet& negative) const = 0;

  /// Convenience: E(C, V+) with empty negative evidence.
  MatchSet Match(const std::vector<data::EntityId>& entities,
                 const MatchSet& positive) const {
    return Match(entities, positive, MatchSet());
  }

  /// Convenience: E(C) with no evidence at all.
  MatchSet Match(const std::vector<data::EntityId>& entities) const {
    return Match(entities, MatchSet(), MatchSet());
  }

  /// A *conditioned re-run* on a neighborhood the matcher has just
  /// evaluated: same entities, slightly extended evidence. COMPUTEMAXIMAL
  /// (Algorithm 2) issues one such call per hypothesis pair, right after
  /// Match on the same entities and on the same thread. Solvers that keep
  /// per-neighborhood state (e.g. dynamic graph cuts, warm-started
  /// samplers, mln::MlnMatcher's per-thread induced model) can make these
  /// marginal re-solves far cheaper than a fresh run; such state must never
  /// change the answer, only its cost. The default simply forwards to
  /// Match(). The benchmark cost model charges conditioned runs a small
  /// fraction of a fresh run for the same reason.
  virtual MatchSet MatchConditioned(const std::vector<data::EntityId>& entities,
                                    const MatchSet& positive,
                                    const MatchSet& negative) const {
    return Match(entities, positive, negative);
  }

  /// The dataset this matcher was constructed over.
  virtual const data::Dataset& dataset() const = 0;

  /// Pruning hint for COMPUTEMAXIMAL (Algorithm 2): candidate pairs inside
  /// `entities` that could belong to a non-singleton maximal message, i.e.
  /// whose hypothetical match could entail — or be entailed by — another
  /// unresolved pair. The default returns every unresolved in-neighborhood
  /// candidate pair (always correct); matchers with known correlation
  /// structure override it to skip pairs that provably yield singleton
  /// messages (the MLN matcher returns only pairs with an induced link to
  /// another unresolved pair).
  virtual std::vector<data::EntityPair> EntangledPairs(
      const std::vector<data::EntityId>& entities, const MatchSet& evidence,
      const MatchSet& base) const;

  /// Runs on the entire dataset (the "FULL" / holistic run of the paper's
  /// experiments). Feasible for RULES; exponential-feel for MLN on large
  /// data — exactly the scalability gap the framework closes.
  MatchSet MatchAll() const;
};

/// The paper's Type-II abstraction (Definition 5): a probabilistic matcher
/// defines a distribution P_E over match sets; its Match() output is the
/// largest most-likely set, conditioned on the evidence. Only Type-II
/// matchers support MMP (Algorithm 3, step 7 needs P_E comparisons).
class ProbabilisticMatcher : public Matcher {
 public:
  /// Unnormalised log P_E(S) over the *full* dataset. Cheap to evaluate for
  /// a specific S (sum of satisfied grounding weights) even though argmax
  /// over S is expensive — the asymmetry Section 5.2 relies on.
  virtual double Score(const MatchSet& matches) const = 0;

  /// Score(current ∪ additions) − Score(current), computed incrementally by
  /// touching only groundings incident to `additions`. Equivalent to the
  /// MMP step-7 test  P_E(M+ ∪ M) >= P_E(M+)  ⇔  ScoreDelta >= 0.
  virtual double ScoreDelta(
      const MatchSet& current,
      const std::vector<data::EntityPair>& additions) const = 0;
};

}  // namespace cem::core

#endif  // CEM_CORE_MATCHER_H_
