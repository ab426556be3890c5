// Property-based verification of the paper's formal framework:
// Definitions 2 (idempotence), 3 (monotonicity), 6 (supermodularity) for the
// shipped matchers, and Theorems 2/4 (soundness, consistency) for SMP/MMP —
// all over randomised instances, covers and evidence.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_set.h"
#include "core/maximal_message.h"
#include "core/message_passing.h"
#include "eval/experiment.h"
#include "eval/upper_bound.h"
#include "mln/mln_matcher.h"
#include "rules/rules_matcher.h"
#include "test_util.h"

namespace cem {
namespace {

using core::MatchSet;
using data::EntityId;
using data::EntityPair;
using testing_util::RandomInstance;

/// Draws random evidence sets over the candidate pairs.
void RandomEvidence(RandomInstance& instance, MatchSet* positive,
                    MatchSet* negative) {
  for (const auto& cp : instance.dataset().candidate_pairs()) {
    const double roll = instance.rng().NextDouble();
    if (roll < 0.12) {
      positive->Insert(cp.pair);
    } else if (roll < 0.22) {
      negative->Insert(cp.pair);
    }
  }
}

class MatcherProperty : public ::testing::TestWithParam<uint64_t> {};

// ------------------------------------------------- Idempotence (Def. 2) --

TEST_P(MatcherProperty, MlnIdempotence) {
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  MatchSet positive, negative;
  RandomEvidence(instance, &positive, &negative);
  const auto entities = instance.AllEntities();
  const MatchSet output = matcher.Match(entities, positive, negative);
  // E(E, O, V-) == O.
  EXPECT_EQ(matcher.Match(entities, output, negative), output);
}

TEST_P(MatcherProperty, RulesIdempotence) {
  RandomInstance instance(GetParam());
  rules::RulesConfig config;
  config.transitive_closure = false;  // Closure is a framework post-pass.
  rules::RulesMatcher matcher(instance.dataset(), config);
  MatchSet positive, negative;
  RandomEvidence(instance, &positive, &negative);
  const auto entities = instance.AllEntities();
  const MatchSet output = matcher.Match(entities, positive, negative);
  EXPECT_EQ(matcher.Match(entities, output, negative), output);
}

// ------------------------------------------------ Monotonicity (Def. 3) --

TEST_P(MatcherProperty, MlnMonotoneInEntities) {
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  // Random subset E ⊆ E'.
  std::vector<EntityId> all = instance.AllEntities();
  std::vector<EntityId> subset;
  for (EntityId e : all) {
    if (instance.rng().NextBernoulli(0.6)) subset.push_back(e);
  }
  EXPECT_TRUE(matcher.Match(subset).IsSubsetOf(matcher.Match(all)));
}

TEST_P(MatcherProperty, MlnMonotoneInPositiveEvidence) {
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  MatchSet small, ignored;
  RandomEvidence(instance, &small, &ignored);
  MatchSet large = small;
  for (const auto& cp : instance.dataset().candidate_pairs()) {
    if (instance.rng().NextBernoulli(0.15)) large.Insert(cp.pair);
  }
  const auto entities = instance.AllEntities();
  EXPECT_TRUE(matcher.Match(entities, small)
                  .IsSubsetOf(matcher.Match(entities, large)));
}

TEST_P(MatcherProperty, MlnAntitoneInNegativeEvidence) {
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  MatchSet ignored, small;
  RandomEvidence(instance, &ignored, &small);
  MatchSet large = small;
  for (const auto& cp : instance.dataset().candidate_pairs()) {
    if (instance.rng().NextBernoulli(0.15)) large.Insert(cp.pair);
  }
  const auto entities = instance.AllEntities();
  EXPECT_TRUE(matcher.Match(entities, MatchSet(), large)
                  .IsSubsetOf(matcher.Match(entities, MatchSet(), small)));
}

TEST_P(MatcherProperty, RulesMonotoneInEntitiesAndEvidence) {
  RandomInstance instance(GetParam());
  rules::RulesConfig config;
  config.transitive_closure = false;
  rules::RulesMatcher matcher(instance.dataset(), config);
  std::vector<EntityId> all = instance.AllEntities();
  std::vector<EntityId> subset;
  for (EntityId e : all) {
    if (instance.rng().NextBernoulli(0.6)) subset.push_back(e);
  }
  EXPECT_TRUE(matcher.Match(subset).IsSubsetOf(matcher.Match(all)));

  MatchSet small, ignored;
  RandomEvidence(instance, &small, &ignored);
  MatchSet large = small;
  for (const auto& cp : instance.dataset().candidate_pairs()) {
    if (instance.rng().NextBernoulli(0.15)) large.Insert(cp.pair);
  }
  EXPECT_TRUE(
      matcher.Match(all, small).IsSubsetOf(matcher.Match(all, large)));
}

// ------------------------------------- Evidence locality (core/matcher.h) --
// Restricting evidence to C x C never changes an answer: COMPUTEMAXIMAL
// hands its conditioned runs that restriction instead of a copy of M+.

/// The pairs of `set` with both endpoints in `members` (sorted).
MatchSet RestrictTo(const MatchSet& set, const std::vector<EntityId>& members) {
  const auto in = [&](EntityId e) {
    return std::binary_search(members.begin(), members.end(), e);
  };
  MatchSet out;
  for (const EntityPair& p : set.SortedPairs()) {
    if (in(p.a) && in(p.b)) out.Insert(p);
  }
  return out;
}

/// A neighborhood C (sorted) with evidence V+ / V-.
struct LocalityCase {
  std::vector<EntityId> members;
  MatchSet positive;
  MatchSet negative;
};

/// A random C holding the first author ref and the last entity, a paper,
/// plus random evidence over the candidate pairs and two non-candidate
/// positive pairs: (first ref, paper) inside C x C, and one with an
/// endpoint outside C when C is not everything.
LocalityCase MakeLocalityCase(RandomInstance& instance) {
  LocalityCase c;
  const std::vector<EntityId> all = instance.AllEntities();
  for (EntityId e : all) {
    if (e == all.front() || e == all.back() ||
        instance.rng().NextBernoulli(0.6)) {
      c.members.push_back(e);
    }
  }
  RandomEvidence(instance, &c.positive, &c.negative);
  c.positive.Insert(EntityPair(all.front(), all.back()));
  for (EntityId e : all) {
    if (!std::binary_search(c.members.begin(), c.members.end(), e)) {
      c.positive.Insert(EntityPair(all.front(), e));
      break;
    }
  }
  return c;
}

void ExpectEvidenceLocal(const core::Matcher& matcher, const LocalityCase& c) {
  const MatchSet positive = RestrictTo(c.positive, c.members);
  const MatchSet negative = RestrictTo(c.negative, c.members);
  EXPECT_EQ(matcher.Match(c.members, c.positive, c.negative),
            matcher.Match(c.members, positive, negative));
  EXPECT_EQ(matcher.MatchConditioned(c.members, c.positive, c.negative),
            matcher.MatchConditioned(c.members, positive, negative));
}

TEST_P(MatcherProperty, MlnEvidenceLocal) {
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  ExpectEvidenceLocal(matcher, MakeLocalityCase(instance));
}

TEST_P(MatcherProperty, RulesEvidenceLocal) {
  // With closure on, the non-candidate in-C evidence pair joins clusters.
  RandomInstance instance(GetParam());
  const LocalityCase c = MakeLocalityCase(instance);
  for (const bool closure : {false, true}) {
    rules::RulesConfig config;
    config.transitive_closure = closure;
    rules::RulesMatcher matcher(instance.dataset(), config);
    const EntityPair in_c(c.members.front(), c.members.back());
    EXPECT_FALSE(instance.dataset().FindCandidatePair(in_c.a, in_c.b));
    EXPECT_TRUE(matcher.Match(c.members, c.positive, c.negative)
                    .Contains(in_c));
    ExpectEvidenceLocal(matcher, c);
  }
}

TEST_P(MatcherProperty, CostModelEvidenceLocal) {
  RandomInstance instance(GetParam());
  mln::MlnMatcher inner(instance.dataset(), instance.weights());
  eval::CostModelMatcher matcher(inner, /*cost_scale_us=*/0.01);
  ExpectEvidenceLocal(matcher, MakeLocalityCase(instance));
}

TEST_P(MatcherProperty, ComputeMaximalEvidenceLocal) {
  RandomInstance instance(GetParam());
  const LocalityCase c = MakeLocalityCase(instance);
  const MatchSet local = RestrictTo(c.positive, c.members);
  mln::MlnMatcher mln_matcher(instance.dataset(), instance.weights());
  rules::RulesMatcher rules_matcher(instance.dataset());
  for (const core::Matcher* matcher :
       {static_cast<const core::Matcher*>(&mln_matcher),
        static_cast<const core::Matcher*>(&rules_matcher)}) {
    const MatchSet base = matcher->Match(c.members, c.positive);
    EXPECT_EQ(core::ComputeMaximal(*matcher, c.members, c.positive, base),
              core::ComputeMaximal(*matcher, c.members, local, base));
  }
}

// --------------------------------------------- Supermodularity (Def. 6) --

TEST_P(MatcherProperty, MlnScoreIsSupermodular) {
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  const auto& pairs = instance.dataset().candidate_pairs();
  if (pairs.size() < 3) return;
  // Random S ⊆ T and p ∉ T: ΔScore(p | T) >= ΔScore(p | S)  (log form of
  // PE(T ∪ p)/PE(T) >= PE(S ∪ p)/PE(S)).
  for (int trial = 0; trial < 20; ++trial) {
    MatchSet s, t;
    for (const auto& cp : pairs) {
      const double roll = instance.rng().NextDouble();
      if (roll < 0.25) {
        s.Insert(cp.pair);
        t.Insert(cp.pair);
      } else if (roll < 0.55) {
        t.Insert(cp.pair);
      }
    }
    const EntityPair p =
        pairs[instance.rng().NextBounded(pairs.size())].pair;
    if (t.Contains(p)) continue;
    const double delta_t = matcher.ScoreDelta(t, {p});
    const double delta_s = matcher.ScoreDelta(s, {p});
    EXPECT_GE(delta_t, delta_s - 1e-9);
  }
}

// --------------------------------------- Theorem 2: SMP on random covers --

TEST_P(MatcherProperty, SmpSoundAndConsistentForMln) {
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  const core::Cover cover = instance.RandomCover();
  const MatchSet full = matcher.MatchAll();

  const MatchSet reference = core::RunSmp(matcher, cover).matches;
  EXPECT_TRUE(reference.IsSubsetOf(full)) << "soundness violated";

  // Consistency: random permutations give the same output.
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<uint32_t> order(cover.size());
    for (uint32_t i = 0; i < cover.size(); ++i) order[i] = i;
    instance.rng().Shuffle(order);
    core::MpOptions options;
    options.initial_order = order;
    EXPECT_EQ(core::RunSmp(matcher, cover, options).matches, reference);
  }
}

TEST_P(MatcherProperty, SmpSoundForRules) {
  RandomInstance instance(GetParam());
  rules::RulesConfig config;
  config.transitive_closure = false;
  rules::RulesMatcher matcher(instance.dataset(), config);
  const core::Cover cover = instance.RandomCover();
  EXPECT_TRUE(
      core::RunSmp(matcher, cover).matches.IsSubsetOf(matcher.MatchAll()));
}

// --------------------------------------- Theorem 4: MMP on random covers --

TEST_P(MatcherProperty, MmpSoundAndConsistent) {
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  const core::Cover cover = instance.RandomCover();
  const MatchSet full = matcher.MatchAll();

  const MatchSet reference = core::RunMmp(matcher, cover).matches;
  EXPECT_TRUE(reference.IsSubsetOf(full)) << "soundness violated";

  for (int trial = 0; trial < 3; ++trial) {
    std::vector<uint32_t> order(cover.size());
    for (uint32_t i = 0; i < cover.size(); ++i) order[i] = i;
    instance.rng().Shuffle(order);
    core::MpOptions options;
    options.initial_order = order;
    EXPECT_EQ(core::RunMmp(matcher, cover, options).matches, reference);
  }
}

TEST_P(MatcherProperty, SchemeHierarchy) {
  // NO-MP ⊆ SMP ⊆ MMP for monotone matchers.
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  const core::Cover cover = instance.RandomCover();
  const MatchSet no_mp = core::RunNoMp(matcher, cover).matches;
  const MatchSet smp = core::RunSmp(matcher, cover).matches;
  const MatchSet mmp = core::RunMmp(matcher, cover).matches;
  EXPECT_TRUE(no_mp.IsSubsetOf(smp));
  EXPECT_TRUE(smp.IsSubsetOf(mmp));
}

TEST_P(MatcherProperty, UpperBoundDominatesFullRun) {
  // The provable form of the paper's UB argument: clamping every *other*
  // pair to the full run's own assignment keeps each matched pair matched
  // (supermodularity). With the ground truth as the clamping assignment
  // (the paper's UB) containment holds only when the full run has perfect
  // precision, so the property is asserted against the run itself.
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  const MatchSet full = matcher.MatchAll();
  EXPECT_TRUE(full.IsSubsetOf(eval::UpperBoundMatches(matcher, &full)));
}

TEST_P(MatcherProperty, MmpCompleteWhenCoverIsWhole) {
  // With a single neighborhood holding everything, MMP trivially equals
  // the full run — checks no over/under-reporting in the driver.
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  core::Cover cover;
  cover.Add(instance.AllEntities());
  EXPECT_EQ(core::RunMmp(matcher, cover).matches, matcher.MatchAll());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MatcherProperty,
                         ::testing::Range<uint64_t>(100, 140));

// -------------------------------------- Failure injection: bad matchers --

/// A deliberately NON-monotone matcher: matches a pair only when given NO
/// positive evidence (perverse). The framework must still terminate, just
/// without guarantees.
class PerverseMatcher : public core::Matcher {
 public:
  explicit PerverseMatcher(const data::Dataset& dataset)
      : dataset_(&dataset) {}

  MatchSet Match(const std::vector<EntityId>& entities,
                 const MatchSet& positive,
                 const MatchSet& negative) const override {
    (void)negative;
    MatchSet out;
    if (!positive.empty()) return out;  // Violates monotonicity.
    if (entities.size() >= 2) {
      out.Insert(EntityPair(entities[0], entities[1]));
    }
    return out;
  }

  const data::Dataset& dataset() const override { return *dataset_; }

 private:
  const data::Dataset* dataset_;
};

TEST(FailureInjectionTest, SmpTerminatesOnNonMonotoneMatcher) {
  RandomInstance instance(999);
  PerverseMatcher matcher(instance.dataset());
  const core::Cover cover = instance.RandomCover();
  core::MpOptions options;
  options.max_evaluations = 200;
  const core::MpResult result = core::RunSmp(matcher, cover, options);
  EXPECT_LE(result.neighborhood_evaluations, 200u);
}

}  // namespace
}  // namespace cem
