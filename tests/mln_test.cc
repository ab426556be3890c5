#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_set.h"
#include "data/bib_generator.h"
#include "data/dataset.h"
#include "data/figure1.h"
#include "mln/grounding.h"
#include "mln/map_inference.h"
#include "mln/mln_matcher.h"
#include "mln/mln_program.h"
#include "mln/weight_learner.h"
#include "util/random.h"

namespace cem::mln {
namespace {

using core::MatchSet;
using data::EntityId;
using data::EntityPair;

std::vector<EntityId> AllEntityVector(const data::Dataset& d) {
  std::vector<EntityId> out(d.num_entities());
  for (size_t i = 0; i < d.num_entities(); ++i) out[i] = i;
  return out;
}

// ------------------------------------------------------------- PairGraph --

TEST(PairGraphTest, Figure1SharedCoauthors) {
  data::Figure1 fig = data::MakeFigure1();
  const PairGraph graph = PairGraph::Build(*fig.dataset);
  const auto c1c2 = fig.dataset->FindCandidatePair(fig.c1, fig.c2);
  ASSERT_TRUE(c1c2.has_value());
  // c1 and c2 share exactly coauthor d1.
  EXPECT_EQ(graph.node(*c1c2).shared_coauthors,
            (std::vector<EntityId>{fig.d1}));
  // (a1,a2) share no coauthor.
  const auto a1a2 = fig.dataset->FindCandidatePair(fig.a1, fig.a2);
  ASSERT_TRUE(a1a2.has_value());
  EXPECT_TRUE(graph.node(*a1a2).shared_coauthors.empty());
}

TEST(PairGraphTest, Figure1Links) {
  data::Figure1 fig = data::MakeFigure1();
  const data::Dataset& d = *fig.dataset;
  const PairGraph graph = PairGraph::Build(d);
  auto id = [&](EntityId x, EntityId y) {
    auto found = d.FindCandidatePair(x, y);
    EXPECT_TRUE(found.has_value());
    return *found;
  };
  auto linked = [&](data::PairId p, data::PairId q) {
    const auto& links = graph.node(p).links;
    return std::find(links.begin(), links.end(), q) != links.end();
  };
  // The chain links of Section 2.1: (a1,a2)~(b2,b3)~(c2,c3).
  EXPECT_TRUE(linked(id(fig.a1, fig.a2), id(fig.b2, fig.b3)));
  EXPECT_TRUE(linked(id(fig.b2, fig.b3), id(fig.a1, fig.a2)));
  EXPECT_TRUE(linked(id(fig.b2, fig.b3), id(fig.c2, fig.c3)));
  // The SMP-recovery link: (b1,b2)~(c1,c2).
  EXPECT_TRUE(linked(id(fig.b1, fig.b2), id(fig.c1, fig.c2)));
  // No direct a-c link.
  EXPECT_FALSE(linked(id(fig.a1, fig.a2), id(fig.c2, fig.c3)));
}

TEST(PairGraphTest, GlobalThetaFigure1Demo) {
  data::Figure1 fig = data::MakeFigure1();
  const PairGraph graph = PairGraph::Build(*fig.dataset);
  const MlnWeights w = MlnWeights::Figure1Demo();
  // (c1,c2): R1 (-5) + one reflexive coauthor grounding via d1 (+8) = +3,
  // exactly the paper's Section 2.1 arithmetic.
  const auto c1c2 = *fig.dataset->FindCandidatePair(fig.c1, fig.c2);
  EXPECT_DOUBLE_EQ(graph.GlobalTheta(c1c2, w), 3.0);
  // (a1,a2): just R1 = -5.
  const auto a1a2 = *fig.dataset->FindCandidatePair(fig.a1, fig.a2);
  EXPECT_DOUBLE_EQ(graph.GlobalTheta(a1a2, w), -5.0);
}

// -------------------------------------------------------- MAP inference --

class Figure1Inference : public ::testing::Test {
 protected:
  Figure1Inference()
      : fig_(data::MakeFigure1()),
        graph_(PairGraph::Build(*fig_.dataset)),
        weights_(MlnWeights::Figure1Demo()) {}

  MatchSet Solve(const std::vector<EntityId>& entities,
                 const MatchSet& positive = MatchSet()) {
    std::unordered_set<EntityId> members(entities.begin(), entities.end());
    return SolveNeighborhoodMap(*fig_.dataset, graph_, weights_, members,
                                positive, MatchSet());
  }

  data::Figure1 fig_;
  PairGraph graph_;
  MlnWeights weights_;
};

TEST_F(Figure1Inference, NeighborhoodC3MatchesC1C2) {
  // Section 2.1: (c1,c2) is matched from c1, c2, d1 alone.
  MatchSet out = Solve(fig_.neighborhoods[2]);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(EntityPair(fig_.c1, fig_.c2)));
}

TEST_F(Figure1Inference, NeighborhoodC1FindsNothingAlone) {
  // Section 2.2: C1 alone has insufficient evidence (+8 vs -10).
  EXPECT_TRUE(Solve(fig_.neighborhoods[0]).empty());
}

TEST_F(Figure1Inference, NeighborhoodC2FindsNothingAlone) {
  EXPECT_TRUE(Solve(fig_.neighborhoods[1]).empty());
}

TEST_F(Figure1Inference, C2WithEvidenceMatchesB1B2) {
  // Section 2.2: given Match(c1,c2), C2 can match (b1,b2).
  MatchSet evidence;
  evidence.Insert(EntityPair(fig_.c1, fig_.c2));
  MatchSet out = Solve(fig_.neighborhoods[1], evidence);
  EXPECT_TRUE(out.Contains(EntityPair(fig_.b1, fig_.b2)));
  EXPECT_TRUE(out.Contains(EntityPair(fig_.c1, fig_.c2)));  // Evidence kept.
  // The chain pairs still need each other; evidence on (c1,c2) does not
  // unlock them.
  EXPECT_FALSE(out.Contains(EntityPair(fig_.b2, fig_.b3)));
}

TEST_F(Figure1Inference, FullRunFindsAllFivePairs) {
  // Section 2.1: the holistic optimum matches (c1,c2), (b1,b2) and the
  // whole chain {(a1,a2),(b2,b3),(c2,c3)} (net +1 for the chain).
  MatchSet out = Solve(AllEntityVector(*fig_.dataset));
  EXPECT_TRUE(out.Contains(EntityPair(fig_.c1, fig_.c2)));
  EXPECT_TRUE(out.Contains(EntityPair(fig_.b1, fig_.b2)));
  EXPECT_TRUE(out.Contains(EntityPair(fig_.a1, fig_.a2)));
  EXPECT_TRUE(out.Contains(EntityPair(fig_.b2, fig_.b3)));
  EXPECT_TRUE(out.Contains(EntityPair(fig_.c2, fig_.c3)));
  EXPECT_EQ(out.size(), 5u);
}

TEST_F(Figure1Inference, NegativeEvidenceBlocksMatch) {
  MatchSet negative;
  negative.Insert(EntityPair(fig_.c1, fig_.c2));
  std::unordered_set<EntityId> members(fig_.neighborhoods[2].begin(),
                                       fig_.neighborhoods[2].end());
  MatchSet out = SolveNeighborhoodMap(*fig_.dataset, graph_, weights_,
                                      members, MatchSet(), negative);
  EXPECT_TRUE(out.empty());
}

TEST_F(Figure1Inference, AgreesWithBruteForceOnFigure1) {
  for (const auto& neighborhood : fig_.neighborhoods) {
    std::unordered_set<EntityId> members(neighborhood.begin(),
                                         neighborhood.end());
    EXPECT_EQ(SolveNeighborhoodMap(*fig_.dataset, graph_, weights_, members,
                                   MatchSet(), MatchSet())
                  .SortedPairs(),
              BruteForceMap(*fig_.dataset, graph_, weights_, members,
                            MatchSet(), MatchSet())
                  .SortedPairs());
  }
}

// Randomised certification: the graph-cut solver equals brute force on
// random instances, with and without evidence.
class RandomInstance {
 public:
  explicit RandomInstance(uint64_t seed) : rng_(seed) {
    dataset_ = std::make_unique<data::Dataset>();
    const int num_refs = 6 + static_cast<int>(rng_.NextBounded(4));
    for (int i = 0; i < num_refs; ++i) {
      dataset_->AddAuthorRef("f" + std::to_string(i), "l",
                             static_cast<uint32_t>(rng_.NextBounded(3)));
    }
    // Random papers give a random coauthor graph.
    const int num_papers = 3 + static_cast<int>(rng_.NextBounded(4));
    for (int p = 0; p < num_papers; ++p) {
      const EntityId paper = dataset_->AddPaper("p" + std::to_string(p));
      const int k = 2 + static_cast<int>(rng_.NextBounded(2));
      for (int j = 0; j < k; ++j) {
        dataset_->AddAuthored(
            static_cast<EntityId>(rng_.NextBounded(num_refs)), paper);
      }
    }
    dataset_->Finalize();
    // Random candidate pairs.
    for (int a = 0; a < num_refs; ++a) {
      for (int b = a + 1; b < num_refs; ++b) {
        if (rng_.NextBernoulli(0.4)) {
          dataset_->AddCandidatePair(
              a, b,
              static_cast<text::SimilarityLevel>(1 + rng_.NextBounded(3)));
        }
      }
    }
    dataset_->FinalizeCandidatePairs();
    // Random weights; coauthor weight stays attractive.
    weights_.w_sim[1] = -6.0 + rng_.NextDouble() * 8.0;
    weights_.w_sim[2] = -6.0 + rng_.NextDouble() * 10.0;
    weights_.w_sim[3] = -2.0 + rng_.NextDouble() * 10.0;
    weights_.w_coauthor = rng_.NextDouble() * 6.0;
  }

  data::Dataset& dataset() { return *dataset_; }
  const MlnWeights& weights() const { return weights_; }
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  std::unique_ptr<data::Dataset> dataset_;
  MlnWeights weights_;
};

class MapSolverProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MapSolverProperty, GraphCutEqualsBruteForce) {
  RandomInstance instance(GetParam());
  data::Dataset& d = instance.dataset();
  const PairGraph graph = PairGraph::Build(d);

  // Random entity subset (sometimes everything) and random evidence.
  std::unordered_set<EntityId> members;
  for (size_t e = 0; e < d.num_entities(); ++e) {
    if (instance.rng().NextBernoulli(0.8)) {
      members.insert(static_cast<EntityId>(e));
    }
  }
  MatchSet positive, negative;
  for (const auto& cp : d.candidate_pairs()) {
    const double roll = instance.rng().NextDouble();
    if (roll < 0.1) {
      positive.Insert(cp.pair);
    } else if (roll < 0.2) {
      negative.Insert(cp.pair);
    }
  }

  const MatchSet cut = SolveNeighborhoodMap(d, graph, instance.weights(),
                                            members, positive, negative);
  const MatchSet brute = BruteForceMap(d, graph, instance.weights(), members,
                                       positive, negative);
  EXPECT_EQ(cut.SortedPairs(), brute.SortedPairs()) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MapSolverProperty,
                         ::testing::Range<uint64_t>(0, 40));

// --------------------------------------------- Per-thread model reuse --
// MlnMatcher keeps the last induced model per thread; reuse must never show
// in an answer. Every answer below is checked against BruteForceMap, which
// builds its own model from scratch.

/// A random neighborhood: each entity of `d` with probability 0.7.
std::vector<EntityId> RandomNeighborhood(const data::Dataset& d, Rng& rng) {
  std::vector<EntityId> out;
  for (size_t e = 0; e < d.num_entities(); ++e) {
    if (rng.NextBernoulli(0.7)) out.push_back(static_cast<EntityId>(e));
  }
  return out;
}

/// Checks matcher.Match and a conditioned re-run on `entities` against
/// brute force over `d` with `weights`.
void ExpectFreshAnswers(const MlnMatcher& matcher, const data::Dataset& d,
                        const MlnWeights& weights,
                        const std::vector<EntityId>& entities,
                        const MatchSet& positive, const MatchSet& negative) {
  const PairGraph graph = PairGraph::Build(d);
  const std::unordered_set<EntityId> members(entities.begin(), entities.end());
  EXPECT_EQ(matcher.Match(entities, positive, negative).SortedPairs(),
            BruteForceMap(d, graph, weights, members, positive, negative)
                .SortedPairs());
  for (const auto& cp : d.candidate_pairs()) {
    if (!members.count(cp.pair.a) || !members.count(cp.pair.b) ||
        positive.Contains(cp.pair) || negative.Contains(cp.pair)) {
      continue;
    }
    MatchSet with_p = positive;
    with_p.Insert(cp.pair);
    EXPECT_EQ(matcher.MatchConditioned(entities, with_p, negative)
                  .SortedPairs(),
              BruteForceMap(d, graph, weights, members, with_p, negative)
                  .SortedPairs());
    break;  // One hypothesis per call site keeps the interleaving tight.
  }
}

class ModelReuseProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelReuseProperty, AlternatingNeighborhoodsMatchBruteForce) {
  RandomInstance instance(GetParam());
  const data::Dataset& d = instance.dataset();
  MlnMatcher matcher(d, instance.weights());
  const std::vector<EntityId> a = RandomNeighborhood(d, instance.rng());
  const std::vector<EntityId> b = RandomNeighborhood(d, instance.rng());
  MatchSet positive, negative;
  for (const auto& cp : d.candidate_pairs()) {
    const double roll = instance.rng().NextDouble();
    if (roll < 0.1) {
      positive.Insert(cp.pair);
    } else if (roll < 0.2) {
      negative.Insert(cp.pair);
    }
  }
  for (int round = 0; round < 3; ++round) {
    ExpectFreshAnswers(matcher, d, instance.weights(), a, positive, negative);
    ExpectFreshAnswers(matcher, d, instance.weights(), b, MatchSet(),
                       negative);
    ExpectFreshAnswers(matcher, d, instance.weights(), a, MatchSet(),
                       MatchSet());
  }
}

TEST_P(ModelReuseProperty, MatchersOverDifferentDatasetsShareNoModel) {
  // Same entity-id list, different datasets: a cache keyed by the entity
  // list alone would answer one matcher with the other's model.
  RandomInstance first(GetParam());
  RandomInstance second(GetParam() + 1000);
  const size_t n = std::min(first.dataset().num_entities(),
                            second.dataset().num_entities());
  std::vector<EntityId> entities(n);
  for (size_t i = 0; i < n; ++i) entities[i] = static_cast<EntityId>(i);
  MlnMatcher m1(first.dataset(), first.weights());
  MlnMatcher m2(second.dataset(), second.weights());
  for (int round = 0; round < 3; ++round) {
    ExpectFreshAnswers(m1, first.dataset(), first.weights(), entities,
                       MatchSet(), MatchSet());
    ExpectFreshAnswers(m2, second.dataset(), second.weights(), entities,
                       MatchSet(), MatchSet());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ModelReuseProperty,
                         ::testing::Range<uint64_t>(0, 20));

TEST(ModelReuseTest, RecreatedMatcherAtTheSameAddressGetsItsOwnModel) {
  // A matcher created where a destroyed one lived, over the same dataset
  // but different weights: a cache keyed by address would reuse the old
  // model's induced unary weights.
  data::Figure1 fig = data::MakeFigure1();
  const std::vector<EntityId> all = AllEntityVector(*fig.dataset);
  MlnWeights flat = MlnWeights::Figure1Demo();
  flat.w_coauthor = 0.0;  // No coauthor support: nothing matches.
  std::optional<MlnMatcher> slot;
  slot.emplace(*fig.dataset, MlnWeights::Figure1Demo());
  EXPECT_EQ(slot->Match(all).size(), 5u);
  const MlnMatcher* address = &*slot;
  slot.reset();
  slot.emplace(*fig.dataset, flat);
  ASSERT_EQ(&*slot, address);
  EXPECT_TRUE(slot->Match(all).empty());
  EXPECT_TRUE(slot->MatchConditioned(all, MatchSet(), MatchSet()).empty());
  slot.reset();
  slot.emplace(*fig.dataset, MlnWeights::Figure1Demo());
  EXPECT_EQ(slot->Match(all).size(), 5u);
}

// ------------------------------------------------------------ MlnMatcher --

TEST(MlnMatcherTest, ScoreMatchesPaperArithmetic) {
  data::Figure1 fig = data::MakeFigure1();
  MlnMatcher matcher(*fig.dataset, MlnWeights::Figure1Demo());
  MatchSet single;
  single.Insert(EntityPair(fig.c1, fig.c2));
  EXPECT_DOUBLE_EQ(matcher.Score(single), 3.0);  // -5 + 8.
  EXPECT_DOUBLE_EQ(matcher.Score(MatchSet()), 0.0);

  // The chain: 3 * (-5) + 2 links * 8 = +1 (the paper's "net +1").
  MatchSet chain;
  chain.Insert(EntityPair(fig.a1, fig.a2));
  chain.Insert(EntityPair(fig.b2, fig.b3));
  chain.Insert(EntityPair(fig.c2, fig.c3));
  EXPECT_DOUBLE_EQ(matcher.Score(chain), 1.0);

  // Any single chain pair or 2-subset is negative.
  MatchSet sub;
  sub.Insert(EntityPair(fig.a1, fig.a2));
  EXPECT_DOUBLE_EQ(matcher.Score(sub), -5.0);
  sub.Insert(EntityPair(fig.b2, fig.b3));
  EXPECT_DOUBLE_EQ(matcher.Score(sub), -2.0);
}

TEST(MlnMatcherTest, ScoreDeltaConsistentWithScore) {
  data::Figure1 fig = data::MakeFigure1();
  MlnMatcher matcher(*fig.dataset, MlnWeights::Figure1Demo());
  MatchSet base;
  base.Insert(EntityPair(fig.c1, fig.c2));
  std::vector<EntityPair> additions = {EntityPair(fig.b1, fig.b2),
                                       EntityPair(fig.b2, fig.b3)};
  MatchSet combined = base;
  for (const auto& p : additions) combined.Insert(p);
  EXPECT_NEAR(matcher.ScoreDelta(base, additions),
              matcher.Score(combined) - matcher.Score(base), 1e-9);
}

TEST(MlnMatcherTest, ScoreDeltaIgnoresDuplicates) {
  data::Figure1 fig = data::MakeFigure1();
  MlnMatcher matcher(*fig.dataset, MlnWeights::Figure1Demo());
  MatchSet base;
  base.Insert(EntityPair(fig.c1, fig.c2));
  // Adding an already-present pair changes nothing.
  EXPECT_DOUBLE_EQ(
      matcher.ScoreDelta(base, {EntityPair(fig.c1, fig.c2)}), 0.0);
  // Duplicate entries in the additions count once.
  EXPECT_DOUBLE_EQ(
      matcher.ScoreDelta(base, {EntityPair(fig.b1, fig.b2),
                                EntityPair(fig.b1, fig.b2)}),
      matcher.ScoreDelta(base, {EntityPair(fig.b1, fig.b2)}));
}

TEST(MlnMatcherTest, MatchAllEqualsNeighborhoodSolveOnEverything) {
  data::Figure1 fig = data::MakeFigure1();
  MlnMatcher matcher(*fig.dataset, MlnWeights::Figure1Demo());
  EXPECT_EQ(matcher.MatchAll().size(), 5u);
}

TEST(MlnMatcherTest, RunCountersAdvance) {
  data::Figure1 fig = data::MakeFigure1();
  MlnMatcher matcher(*fig.dataset, MlnWeights::Figure1Demo());
  matcher.ResetCounters();
  matcher.Match(fig.neighborhoods[0]);
  matcher.Match(fig.neighborhoods[1]);
  EXPECT_EQ(matcher.num_runs(), 2u);
  EXPECT_GT(matcher.total_free_variables(), 0u);
}

// --------------------------------------------------------- WeightLearner --

TEST(WeightLearnerTest, RecoversQualitativeShape) {
  auto dataset = data::GenerateBibDataset(data::BibConfig::DblpLike(0.3));
  const MlnWeights learned = LearnWeights(*dataset);
  // Level 3 (near-identical names) must be strong positive evidence;
  // level 1 weak-to-negative; the coauthor rule attractive.
  EXPECT_GT(learned.w_sim[3], 0.0);
  EXPECT_LT(learned.w_sim[1], learned.w_sim[3]);
  EXPECT_GT(learned.w_coauthor, 0.0);
}

TEST(WeightLearnerTest, LearnedWeightsYieldReasonableMatcher) {
  auto dataset = data::GenerateBibDataset(data::BibConfig::DblpLike(0.3));
  MlnMatcher matcher(*dataset, LearnWeights(*dataset));
  const MatchSet out = matcher.MatchAll();
  // A sane learned matcher finds a substantial share of true matches with
  // high precision.
  size_t tp = 0;
  for (uint64_t key : out.keys()) {
    tp += dataset->IsTrueMatch(data::PairFromKey(key)) ? 1 : 0;
  }
  ASSERT_GT(out.size(), 0u);
  EXPECT_GT(static_cast<double>(tp) / out.size(), 0.8);
}

}  // namespace
}  // namespace cem::mln
