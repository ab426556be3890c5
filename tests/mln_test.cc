#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
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

/// Checks PairGraph::Build against the cross-product grounding: shared
/// coauthors by intersection, links by one FindCandidatePair probe per
/// (coauthor c of e1, coauthor d of e2).
void ExpectGraphMatchesProbeReference(const data::Dataset& d) {
  const PairGraph graph = PairGraph::Build(d);
  ASSERT_EQ(graph.num_nodes(), d.num_candidate_pairs());
  size_t directed = 0;
  for (data::PairId id = 0; id < d.num_candidate_pairs(); ++id) {
    const EntityPair p = d.candidate_pair(id).pair;
    const std::vector<EntityId>& co_a = d.Coauthors(p.a);
    const std::vector<EntityId>& co_b = d.Coauthors(p.b);
    std::vector<EntityId> shared;
    std::set_intersection(co_a.begin(), co_a.end(), co_b.begin(), co_b.end(),
                          std::back_inserter(shared));
    std::vector<data::PairId> links;
    for (EntityId c : co_a) {
      for (EntityId e : co_b) {
        const auto q = d.FindCandidatePair(c, e);
        if (c != e && q.has_value() && *q != id) links.push_back(*q);
      }
    }
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    EXPECT_EQ(graph.node(id).pair, p);
    EXPECT_EQ(graph.node(id).shared_coauthors, shared) << "pair " << id;
    EXPECT_EQ(graph.node(id).links, links) << "pair " << id;
    directed += links.size();
  }
  EXPECT_EQ(graph.num_links(), directed / 2);
}

TEST(PairGraphTest, BuildMatchesProbeReferenceOnBibCorpora) {
  for (const data::BibConfig& config :
       {data::BibConfig::HepthLike(0.3), data::BibConfig::DblpLike(0.3)}) {
    const auto dataset = data::GenerateBibDataset(config);
    ExpectGraphMatchesProbeReference(*dataset);
  }
}

TEST(PairGraphTest, CoauthoredPairIsNotItsOwnLink) {
  // (a1, a2) is a candidate pair whose references coauthored paper p, so
  // a2 is a coauthor of a1 and a1 one of a2: the pair's own endpoints are
  // a (coauthor of e1, coauthor of e2) combination, and must not link it
  // to itself. Its one link is (b1, b2), via a1-b1 on q and a2-b2 on r.
  data::Dataset d;
  const EntityId a1 = d.AddAuthorRef("J.", "Smith");
  const EntityId a2 = d.AddAuthorRef("John", "Smith");
  const EntityId b1 = d.AddAuthorRef("A.", "Jones");
  const EntityId b2 = d.AddAuthorRef("Ann", "Jones");
  const EntityId p = d.AddPaper("p");
  const EntityId q = d.AddPaper("q");
  const EntityId r = d.AddPaper("r");
  d.AddAuthored(a1, p);
  d.AddAuthored(a2, p);
  d.AddAuthored(a1, q);
  d.AddAuthored(b1, q);
  d.AddAuthored(a2, r);
  d.AddAuthored(b2, r);
  d.Finalize();
  d.AddCandidatePair(a1, a2, text::SimilarityLevel::kMedium);
  d.AddCandidatePair(b1, b2, text::SimilarityLevel::kMedium);
  d.FinalizeCandidatePairs();
  const data::PairId aa = *d.FindCandidatePair(a1, a2);
  const data::PairId bb = *d.FindCandidatePair(b1, b2);
  const PairGraph graph = PairGraph::Build(d);
  EXPECT_EQ(graph.node(aa).links, (std::vector<data::PairId>{bb}));
  EXPECT_EQ(graph.node(bb).links, (std::vector<data::PairId>{aa}));
  EXPECT_EQ(graph.num_links(), 1u);
  ExpectGraphMatchesProbeReference(d);
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

// ------------------------------------- Per-thread scratch table hygiene --
// BuildInducedModel marks C's members in a per-thread bitmap and its
// variables' positions in a per-thread PairId table, and must leave both
// all-zero: a bit left over from an earlier call would make that call's
// members look like members of the next C, and a position left over would
// turn a link to a non-variable into a link. Every build below follows the
// previous one on this thread and is compared with a reference builder
// that binary-searches the sorted members.

InducedModel ReferenceModel(const data::Dataset& d, const PairGraph& graph,
                            const MlnWeights& weights,
                            const std::vector<EntityId>& members) {
  const auto in = [&](EntityId e) {
    return std::binary_search(members.begin(), members.end(), e);
  };
  InducedModel model;
  for (data::PairId id = 0; id < d.num_candidate_pairs(); ++id) {
    const EntityPair p = graph.node(id).pair;
    if (in(p.a) && in(p.b)) model.vars.push_back(id);
  }
  for (size_t i = 0; i < model.vars.size(); ++i) {
    const PairGraph::Node& node = graph.node(model.vars[i]);
    double theta = weights.SimWeight(node.level);
    for (EntityId c : node.shared_coauthors) {
      if (in(c)) theta += weights.w_coauthor;
    }
    model.theta.push_back(theta);
    for (data::PairId q : node.links) {
      const auto it = std::lower_bound(model.vars.begin(), model.vars.end(), q);
      if (q > model.vars[i] && it != model.vars.end() && *it == q) {
        model.links.emplace_back(static_cast<int>(i),
                                 static_cast<int>(it - model.vars.begin()));
      }
    }
  }
  return model;
}

/// One model-graph of a dataset, built once per test.
struct ModelInputs {
  std::unique_ptr<data::Dataset> dataset;
  PairGraph graph;
  MlnWeights weights = MlnWeights::PaperLearned();

  explicit ModelInputs(double scale, uint64_t seed) {
    data::BibConfig config = data::BibConfig::DblpLike(scale);
    config.seed = seed;
    dataset = data::GenerateBibDataset(config);
    graph = PairGraph::Build(*dataset);
  }

  /// BuildInducedModel on `members` must equal the reference builder.
  void ExpectBuildMatchesReference(const std::vector<EntityId>& members,
                                   const std::string& label) const {
    const InducedModel got =
        BuildInducedModel(*dataset, graph, weights, members);
    const InducedModel want =
        ReferenceModel(*dataset, graph, weights, members);
    EXPECT_EQ(got.vars, want.vars) << label;
    EXPECT_EQ(got.theta, want.theta) << label;
    EXPECT_EQ(got.links, want.links) << label;
  }

  /// True if the entities of `stale` that exist in this dataset, left
  /// marked beside `members`, would add variables to its model — i.e. the
  /// build order under test can expose a stale bit at all.
  bool StaleBitsWouldShow(const std::vector<EntityId>& members,
                          const std::vector<EntityId>& stale) const {
    std::vector<EntityId> marked;
    std::set_union(members.begin(), members.end(), stale.begin(),
                   stale.end(), std::back_inserter(marked));
    marked.erase(std::lower_bound(marked.begin(), marked.end(),
                                  dataset->num_entities()),
                 marked.end());
    return ReferenceModel(*dataset, graph, weights, marked).vars.size() >
           ReferenceModel(*dataset, graph, weights, members).vars.size();
  }

  /// The reference model's variables over `members`.
  std::vector<data::PairId> VarsOf(const std::vector<EntityId>& members) const {
    return ReferenceModel(*dataset, graph, weights, members).vars;
  }

  /// True if positions left set for the PairIds `stale` (ascending) beside
  /// the model of `members` would change it: one of its variables links to
  /// a higher PairId that is no variable but is one of `stale`.
  bool StalePositionsWouldShow(const std::vector<EntityId>& members,
                               const std::vector<data::PairId>& stale) const {
    const std::vector<data::PairId> vars = VarsOf(members);
    for (data::PairId id : vars) {
      for (data::PairId q : graph.node(id).links) {
        if (q > id && !std::binary_search(vars.begin(), vars.end(), q) &&
            std::binary_search(stale.begin(), stale.end(), q)) {
          return true;
        }
      }
    }
    return false;
  }
};

/// Sorted author references of `d`, every `stride`-th from `offset`.
std::vector<EntityId> EveryNthRef(const data::Dataset& d, size_t offset,
                                  size_t stride) {
  std::vector<EntityId> refs = d.author_refs();
  std::sort(refs.begin(), refs.end());
  std::vector<EntityId> out;
  for (size_t i = offset; i < refs.size(); i += stride) out.push_back(refs[i]);
  return out;
}

TEST(MembershipBitmap, NeighborhoodThenSubsetThenDisjointLeavesNoStaleBits) {
  const ModelInputs in(0.05, 7);
  const std::vector<EntityId> refs = EveryNthRef(*in.dataset, 0, 1);
  const std::vector<EntityId> full(refs.begin(),
                                   refs.begin() + refs.size() / 2);
  std::vector<EntityId> subset;
  for (size_t i = 0; i < full.size(); i += 2) subset.push_back(full[i]);
  const std::vector<EntityId> disjoint(refs.begin() + refs.size() / 2,
                                       refs.end());
  ASSERT_TRUE(in.StaleBitsWouldShow(subset, full));
  ASSERT_TRUE(in.StaleBitsWouldShow(disjoint, subset));
  ASSERT_TRUE(in.StaleBitsWouldShow(full, disjoint));
  for (int round = 0; round < 2; ++round) {
    const std::string label = "round " + std::to_string(round);
    in.ExpectBuildMatchesReference(full, label + ", neighborhood");
    in.ExpectBuildMatchesReference(subset, label + ", strict subset");
    in.ExpectBuildMatchesReference(disjoint, label + ", disjoint");
  }
}

TEST(MembershipBitmap, DatasetsOfDifferentSizesLeaveNoStaleBits) {
  // Large then small, small then large: the bitmap sized for one dataset
  // serves the next, and grows (all-zero) when a larger one follows.
  const ModelInputs small(0.03, 11);
  const ModelInputs large(0.12, 12);
  ASSERT_GT(large.dataset->num_entities(),
            small.dataset->num_entities() + 64);
  const std::vector<EntityId> small_all = EveryNthRef(*small.dataset, 0, 1);
  const std::vector<EntityId> small_half = EveryNthRef(*small.dataset, 1, 2);
  const std::vector<EntityId> large_all = EveryNthRef(*large.dataset, 0, 1);
  const std::vector<EntityId> large_half = EveryNthRef(*large.dataset, 1, 2);
  ASSERT_TRUE(small.StaleBitsWouldShow(small_half, large_all));
  ASSERT_TRUE(large.StaleBitsWouldShow(large_half, small_all));
  for (int round = 0; round < 2; ++round) {
    const std::string label = "round " + std::to_string(round);
    large.ExpectBuildMatchesReference(large_all, label + ", large");
    small.ExpectBuildMatchesReference(small_half, label + ", then small");
    small.ExpectBuildMatchesReference(small_all, label + ", small");
    large.ExpectBuildMatchesReference(large_half, label + ", then large");
  }
}

TEST(PositionTable, DatasetsOfDifferentSizesLeaveNoStalePositions) {
  // Many candidate pairs, then fewer, then many again: the table sized for
  // the first dataset serves the second, so every position a build sets
  // must be clear before the next build reads its links.
  const ModelInputs many(0.12, 21);
  const ModelInputs few(0.03, 22);
  ASSERT_GT(many.dataset->num_candidate_pairs(),
            few.dataset->num_candidate_pairs());
  const std::vector<EntityId> many_all = EveryNthRef(*many.dataset, 0, 1);
  const std::vector<EntityId> many_half = EveryNthRef(*many.dataset, 1, 2);
  const std::vector<EntityId> few_half = EveryNthRef(*few.dataset, 0, 2);
  ASSERT_TRUE(few.StalePositionsWouldShow(few_half, many.VarsOf(many_all)));
  ASSERT_TRUE(many.StalePositionsWouldShow(many_half, few.VarsOf(few_half)));
  for (int round = 0; round < 2; ++round) {
    const std::string label = "round " + std::to_string(round);
    many.ExpectBuildMatchesReference(many_all, label + ", many pairs");
    few.ExpectBuildMatchesReference(few_half, label + ", then fewer");
    many.ExpectBuildMatchesReference(many_half, label + ", then many again");
  }
}

#if !defined(NDEBUG) || defined(CEM_ENABLE_DCHECKS)
TEST(MembershipBitmapDeathTest, DuplicateMembersFailTheDcheck) {
  // A duplicate member would emit its pairs twice; builds that enable
  // CEM_DCHECK reject it up front.
  data::Figure1 fig = data::MakeFigure1();
  const PairGraph graph = PairGraph::Build(*fig.dataset);
  const std::vector<EntityId> members = {fig.a1, fig.a1, fig.a2};
  EXPECT_DEATH(BuildInducedModel(*fig.dataset, graph,
                                 MlnWeights::Figure1Demo(), members),
               "sorted, duplicate-free");
}
#endif

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
