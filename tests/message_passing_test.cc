#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/canopy.h"
#include "core/cover.h"
#include "core/match_set.h"
#include "core/maximal_message.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "data/figure1.h"
#include "mln/mln_matcher.h"
#include "util/random.h"

namespace cem::core {
namespace {

using data::EntityId;
using data::EntityPair;

class Figure1Mp : public ::testing::Test {
 protected:
  Figure1Mp()
      : fig_(data::MakeFigure1()),
        matcher_(*fig_.dataset, mln::MlnWeights::Figure1Demo()) {
    for (const auto& n : fig_.neighborhoods) cover_.Add(n);
  }

  EntityPair P(EntityId a, EntityId b) const { return EntityPair(a, b); }

  data::Figure1 fig_;
  mln::MlnMatcher matcher_;
  Cover cover_;
};

// ------------------------------------------------------------- MatchSet --

TEST(MatchSetTest, InsertContainsErase) {
  MatchSet s;
  EXPECT_TRUE(s.Insert(EntityPair(1, 2)));
  EXPECT_FALSE(s.Insert(EntityPair(2, 1)));  // Normalised duplicate.
  EXPECT_TRUE(s.Contains(EntityPair(2, 1)));
  EXPECT_TRUE(s.Erase(EntityPair(1, 2)));
  EXPECT_TRUE(s.empty());
}

TEST(MatchSetTest, SetAlgebra) {
  MatchSet a({EntityPair(1, 2), EntityPair(3, 4)});
  MatchSet b({EntityPair(3, 4), EntityPair(5, 6)});
  EXPECT_EQ(a.IntersectionSize(b), 1u);
  EXPECT_EQ(a.Difference(b), (std::vector<EntityPair>{EntityPair(1, 2)}));
  MatchSet c = a;
  EXPECT_EQ(c.InsertAll(b), 1u);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_TRUE(a.IsSubsetOf(c));
  EXPECT_FALSE(c.IsSubsetOf(a));
}

/// `s` must hold exactly `want`: same size, every key found, none extra,
/// and iteration visits each key once.
void ExpectSameKeys(const MatchSet& s, const std::set<uint64_t>& want,
                    const std::string& label) {
  ASSERT_EQ(s.size(), want.size()) << label;
  std::vector<uint64_t> seen(s.keys().begin(), s.keys().end());
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen, std::vector<uint64_t>(want.begin(), want.end())) << label;
  for (uint64_t key : want) {
    ASSERT_TRUE(s.Contains(data::PairFromKey(key))) << label;
    ASSERT_EQ(s.keys().count(key), 1u) << label;
  }
}

static_assert(std::forward_iterator<MatchSet::const_iterator>);

/// `n` pairs whose Fibonacci hash has its top eight bits set: each homes in
/// the last slot of any table up to 256 slots, so a few of them together
/// fill a probe run that wraps past the table's end.
std::vector<EntityPair> LastSlotPairs(size_t n) {
  std::vector<EntityPair> out;
  for (EntityId b = 1; out.size() < n; ++b) {
    const uint64_t key = data::PairKey(EntityPair(0, b));
    if ((key * 0x9e3779b97f4a7c15ULL) >> 56 == 0xff) {
      out.push_back(EntityPair(0, b));
    }
  }
  return out;
}

TEST(MatchSetTest, AgreesWithStdSetUnderRandomOperations) {
  // Pairs over a few entities plus eight that home in the last slot, so
  // inserts and erases keep hitting the same keys and probe runs keep
  // wrapping past the table's end. Each run fills and drains the set in
  // turns of 500 operations, clears it once, and restarts from a new set
  // once, so the table grows from empty several times.
  const std::vector<EntityPair> wrapping = LastSlotPairs(8);
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    MatchSet s;
    std::set<uint64_t> want;
    const int64_t range = 4 + static_cast<int64_t>(seed);
    const auto random_pair = [&] {
      if (rng.NextBernoulli(0.25)) {
        return wrapping[rng.NextBounded(wrapping.size())];
      }
      return EntityPair(static_cast<EntityId>(rng.NextInt(0, range - 1)),
                        static_cast<EntityId>(rng.NextInt(0, range - 1)));
    };
    for (int op = 0; op < 6000; ++op) {
      const std::string label =
          "seed " + std::to_string(seed) + ", op " + std::to_string(op);
      const double insert_share = (op / 500) % 2 == 0 ? 0.7 : 0.3;
      const EntityPair p = random_pair();
      const uint64_t key = data::PairKey(p);
      const double dice = rng.NextDouble();
      if (op == 2000) {
        s.clear();
        want.clear();
      } else if (op == 4000) {
        s = MatchSet();
        want.clear();
      } else if (dice < insert_share) {
        ASSERT_EQ(s.Insert(p), want.insert(key).second) << label;
      } else if (dice < 0.95) {
        ASSERT_EQ(s.Erase(p), want.erase(key) == 1) << label;
      } else {
        MatchSet batch;
        for (int k = 0; k < 6; ++k) batch.Insert(random_pair());
        size_t added = 0;
        for (uint64_t b : batch.keys()) added += want.insert(b).second;
        ASSERT_EQ(s.InsertAll(batch), added) << label;
      }
      const EntityPair probe = random_pair();
      ASSERT_EQ(s.Contains(probe), want.count(data::PairKey(probe)) == 1)
          << label;
      ASSERT_EQ(s.size(), want.size()) << label;
      if (op % 50 == 0) ExpectSameKeys(s, want, label);
    }
    ExpectSameKeys(s, want, "seed " + std::to_string(seed) + ", end");
  }
}

TEST(MatchSetTest, EraseKeepsWrappedProbeRunsReachable) {
  // Four pairs homed in the last slot fill a probe run that wraps past the
  // end. Erasing any one of them must shift the rest back so each stays
  // reachable from its home.
  const std::vector<EntityPair> last_slot = LastSlotPairs(4);
  for (size_t gone = 0; gone < last_slot.size(); ++gone) {
    MatchSet s;
    std::set<uint64_t> want;
    for (const EntityPair& p : last_slot) {
      s.Insert(p);
      want.insert(data::PairKey(p));
    }
    ASSERT_TRUE(s.Erase(last_slot[gone]));
    want.erase(data::PairKey(last_slot[gone]));
    ExpectSameKeys(s, want, "erased key " + std::to_string(gone));
    EXPECT_FALSE(s.Contains(last_slot[gone]));
    EXPECT_FALSE(s.Erase(last_slot[gone]));
  }
}

TEST(MatchSetTest, EqualityIgnoresInsertionHistory) {
  Rng rng(77);
  std::vector<EntityPair> pairs;
  for (EntityId a = 0; a < 30; ++a) pairs.push_back(EntityPair(a, a * 7 + 3));
  // `direct` inserts the pairs once, in order. `churned` inserts them
  // shuffled, beside extras that make it grow twice as far, then erases
  // the extras.
  const MatchSet direct(pairs);
  MatchSet churned;
  std::vector<EntityPair> shuffled = pairs;
  rng.Shuffle(shuffled);
  for (size_t i = 0; i < shuffled.size(); ++i) {
    churned.Insert(shuffled[i]);
    churned.Insert(EntityPair(1000 + static_cast<EntityId>(i), 5000));
    churned.Insert(EntityPair(2000 + static_cast<EntityId>(i), 6000));
  }
  for (size_t i = 0; i < shuffled.size(); ++i) {
    churned.Erase(EntityPair(2000 + static_cast<EntityId>(i), 6000));
    churned.Erase(EntityPair(1000 + static_cast<EntityId>(i), 5000));
  }
  EXPECT_TRUE(direct == churned);
  EXPECT_TRUE(churned == direct);
  EXPECT_EQ(direct.SortedPairs(), churned.SortedPairs());
  MatchSet other = churned;
  other.Erase(pairs[4]);
  other.Insert(EntityPair(4, 999));
  EXPECT_FALSE(direct == other);
  EXPECT_FALSE(other == direct);
  MatchSet moved = std::move(churned);
  EXPECT_TRUE(moved == direct);
  EXPECT_TRUE(churned.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(churned.Insert(pairs[0]));
  EXPECT_EQ(churned.size(), 1u);
}

TEST(MatchSetTest, ExtremeAndSelfPairKeys) {
  const std::vector<EntityPair> extremes = {
      EntityPair(0, 1), EntityPair(0xfffffffe, 0xffffffff), EntityPair(0, 0),
      EntityPair(0xffffffff, 0xffffffff), EntityPair(12, 12)};
  MatchSet s;
  std::set<uint64_t> want;
  for (const EntityPair& p : extremes) {
    EXPECT_TRUE(s.Insert(p));
    EXPECT_FALSE(s.Insert(p));
    want.insert(data::PairKey(p));
  }
  ExpectSameKeys(s, want, "all inserted");
  EXPECT_EQ(s.SortedPairs(),
            (std::vector<EntityPair>{EntityPair(0, 0), EntityPair(0, 1),
                                     EntityPair(12, 12),
                                     EntityPair(0xfffffffe, 0xffffffff),
                                     EntityPair(0xffffffff, 0xffffffff)}));
  for (const EntityPair& p : extremes) {
    EXPECT_TRUE(s.Erase(p));
    want.erase(data::PairKey(p));
    ExpectSameKeys(s, want, "erased one");
  }
  EXPECT_TRUE(s.empty());
}

TEST(MatchSetDeathTest, TheSentinelKeyFailsTheCheck) {
  // Only an unnormalised pair can carry the empty-slot key.
  EntityPair raw;
  raw.a = 0xffffffff;
  raw.b = 0;
  ASSERT_EQ(data::PairKey(raw), MatchSet::kEmptyKey);
  MatchSet s;
  EXPECT_DEATH(s.Insert(raw), "not normalised");
}

TEST(MatchSetTest, TransitiveClosureCompletesComponents) {
  MatchSet s({EntityPair(1, 2), EntityPair(2, 3), EntityPair(7, 8)});
  MatchSet closed = TransitiveClosure(s);
  EXPECT_TRUE(closed.Contains(EntityPair(1, 3)));
  EXPECT_TRUE(closed.Contains(EntityPair(7, 8)));
  EXPECT_EQ(closed.size(), 4u);
}

TEST(MatchSetTest, TransitiveClosureOfClosedSetIsIdentity) {
  MatchSet s({EntityPair(1, 2), EntityPair(2, 3), EntityPair(1, 3)});
  EXPECT_EQ(TransitiveClosure(s), s);
}

// ----------------------------------------------------------------- NO-MP --

TEST_F(Figure1Mp, NoMpFindsOnlyC1C2) {
  // Section 2.2: separate runs produce exactly {(c1,c2)}.
  const MpResult result = RunNoMp(matcher_, cover_);
  EXPECT_EQ(result.matches.SortedPairs(),
            (std::vector<EntityPair>{P(fig_.c1, fig_.c2)}));
  EXPECT_EQ(result.neighborhood_evaluations, 3u);
}

// ------------------------------------------------------------------- SMP --

TEST_F(Figure1Mp, SmpRecoversB1B2ButNotTheChain) {
  // Section 2.2: the simple message Match(c1,c2) from C3 lets C2 match
  // (b1,b2); the chain stays unmatched (the chicken-and-egg problem).
  const MpResult result = RunSmp(matcher_, cover_);
  EXPECT_EQ(result.matches.SortedPairs(),
            (std::vector<EntityPair>{P(fig_.b1, fig_.b2),
                                     P(fig_.c1, fig_.c2)}));
}

TEST_F(Figure1Mp, SmpIsSound) {
  // Theorem 2(2): SMP's output is contained in the full run E(E).
  const MatchSet full = matcher_.MatchAll();
  const MpResult result = RunSmp(matcher_, cover_);
  EXPECT_TRUE(result.matches.IsSubsetOf(full));
}

TEST_F(Figure1Mp, SmpIsOrderInvariant) {
  // Theorem 2(3): consistency. Try all 6 processing orders.
  std::vector<uint32_t> order = {0, 1, 2};
  const MatchSet reference = RunSmp(matcher_, cover_).matches;
  do {
    MpOptions options;
    options.initial_order = order;
    EXPECT_EQ(RunSmp(matcher_, cover_, options).matches, reference);
  } while (std::next_permutation(order.begin(), order.end()));
}

// -------------------------------------------------------- ComputeMaximal --

TEST_F(Figure1Mp, MaximalMessagesOfC1) {
  // C1 = {a1,a2,b2,b3}: pairs (a1,a2) and (b2,b3) entail each other.
  const std::vector<EntityId>& c1 = fig_.neighborhoods[0];
  const auto messages =
      ComputeMaximal(matcher_, c1, MatchSet(), matcher_.Match(c1));
  ASSERT_EQ(messages.size(), 1u);
  std::vector<EntityPair> sorted = messages[0];
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<EntityPair>{P(fig_.a1, fig_.a2),
                                             P(fig_.b2, fig_.b3)}));
}

TEST_F(Figure1Mp, MaximalMessagesOfC2) {
  // C2 produces {(b1,b2),(c1,c2)}, {(b2,b3),(c2,c3)}, {(b1,b3),(c1,c3)}.
  const std::vector<EntityId>& c2 = fig_.neighborhoods[1];
  const auto messages =
      ComputeMaximal(matcher_, c2, MatchSet(), matcher_.Match(c2));
  EXPECT_EQ(messages.size(), 3u);
  bool found_paper_message = false;
  for (const auto& m : messages) {
    std::vector<EntityPair> sorted = m;
    std::sort(sorted.begin(), sorted.end());
    if (sorted == std::vector<EntityPair>{P(fig_.b2, fig_.b3),
                                          P(fig_.c2, fig_.c3)}) {
      found_paper_message = true;
    }
  }
  EXPECT_TRUE(found_paper_message)
      << "C2 must generate the paper's maximal message {(b2,b3),(c2,c3)}";
}

TEST_F(Figure1Mp, MatchedPairsAreNotHypotheses) {
  // Once (c1,c2) is evidence, C3 has no unresolved pair -> no messages.
  MatchSet evidence;
  evidence.Insert(P(fig_.c1, fig_.c2));
  const std::vector<EntityId>& c3 = fig_.neighborhoods[2];
  const auto messages =
      ComputeMaximal(matcher_, c3, evidence, matcher_.Match(c3, evidence));
  EXPECT_TRUE(messages.empty());
}

TEST_F(Figure1Mp, MaximalMessagesSatisfyDefinition) {
  // Definition 8 against the full run: every message is entirely inside
  // E(E) or disjoint from it.
  const MatchSet full = matcher_.MatchAll();
  for (size_t n = 0; n < cover_.size(); ++n) {
    const std::vector<EntityId>& c = cover_.neighborhood(n).entities;
    for (const auto& m :
         ComputeMaximal(matcher_, c, MatchSet(), matcher_.Match(c))) {
      size_t inside = 0;
      for (const EntityPair& p : m) inside += full.Contains(p) ? 1 : 0;
      EXPECT_TRUE(inside == 0 || inside == m.size())
          << "message violates Definition 8";
    }
  }
}

// ---------------------------------------------------- MaximalMessageSet --

TEST(MaximalMessageSetTest, DisjointMessagesStaySeparate) {
  MaximalMessageSet set;
  set.Insert({EntityPair(1, 2), EntityPair(3, 4)});
  set.Insert({EntityPair(5, 6)});
  EXPECT_EQ(set.num_live(), 2u);
}

TEST(MaximalMessageSetTest, OverlappingMessagesMerge) {
  // Proposition 3(ii) / the (T ∪ TC)* step: overlap on (3,4) merges.
  MaximalMessageSet set;
  set.Insert({EntityPair(1, 2), EntityPair(3, 4)});
  const uint32_t id = set.Insert({EntityPair(3, 4), EntityPair(5, 6)});
  EXPECT_EQ(set.num_live(), 1u);
  EXPECT_EQ(set.Message(id).size(), 3u);
}

TEST(MaximalMessageSetTest, ChainMergeAcrossThreeMessages) {
  MaximalMessageSet set;
  set.Insert({EntityPair(1, 2), EntityPair(3, 4)});
  set.Insert({EntityPair(5, 6), EntityPair(7, 8)});
  // Bridges both existing messages.
  const uint32_t id = set.Insert({EntityPair(3, 4), EntityPair(5, 6)});
  EXPECT_EQ(set.num_live(), 1u);
  EXPECT_EQ(set.Message(id).size(), 4u);
}

TEST(MaximalMessageSetTest, FindIntersectingAndRemove) {
  MaximalMessageSet set;
  const uint32_t id = set.Insert({EntityPair(1, 2), EntityPair(3, 4)});
  const std::vector<EntityPair> probe = {EntityPair(3, 4)};
  EXPECT_EQ(set.FindIntersecting(probe), (std::vector<uint32_t>{id}));
  set.RemoveMessage(id);
  EXPECT_EQ(set.num_live(), 0u);
  EXPECT_TRUE(set.FindIntersecting(probe).empty());
}

TEST(MaximalMessageSetTest, FindIntersectingIsSortedUniqueAndLiveOnly) {
  MaximalMessageSet set;
  const uint32_t x = set.Insert({EntityPair(1, 2), EntityPair(3, 4)});
  const uint32_t y = set.Insert({EntityPair(5, 6), EntityPair(7, 8)});
  const std::vector<EntityPair> probe = {EntityPair(7, 8), EntityPair(3, 4),
                                         EntityPair(1, 2), EntityPair(9, 10)};
  EXPECT_EQ(set.FindIntersecting(probe), (std::vector<uint32_t>{x, y}));
  set.RemoveMessage(x);
  EXPECT_EQ(set.FindIntersecting(probe), (std::vector<uint32_t>{y}));
  EXPECT_TRUE(set.FindIntersecting({}).empty());
}

TEST(MaximalMessageSetTest, MergedMessagesGetFreshIds) {
  MaximalMessageSet set;
  EXPECT_EQ(set.next_id(), 0u);
  const uint32_t x = set.Insert({EntityPair(1, 2), EntityPair(3, 4)});
  const uint32_t y = set.Insert({EntityPair(5, 6), EntityPair(7, 8)});
  const uint32_t first_fresh = set.next_id();
  // Absorbs x: the union is a new message, x dies.
  const uint32_t merged = set.Insert({EntityPair(3, 4), EntityPair(9, 10)});
  EXPECT_EQ(merged, first_fresh);
  EXPECT_EQ(set.next_id(), merged + 1);
  EXPECT_EQ(set.LiveIds(), (std::vector<uint32_t>{y, merged}));
  EXPECT_EQ(set.LiveIds(first_fresh), (std::vector<uint32_t>{merged}));
  EXPECT_EQ(set.Message(merged).size(), 3u);
  EXPECT_NE(x, merged);
}

/// Forwards to an MLN matcher, counting black-box and ScoreDelta calls.
class CountingMatcher : public ProbabilisticMatcher {
 public:
  explicit CountingMatcher(const ProbabilisticMatcher& inner) : inner_(inner) {}
  MatchSet Match(const std::vector<EntityId>& entities,
                 const MatchSet& positive,
                 const MatchSet& negative) const override {
    ++match_calls;
    return inner_.Match(entities, positive, negative);
  }
  MatchSet MatchConditioned(const std::vector<EntityId>& entities,
                            const MatchSet& positive,
                            const MatchSet& negative) const override {
    ++conditioned_calls;
    return inner_.MatchConditioned(entities, positive, negative);
  }
  std::vector<EntityPair> EntangledPairs(
      const std::vector<EntityId>& entities, const MatchSet& evidence,
      const MatchSet& base) const override {
    return inner_.EntangledPairs(entities, evidence, base);
  }
  const data::Dataset& dataset() const override { return inner_.dataset(); }
  double Score(const MatchSet& matches) const override {
    return inner_.Score(matches);
  }
  double ScoreDelta(const MatchSet& current,
                    const std::vector<EntityPair>& additions) const override {
    ++score_delta_calls;
    return inner_.ScoreDelta(current, additions);
  }
  mutable size_t match_calls = 0;
  mutable size_t conditioned_calls = 0;
  mutable size_t score_delta_calls = 0;

 private:
  const ProbabilisticMatcher& inner_;
};

TEST_F(Figure1Mp, PromoteSoundMessagesTriggerAIntersectsNewMatches) {
  // C1's message {(a1,a2),(b2,b3)} scores -2 on its own; once (a1,a2) is
  // matched the whole message is sound.
  CountingMatcher counting(matcher_);
  MaximalMessageSet messages;
  messages.Insert({P(fig_.a1, fig_.a2), P(fig_.b2, fig_.b3)});
  MatchSet matched;
  matched.Insert(P(fig_.a1, fig_.a2));
  std::vector<EntityPair> new_matches = {P(fig_.a1, fig_.a2)};
  EXPECT_EQ(PromoteSoundMessages(counting, messages, messages.next_id(),
                                 matched, new_matches),
            1u);
  EXPECT_TRUE(matched.Contains(P(fig_.b2, fig_.b3)));
  EXPECT_EQ(new_matches, (std::vector<EntityPair>{P(fig_.a1, fig_.a2),
                                                  P(fig_.b2, fig_.b3)}));
  EXPECT_EQ(messages.num_live(), 0u);
  EXPECT_EQ(counting.score_delta_calls, 0u);
}

TEST_F(Figure1Mp, PromoteSoundMessagesRetestsOnlyFreshWhileMPlusIsUnchanged) {
  CountingMatcher counting(matcher_);
  MaximalMessageSet messages;
  MatchSet matched;
  std::vector<EntityPair> new_matches;
  // An old message that failed at the previous fixpoint (score -2).
  messages.Insert({P(fig_.a1, fig_.a2), P(fig_.b2, fig_.b3)});
  EXPECT_EQ(PromoteSoundMessages(counting, messages, 0, matched, new_matches),
            0u);
  EXPECT_EQ(counting.score_delta_calls, 1u);

  // A fresh, still-failing message while M+ is unchanged: only it is tested.
  counting.score_delta_calls = 0;
  uint32_t first_fresh = messages.next_id();
  messages.Insert({P(fig_.b1, fig_.b3), P(fig_.c1, fig_.c3)});
  EXPECT_EQ(PromoteSoundMessages(counting, messages, first_fresh, matched,
                                 new_matches),
            0u);
  EXPECT_EQ(counting.score_delta_calls, 1u);

  // M+ grew: every live message is re-tested, and both still fail.
  counting.score_delta_calls = 0;
  matched.Insert(P(fig_.c1, fig_.c2));
  new_matches = {P(fig_.c1, fig_.c2)};
  EXPECT_EQ(PromoteSoundMessages(counting, messages, messages.next_id(),
                                 matched, new_matches),
            0u);
  EXPECT_EQ(counting.score_delta_calls, 2u);
  EXPECT_EQ(messages.num_live(), 2u);
}

TEST_F(Figure1Mp, PromoteSoundMessagesCompletesTheMergedChain) {
  // C1's and C2's messages merge into the chain {(a1,a2),(b2,b3),(c2,c3)},
  // which scores +1 and passes trigger (b).
  CountingMatcher counting(matcher_);
  MaximalMessageSet messages;
  MatchSet matched;
  std::vector<EntityPair> new_matches;
  messages.Insert({P(fig_.a1, fig_.a2), P(fig_.b2, fig_.b3)});
  EXPECT_EQ(PromoteSoundMessages(counting, messages, 0, matched, new_matches),
            0u);
  const uint32_t first_fresh = messages.next_id();
  messages.Insert({P(fig_.b2, fig_.b3), P(fig_.c2, fig_.c3)});
  EXPECT_EQ(PromoteSoundMessages(counting, messages, first_fresh, matched,
                                 new_matches),
            1u);
  EXPECT_EQ(matched.size(), 3u);
  EXPECT_EQ(new_matches.size(), 3u);
  EXPECT_EQ(messages.num_live(), 0u);
}

// ------------------------------------------------------------------- MMP --

TEST_F(Figure1Mp, MmpRecoversEverythingIncludingTheChain) {
  // Section 2.2 finale: MMP combines C1's and C2's maximal messages and
  // completes the chain — output equals the full holistic run.
  const MpResult result = RunMmp(matcher_, cover_);
  EXPECT_EQ(result.matches, matcher_.MatchAll());
  EXPECT_EQ(result.matches.size(), 5u);
  EXPECT_GT(result.messages_created, 0u);
  EXPECT_GT(result.messages_promoted, 0u);
}

TEST_F(Figure1Mp, MmpIsSound) {
  const MatchSet full = matcher_.MatchAll();
  EXPECT_TRUE(RunMmp(matcher_, cover_).matches.IsSubsetOf(full));
}

TEST_F(Figure1Mp, MmpIsOrderInvariant) {
  std::vector<uint32_t> order = {0, 1, 2};
  const MatchSet reference = RunMmp(matcher_, cover_).matches;
  do {
    MpOptions options;
    options.initial_order = order;
    EXPECT_EQ(RunMmp(matcher_, cover_, options).matches, reference);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST_F(Figure1Mp, MmpDominatesSmpDominatesNoMp) {
  // Monotone improvement NO-MP ⊆ SMP ⊆ MMP on this instance.
  const MatchSet no_mp = RunNoMp(matcher_, cover_).matches;
  const MatchSet smp = RunSmp(matcher_, cover_).matches;
  const MatchSet mmp = RunMmp(matcher_, cover_).matches;
  EXPECT_TRUE(no_mp.IsSubsetOf(smp));
  EXPECT_TRUE(smp.IsSubsetOf(mmp));
  EXPECT_LT(smp.size(), mmp.size());
}

/// Runs both MMP drivers through a CountingMatcher over `matcher`:
/// matcher_calls must count every Match and MatchConditioned call.
void ExpectMmpCountsEveryMatcherCall(const ProbabilisticMatcher& matcher,
                                     const Cover& cover) {
  for (const bool merge : {true, false}) {
    SCOPED_TRACE(merge ? "RunMmp" : "RunMmpWithoutMerge");
    const CountingMatcher counting(matcher);
    const MpResult result = merge ? RunMmp(counting, cover)
                                  : RunMmpWithoutMerge(counting, cover);
    EXPECT_EQ(counting.match_calls, result.neighborhood_evaluations);
    EXPECT_GT(counting.conditioned_calls, 0u);
    EXPECT_EQ(result.matcher_calls,
              counting.match_calls + counting.conditioned_calls);
  }
}

TEST_F(Figure1Mp, MmpMatcherCallsAreExact) {
  ExpectMmpCountsEveryMatcherCall(matcher_, cover_);
}

TEST(MmpMatcherCallsTest, ExactOnABibCorpus) {
  const auto dataset =
      data::GenerateBibDataset(data::BibConfig::HepthLike(0.3));
  const Cover cover = BuildCanopyCover(*dataset);
  const mln::MlnMatcher matcher(*dataset);
  ExpectMmpCountsEveryMatcherCall(matcher, cover);
}

TEST_F(Figure1Mp, MmpWithoutMergeMissesTheChain) {
  // Ablation: without (T ∪ TC)* merging the chain never completes.
  const MpResult result = RunMmpWithoutMerge(matcher_, cover_);
  EXPECT_FALSE(result.matches.Contains(P(fig_.a1, fig_.a2)));
  // But the SMP-level matches still appear.
  EXPECT_TRUE(result.matches.Contains(P(fig_.c1, fig_.c2)));
  EXPECT_TRUE(result.matches.Contains(P(fig_.b1, fig_.b2)));
}

TEST_F(Figure1Mp, NonTotalCoverLosesMatches) {
  // Dropping C2 (so Coauthor(b1,c1) etc. are lost) must cost recall.
  Cover partial;
  partial.Add(fig_.neighborhoods[0]);
  partial.Add(fig_.neighborhoods[2]);
  const MatchSet with_total = RunMmp(matcher_, cover_).matches;
  const MatchSet without = RunMmp(matcher_, partial).matches;
  EXPECT_LT(without.size(), with_total.size());
  EXPECT_FALSE(without.Contains(P(fig_.b1, fig_.b2)));
}

TEST_F(Figure1Mp, EmptyCoverYieldsNothing) {
  Cover empty;
  EXPECT_TRUE(RunSmp(matcher_, empty).matches.empty());
  EXPECT_TRUE(RunMmp(matcher_, empty).matches.empty());
  EXPECT_TRUE(RunNoMp(matcher_, empty).matches.empty());
}

TEST_F(Figure1Mp, SingleNeighborhoodCoverEqualsDirectRun) {
  Cover single;
  std::vector<EntityId> all(fig_.dataset->num_entities());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  single.Add(all);
  EXPECT_EQ(RunSmp(matcher_, single).matches, matcher_.MatchAll());
  EXPECT_EQ(RunMmp(matcher_, single).matches, matcher_.MatchAll());
}

}  // namespace
}  // namespace cem::core
