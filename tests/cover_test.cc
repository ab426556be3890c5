#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/lsh_cover.h"
#include "core/canopy.h"
#include "core/cover.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "data/dataset.h"
#include "data/figure1.h"
#include "test_util.h"
#include "util/execution_context.h"

namespace cem::core {
namespace {

using data::EntityId;
using data::EntityPair;

TEST(CoverTest, AddNormalises) {
  Cover cover;
  cover.Add({3, 1, 2, 1});
  EXPECT_EQ(cover.neighborhood(0).entities,
            (std::vector<EntityId>{1, 2, 3}));
}

TEST(CoverTest, AddEntityToKeepsSorted) {
  Cover cover;
  cover.Add({1, 5});
  cover.AddEntityTo(0, 3);
  cover.AddEntityTo(0, 3);  // Duplicate ignored.
  EXPECT_EQ(cover.neighborhood(0).entities,
            (std::vector<EntityId>{1, 3, 5}));
}

TEST(CoverTest, EveryMutatorKeepsTheMembershipCurrent) {
  Cover cover;
  cover.Add({4, 2});
  cover.Add({});
  EXPECT_TRUE(cover.AddEntityTo(1, 7));
  EXPECT_TRUE(cover.AddEntityTo(0, 7));
  EXPECT_FALSE(cover.AddEntityTo(0, 7));  // Already there: no change.
  cover.Add({2, 7});
  const CoverMembership& membership = cover.membership();
  EXPECT_EQ(membership.HomesOf(2), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(membership.HomesOf(7), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(membership.num_entities(), 3u);
  // The first home is the first neighborhood joined, not the lowest.
  EXPECT_EQ(membership.FirstHome(7), 1u);
  EXPECT_EQ(testing_util::StaleMembershipRows(cover, 10),
            std::vector<EntityId>{});

  // A cover built from a neighborhood list records each lowest home first.
  const Cover listed({Neighborhood{{3, 1}}, Neighborhood{{1}}});
  EXPECT_EQ(listed.membership().HomesOf(1), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(listed.membership().FirstHome(1), 0u);
  EXPECT_EQ(listed.membership().num_entities(), 2u);
}

TEST(CoverTest, SizeStatistics) {
  Cover cover;
  cover.Add({0, 1});
  cover.Add({2, 3, 4, 5});
  EXPECT_EQ(cover.MaxNeighborhoodSize(), 4u);
  EXPECT_DOUBLE_EQ(cover.MeanNeighborhoodSize(), 3.0);
}

TEST(CoverTest, Figure1CoverProperties) {
  data::Figure1 fig = data::MakeFigure1();
  Cover cover;
  for (const auto& n : fig.neighborhoods) cover.Add(n);
  EXPECT_TRUE(cover.CoversAllAuthorRefs(*fig.dataset));
  // Figure 2's C1..C3 cover all Coauthor edges used by the walkthrough.
  EXPECT_TRUE(cover.IsTotalForCoauthor(*fig.dataset));
  EXPECT_DOUBLE_EQ(cover.CandidatePairCoverage(*fig.dataset), 1.0);
}

TEST(CoverTest, DetectsNonTotalCover) {
  data::Figure1 fig = data::MakeFigure1();
  Cover cover;
  // Only C1 and C3 — the paper's example of a NON-total cover (the tuple
  // Coauthor(b1, c1) is lost).
  cover.Add(fig.neighborhoods[0]);
  cover.Add(fig.neighborhoods[2]);
  EXPECT_FALSE(cover.IsTotalForCoauthor(*fig.dataset));
}

TEST(CoverTest, ContainedPairsCountsMultiplicity) {
  data::Figure1 fig = data::MakeFigure1();
  Cover cover;
  cover.Add({fig.c1, fig.c2, fig.c3});
  cover.Add({fig.c1, fig.c2});
  // First neighborhood holds 3 candidate pairs, second 1.
  EXPECT_EQ(cover.TotalContainedPairs(*fig.dataset), 4u);
}

// --------------------------------------------------------------- Canopy --

class CanopyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::GenerateBibDataset(data::BibConfig::DblpLike(0.3));
  }
  std::unique_ptr<data::Dataset> dataset_;
};

TEST_F(CanopyTest, CoversAllRefsAndPairs) {
  const Cover cover = BuildCanopyCover(*dataset_);
  EXPECT_TRUE(cover.CoversAllAuthorRefs(*dataset_));
  EXPECT_DOUBLE_EQ(cover.CandidatePairCoverage(*dataset_), 1.0);
}

TEST_F(CanopyTest, BoundaryExpansionMakesTotalCover) {
  const Cover cover = BuildCanopyCover(*dataset_);
  EXPECT_TRUE(cover.IsTotalForCoauthor(*dataset_));
}

TEST_F(CanopyTest, WithoutExpansionNotTotal) {
  CanopyOptions options;
  options.expand_boundary = false;
  const Cover cover = BuildCanopyCover(*dataset_, options);
  // Coauthors are usually dissimilar, so canopies split them.
  EXPECT_FALSE(cover.IsTotalForCoauthor(*dataset_));
}

TEST_F(CanopyTest, BoundaryBringsDissimilarEntitiesTogether) {
  // The paper's point about covers vs blocking: neighborhoods contain
  // entities that are NOT similar (coauthors). Find some neighborhood
  // containing two refs with no candidate pair between them.
  const Cover cover = BuildCanopyCover(*dataset_);
  bool found_dissimilar_pair = false;
  for (const Neighborhood& n : cover.neighborhoods()) {
    for (size_t i = 0; i < n.entities.size() && !found_dissimilar_pair; ++i) {
      for (size_t j = i + 1; j < n.entities.size(); ++j) {
        if (!dataset_->FindCandidatePair(n.entities[i], n.entities[j])
                 .has_value()) {
          found_dissimilar_pair = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(found_dissimilar_pair);
}

TEST_F(CanopyTest, DeterministicForSeed) {
  const Cover a = BuildCanopyCover(*dataset_);
  const Cover b = BuildCanopyCover(*dataset_);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.neighborhood(i).entities, b.neighborhood(i).entities);
  }
}

TEST_F(CanopyTest, TighterThresholdGivesMoreNeighborhoods) {
  CanopyOptions few;
  few.loose = 0.3;
  few.tight = 0.3;
  CanopyOptions many;
  many.loose = 0.3;
  many.tight = 0.9;
  EXPECT_LT(BuildCanopyCover(*dataset_, few).size(),
            BuildCanopyCover(*dataset_, many).size());
}

TEST(CanopyContrastTest, HepthHasLargerNeighborhoodsThanDblp) {
  // The paper: abbreviated HEPTH names collide -> fewer, larger
  // neighborhoods; DBLP full names -> more, smaller ones.
  auto hepth = data::GenerateBibDataset(data::BibConfig::HepthLike(0.3));
  auto dblp = data::GenerateBibDataset(data::BibConfig::DblpLike(0.3));
  const Cover hepth_cover = BuildCanopyCover(*hepth);
  const Cover dblp_cover = BuildCanopyCover(*dblp);
  EXPECT_GT(hepth_cover.MeanNeighborhoodSize(),
            dblp_cover.MeanNeighborhoodSize());
}

// ---------------------------------------------------- Boundary expansion --

/// The original boundary expansion: each neighborhood's coauthors gathered
/// in an unordered_set, then added one at a time.
void ReferenceExpandCoauthorBoundary(const data::Dataset& dataset,
                                     Cover& cover) {
  for (size_t i = 0; i < cover.size(); ++i) {
    std::unordered_set<EntityId> boundary;
    for (EntityId e : cover.neighborhood(i).entities) {
      for (EntityId c : dataset.Coauthors(e)) boundary.insert(c);
    }
    for (EntityId c : boundary) cover.AddEntityTo(i, c);
  }
}

void ExpectExpansionMatchesReference(const data::Dataset& dataset,
                                     const Cover& unexpanded,
                                     const ExecutionContext& ctx) {
  Cover expected = unexpanded;
  ReferenceExpandCoauthorBoundary(dataset, expected);
  Cover actual = unexpanded;
  ExpandCoauthorBoundary(dataset, actual, ctx);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual.neighborhood(i).entities,
              expected.neighborhood(i).entities)
        << "neighborhood " << i;
  }
}

TEST(ExpandCoauthorBoundaryTest, MatchesReferenceOnBibCorpora) {
  for (const data::BibConfig& config :
       {data::BibConfig::HepthLike(0.3), data::BibConfig::DblpLike(0.3)}) {
    const auto dataset = data::GenerateBibDataset(config);
    CanopyOptions options;
    options.expand_boundary = false;
    const Cover unexpanded = BuildCanopyCover(*dataset, options);
    ASSERT_FALSE(unexpanded.IsTotalForCoauthor(*dataset));
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ExpectExpansionMatchesReference(*dataset, unexpanded,
                                      ExecutionContext(threads));
    }
  }
}

TEST(ExpandCoauthorBoundaryTest, HandBuiltEdgeCases) {
  data::Dataset dataset;
  const EntityId r0 = dataset.AddAuthorRef("ann", "lee");
  const EntityId r1 = dataset.AddAuthorRef("bo", "ng");
  const EntityId r2 = dataset.AddAuthorRef("cy", "ito");
  const EntityId r3 = dataset.AddAuthorRef("di", "oz");
  const EntityId loner = dataset.AddAuthorRef("ed", "uu");
  const EntityId p0 = dataset.AddPaper("p0");
  const EntityId p1 = dataset.AddPaper("p1");
  for (EntityId ref : {r0, r1, r2}) dataset.AddAuthored(ref, p0);
  for (EntityId ref : {r2, r3}) dataset.AddAuthored(ref, p1);
  dataset.Finalize();
  Cover cover;
  cover.Add({});         // Empty: stays empty.
  cover.Add({r0, r1});   // Members coauthor each other; r2 joins.
  cover.Add({loner});    // No coauthors: unchanged.
  cover.Add({r3});       // One round: r2 joins, r2's coauthors do not.
  ExpectExpansionMatchesReference(dataset, cover, ExecutionContext(1));
  ExpandCoauthorBoundary(dataset, cover, ExecutionContext(1));
  EXPECT_TRUE(cover.neighborhood(0).entities.empty());
  EXPECT_EQ(cover.neighborhood(1).entities,
            (std::vector<EntityId>{r0, r1, r2}));
  EXPECT_EQ(cover.neighborhood(2).entities, (std::vector<EntityId>{loner}));
  EXPECT_EQ(cover.neighborhood(3).entities, (std::vector<EntityId>{r2, r3}));
}

// Each cover-building stage leaves the cover's own membership equal to a
// fresh counting-pass build over its neighborhoods.
TEST(OwnedMembershipTest, CurrentAfterEveryBuildStage) {
  for (const data::BibConfig& config :
       {data::BibConfig::HepthLike(0.3), data::BibConfig::DblpLike(0.3)}) {
    const auto dataset = data::GenerateBibDataset(config);
    const size_t n = dataset->num_entities();
    const ExecutionContext ctx(4);
    CanopyOptions canopy;
    canopy.ensure_pair_coverage = false;
    canopy.expand_boundary = false;
    canopy.context = &ctx;
    blocking::LshCoverOptions lsh;
    lsh.ensure_pair_coverage = false;
    lsh.expand_boundary = false;
    lsh.context = &ctx;
    for (Cover cover :
         {BuildCanopyCover(*dataset, canopy),
          blocking::BuildLshCover(*dataset, lsh)}) {
      EXPECT_EQ(testing_util::StaleMembershipRows(cover, n),
                std::vector<EntityId>{})
          << "after assembly";
      PatchStats stats;
      PatchPairCoverage(*dataset, cover, ctx, &stats);
      EXPECT_GT(stats.pairs_patched, 0u);
      EXPECT_EQ(testing_util::StaleMembershipRows(cover, n),
                std::vector<EntityId>{})
          << "after PatchPairCoverage";
      ExpandCoauthorBoundary(*dataset, cover, ctx);
      EXPECT_EQ(testing_util::StaleMembershipRows(cover, n),
                std::vector<EntityId>{})
          << "after ExpandCoauthorBoundary";
      EXPECT_EQ(cover.membership().num_entities(),
                CoverMembership(cover).num_entities());
      EXPECT_TRUE(cover.IsTotalForCoauthor(*dataset));
      EXPECT_DOUBLE_EQ(cover.CandidatePairCoverage(*dataset), 1.0);
    }
  }
}

// ------------------------------------------------------ CoverMembership --

TEST(CoverMembershipTest, FirstHomeIsTheFirstNeighborhoodAdded) {
  CoverMembership membership;
  EXPECT_TRUE(membership.Add(7, 5));
  EXPECT_TRUE(membership.Add(7, 2));
  EXPECT_FALSE(membership.Add(7, 5));  // Repeated: no change.
  EXPECT_EQ(membership.FirstHome(7), 5u);
  EXPECT_EQ(membership.HomesOf(7), (std::vector<uint32_t>{2, 5}));
  EXPECT_TRUE(membership.Add(3, 2));
  // Entities, not memberships.
  EXPECT_EQ(membership.num_entities(), 2u);
}

TEST(CoverMembershipTest, IdsPastTheTableHaveNoHomes) {
  CoverMembership membership;
  membership.Add(7, 5);
  EXPECT_FALSE(membership.Contains(1000));
  EXPECT_TRUE(membership.HomesOf(1000).empty());
  EXPECT_FALSE(membership.Together(1000, 7));
  EXPECT_FALSE(membership.Contains(6));  // Inside the table, no home.
}

TEST(CoverMembershipTest, EntriesRoundTripAcrossIdGaps) {
  CoverMembership membership;
  membership.Add(40, 3);
  membership.Add(2, 9);
  membership.Add(2, 1);
  membership.Add(17, 4);
  const std::vector<MembershipEntry> entries = membership.SortedEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (MembershipEntry{2, 9, {1, 9}}));
  EXPECT_EQ(entries[1], (MembershipEntry{17, 4, {4}}));
  EXPECT_EQ(entries[2], (MembershipEntry{40, 3, {3}}));
  const CoverMembership rebuilt = CoverMembership::FromEntries(entries);
  EXPECT_EQ(rebuilt.SortedEntries(), entries);
  EXPECT_EQ(rebuilt.num_entities(), 3u);
  EXPECT_FALSE(rebuilt.Contains(16));
}

// Neighbor(·) of Algorithms 1 and 3: AffectedBy over a cover's membership.

TEST(NeighborIndexTest, FindsContainingNeighborhoods) {
  Cover cover;
  cover.Add({0, 1, 2});
  cover.Add({2, 3});
  cover.Add({4});
  const CoverMembership index(cover);
  EXPECT_EQ(index.HomesOf(2), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(index.HomesOf(4), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(index.HomesOf(99).empty());
}

TEST(NeighborIndexTest, AffectedNeedsBothEndpoints) {
  Cover cover;
  cover.Add({0, 1});
  cover.Add({1, 2});
  const CoverMembership index(cover);
  // Pair (0,1) affects only the first neighborhood; (0,2) affects none.
  EXPECT_EQ(AffectedBy(index, std::vector{EntityPair(0, 1)}),
            (std::vector<uint32_t>{0}));
  EXPECT_TRUE(AffectedBy(index, std::vector{EntityPair(0, 2)}).empty());
}

TEST(NeighborIndexTest, AffectedDeduplicates) {
  Cover cover;
  cover.Add({0, 1, 2});
  const CoverMembership index(cover);
  const auto affected =
      AffectedBy(index, std::vector{EntityPair(0, 1), EntityPair(1, 2)});
  EXPECT_EQ(affected, (std::vector<uint32_t>{0}));
}

}  // namespace
}  // namespace cem::core
