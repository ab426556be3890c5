// Streaming ingest equivalence suite: the headline guarantee of the
// stream subsystem is that for ANY arrival order, chunk size, thread count
// and shard count, the streamed fixpoint equals a batch rebuild's RunSmp
// match set — while the incrementally maintained cover stays total
// (w.r.t. Similar and Coauthor) over the live references at every prefix
// of the stream, and all work counters stay bit-identical across
// execution contexts (the repo-wide determinism contract).

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/lsh_cover.h"
#include "core/canopy.h"
#include "core/cover.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "data/figure1.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "mln/mln_matcher.h"
#include "rules/rules_matcher.h"
#include "stream/streaming_matcher.h"
#include "test_util.h"
#include "util/execution_context.h"
#include "util/random.h"

namespace cem {
namespace {

using stream::StreamingMatcher;
using stream::StreamingOptions;
using stream::StreamingStats;

std::vector<uint32_t> ThreadCounts() {
  return {1, 4, std::max(1u, std::thread::hardware_concurrency())};
}

/// A small noisy bibliography corpus, distinct per seed (mirrors
/// lsh_cover_test.cc).
std::unique_ptr<data::Dataset> MakeSmallBib(uint64_t seed) {
  data::BibConfig config = data::BibConfig::DblpLike(0.05);
  config.seed = seed;
  return data::GenerateBibDataset(config);
}

/// The batch reference point: a freshly built total cover + RunSmp.
core::MatchSet BatchSmp(const core::Matcher& matcher,
                        core::BlockingStrategy strategy) {
  const core::Cover cover =
      blocking::MakeCoverBuilder(strategy)->Build(matcher.dataset());
  return core::RunSmp(matcher, cover).matches;
}

TEST(StreamingFigure1, AllArrivalOrdersConvergeToBatch) {
  const data::Figure1 fig = data::MakeFigure1();
  const mln::MlnMatcher matcher(*fig.dataset, mln::MlnWeights::Figure1Demo());
  const core::MatchSet batch =
      BatchSmp(matcher, core::BlockingStrategy::kLsh);
  for (uint64_t order = 0; order < 10; ++order) {
    std::vector<data::EntityId> refs = fig.dataset->author_refs();
    Rng rng(order);
    rng.Shuffle(refs);
    StreamingMatcher streaming(matcher);
    for (data::EntityId ref : refs) streaming.Add(ref);
    EXPECT_EQ(streaming.matches(), batch) << "arrival order " << order;
    // The fully streamed cover is a Definition-7 total cover.
    EXPECT_TRUE(streaming.cover().CoversAllAuthorRefs(*fig.dataset));
    EXPECT_DOUBLE_EQ(streaming.cover().CandidatePairCoverage(*fig.dataset),
                     1.0);
    EXPECT_TRUE(streaming.cover().IsTotalForCoauthor(*fig.dataset));
  }
}

class StreamingEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingEquivalence, RandomArrivalOrdersConvergeToBatch) {
  const auto dataset = MakeSmallBib(GetParam());
  const mln::MlnMatcher matcher(*dataset);
  // The fixpoint is also independent of which batch builder the rebuild
  // uses (both produce boundary-expanded total covers).
  const core::MatchSet batch_lsh =
      BatchSmp(matcher, core::BlockingStrategy::kLsh);
  const core::MatchSet batch_canopy =
      BatchSmp(matcher, core::BlockingStrategy::kCanopy);
  EXPECT_EQ(batch_lsh, batch_canopy);
  const eval::PrMetrics batch_pr = eval::ComputePr(*dataset, batch_lsh);
  for (uint64_t arrival = 0; arrival < 3; ++arrival) {
    const eval::StreamingReplayResult replay =
        eval::ReplayStreaming(matcher, GetParam() * 31 + arrival);
    EXPECT_EQ(replay.matches, batch_lsh) << "arrival seed " << arrival;
    const eval::PrMetrics pr = eval::ComputePr(*dataset, replay.matches);
    EXPECT_DOUBLE_EQ(pr.f1, batch_pr.f1);
  }
}

TEST_P(StreamingEquivalence, RulesMatcherConvergesToBatch) {
  const auto dataset = MakeSmallBib(GetParam());
  const rules::RulesMatcher matcher(*dataset);
  const core::MatchSet batch =
      BatchSmp(matcher, core::BlockingStrategy::kCanopy);
  const eval::StreamingReplayResult replay =
      eval::ReplayStreaming(matcher, GetParam() + 99, /*chunk_size=*/8);
  EXPECT_EQ(replay.matches, batch);
}

TEST_P(StreamingEquivalence, ThreadAndShardCountsNeverChangeTheResult) {
  // Determinism contract: for a fixed arrival order, matches AND every
  // work counter are bit-identical for any thread/shard count.
  const auto dataset = MakeSmallBib(GetParam());
  const mln::MlnMatcher matcher(*dataset);
  ExecutionContext serial(1, /*num_shards=*/1);
  StreamingOptions reference_options;
  reference_options.context = &serial;
  const eval::StreamingReplayResult reference = eval::ReplayStreaming(
      matcher, /*arrival_seed=*/GetParam(), /*chunk_size=*/16,
      reference_options);
  for (uint32_t threads : ThreadCounts()) {
    for (uint32_t shards : {1u, 4u, 32u}) {
      ExecutionContext ctx(threads, shards);
      StreamingOptions options;
      options.context = &ctx;
      const eval::StreamingReplayResult replay = eval::ReplayStreaming(
          matcher, GetParam(), /*chunk_size=*/16, options);
      const std::string label =
          std::to_string(threads) + " threads, " + std::to_string(shards) +
          " shards";
      EXPECT_EQ(replay.matches, reference.matches) << label;
      EXPECT_EQ(replay.stats.ingest.canopies_touched,
                reference.stats.ingest.canopies_touched)
          << label;
      EXPECT_EQ(replay.stats.ingest.lsh_candidates_scanned,
                reference.stats.ingest.lsh_candidates_scanned)
          << label;
      EXPECT_EQ(replay.stats.ingest.pairs_patched,
                reference.stats.ingest.pairs_patched)
          << label;
      EXPECT_EQ(replay.stats.ingest.seeds_created,
                reference.stats.ingest.seeds_created)
          << label;
      EXPECT_EQ(replay.stats.ingest.memberships_added,
                reference.stats.ingest.memberships_added)
          << label;
      EXPECT_EQ(replay.stats.ingest.boundary_additions,
                reference.stats.ingest.boundary_additions)
          << label;
      EXPECT_EQ(replay.stats.matching.neighborhood_evaluations,
                reference.stats.matching.neighborhood_evaluations)
          << label;
      EXPECT_EQ(replay.stats.matching.pairs_rescored,
                reference.stats.matching.pairs_rescored)
          << label;
    }
  }
}

TEST_P(StreamingEquivalence, ChunkedIngestMatchesOneByOne) {
  // AddBatch applies its inserts serially in order, so the final cover and
  // matches are bit-identical to one Add() per reference — only the amount
  // of intermediate re-matching differs.
  const auto dataset = MakeSmallBib(GetParam());
  const mln::MlnMatcher matcher(*dataset);
  std::vector<data::EntityId> refs = dataset->author_refs();
  Rng rng(GetParam());
  rng.Shuffle(refs);
  StreamingMatcher one_by_one(matcher);
  for (data::EntityId ref : refs) one_by_one.Add(ref);
  for (const size_t chunk : {size_t{7}, size_t{32}, refs.size()}) {
    StreamingMatcher chunked(matcher);
    for (size_t start = 0; start < refs.size(); start += chunk) {
      const size_t end = std::min(refs.size(), start + chunk);
      chunked.AddBatch({refs.begin() + start, refs.begin() + end});
    }
    EXPECT_EQ(chunked.matches(), one_by_one.matches()) << "chunk " << chunk;
    ASSERT_EQ(chunked.cover().size(), one_by_one.cover().size());
    for (size_t i = 0; i < chunked.cover().size(); ++i) {
      EXPECT_EQ(chunked.cover().neighborhood(i).entities,
                one_by_one.cover().neighborhood(i).entities)
          << "chunk " << chunk << ", neighborhood " << i;
    }
    // Ingest-side counters are chunk-invariant too (same serial inserts).
    EXPECT_EQ(chunked.stats().ingest.canopies_touched,
              one_by_one.stats().ingest.canopies_touched);
    EXPECT_EQ(chunked.stats().ingest.memberships_added,
              one_by_one.stats().ingest.memberships_added);
  }
}

TEST_P(StreamingEquivalence, CoverStaysTotalAtEveryPrefix) {
  // The maintained invariant behind the equivalence: at every point of the
  // stream, live candidate pairs and live coauthor tuples each share a
  // neighborhood, and every live ref is covered.
  const auto dataset = MakeSmallBib(GetParam());
  const mln::MlnMatcher matcher(*dataset);
  std::vector<data::EntityId> refs = dataset->author_refs();
  Rng rng(GetParam() ^ 0xabcdef);
  rng.Shuffle(refs);
  StreamingMatcher streaming(matcher);
  size_t added = 0;
  for (data::EntityId ref : refs) {
    streaming.Add(ref);
    ++added;
    if (added % 13 != 0 && added != refs.size()) continue;  // Checkpoints.
    const core::CoverMembership membership(streaming.cover());
    for (data::EntityId live : refs) {
      if (!streaming.is_live(live)) continue;
      EXPECT_TRUE(membership.Contains(live));
    }
    for (const data::CandidatePair& cp : dataset->candidate_pairs()) {
      if (!streaming.is_live(cp.pair.a) || !streaming.is_live(cp.pair.b)) {
        continue;
      }
      EXPECT_TRUE(membership.Together(cp.pair.a, cp.pair.b))
          << "split live pair (" << cp.pair.a << ", " << cp.pair.b
          << ") after " << added << " inserts";
    }
    for (data::EntityId u : dataset->author_refs()) {
      if (!streaming.is_live(u)) continue;
      for (data::EntityId v : dataset->Coauthors(u)) {
        if (v < u || !streaming.is_live(v)) continue;
        EXPECT_TRUE(membership.Together(u, v))
            << "split live coauthor tuple (" << u << ", " << v << ") after "
            << added << " inserts";
      }
    }
  }
}

TEST_P(StreamingEquivalence, InsidePairCountsAreExactAfterEveryChunk) {
  // The drain reports pairs rescored from the cover's maintained
  // inside-pair counts, so each must equal a brute-force count of the
  // candidate pairs inside its neighborhood after every chunk, for any
  // arrival order and chunk size.
  const auto dataset = MakeSmallBib(GetParam());
  const mln::MlnMatcher matcher(*dataset);
  for (uint64_t order = 0; order < 2; ++order) {
    std::vector<data::EntityId> refs = dataset->author_refs();
    Rng rng(GetParam() * 17 + order);
    rng.Shuffle(refs);
    for (const size_t chunk : {size_t{1}, size_t{5}, size_t{64}}) {
      StreamingMatcher streaming(matcher);
      for (size_t start = 0; start < refs.size(); start += chunk) {
        const size_t end = std::min(refs.size(), start + chunk);
        if (chunk == 1) {
          streaming.Add(refs[start]);
        } else {
          streaming.AddBatch({refs.begin() + start, refs.begin() + end});
        }
        ASSERT_EQ(testing_util::InsidePairMismatches(
                      streaming.incremental_cover(), *dataset),
                  std::vector<uint32_t>{})
            << "order " << order << ", chunk " << chunk << ", after "
            << end << " inserts";
      }
    }
  }
}

TEST_P(StreamingEquivalence, CoverMembershipIsCurrentAfterEveryInsert) {
  // The drain and the serving preview read the streamed cover's own
  // membership, which each insert extends in place; it must equal a fresh
  // counting-pass build over the neighborhoods after every insert.
  const auto dataset = MakeSmallBib(GetParam());
  const mln::MlnMatcher matcher(*dataset);
  std::vector<data::EntityId> refs = dataset->author_refs();
  Rng rng(GetParam() * 31);
  rng.Shuffle(refs);
  StreamingMatcher streaming(matcher);
  for (size_t i = 0; i < refs.size(); ++i) {
    streaming.Add(refs[i]);
    ASSERT_EQ(testing_util::StaleMembershipRows(streaming.cover(),
                                                dataset->num_entities()),
              std::vector<data::EntityId>{})
        << "after " << i + 1 << " inserts";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, StreamingEquivalence,
                         ::testing::Range<uint64_t>(500, 503));

TEST(StreamingGuardsDeathTest, RejectsDuplicateAndNonRefInserts) {
  const data::Figure1 fig = data::MakeFigure1();
  const mln::MlnMatcher matcher(*fig.dataset, mln::MlnWeights::Figure1Demo());
  StreamingMatcher streaming(matcher);
  streaming.Add(fig.a1);
  EXPECT_TRUE(streaming.is_live(fig.a1));
  EXPECT_EQ(streaming.num_live(), 1u);
  EXPECT_DEATH(streaming.Add(fig.a1), "inserted twice");
  // Papers participate through relations only; they never stream.
  const data::EntityId paper = fig.dataset->authored().Neighbors(fig.a1)[0];
  EXPECT_DEATH(streaming.Add(paper), "author references");
}

}  // namespace
}  // namespace cem
