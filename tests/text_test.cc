#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "text/jaccard.h"
#include "text/jaro_winkler.h"
#include "text/similarity_level.h"
#include "text/token_arena.h"
#include "text/token_index.h"
#include "util/hash.h"
#include "util/random.h"

namespace cem::text {
namespace {

// ------------------------------------------------------------------ Jaro --

TEST(JaroTest, IdenticalStrings) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("martha", "martha"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
}

TEST(JaroTest, CompletelyDifferent) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroTest, EmptyVersusNonEmpty) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
}

TEST(JaroTest, KnownLiteratureValues) {
  // Classic examples from the record-linkage literature.
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.7667, 1e-3);
  EXPECT_NEAR(JaroSimilarity("jellyfish", "smellyfish"), 0.8963, 1e-3);
}

TEST(JaroTest, Symmetric) {
  const char* samples[] = {"smith", "smyth", "johnson", "jonson", "a", "ab"};
  for (const char* a : samples) {
    for (const char* b : samples) {
      EXPECT_DOUBLE_EQ(JaroSimilarity(a, b), JaroSimilarity(b, a));
    }
  }
}

TEST(JaroWinklerTest, KnownValues) {
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.9611, 1e-3);
  EXPECT_NEAR(JaroWinklerSimilarity("dixon", "dicksonx"), 0.8133, 1e-3);
}

TEST(JaroWinklerTest, PrefixBoostsScore) {
  const double jw = JaroWinklerSimilarity("prefixed", "prefixes");
  const double j = JaroSimilarity("prefixed", "prefixes");
  EXPECT_GT(jw, j);
}

TEST(JaroWinklerTest, BoundedByOne) {
  EXPECT_LE(JaroWinklerSimilarity("aaaa", "aaaa"), 1.0);
  EXPECT_LE(JaroWinklerSimilarity("aaaab", "aaaac", 0.25), 1.0);
}

// -------------------------------------------------------------- Jaccard --

TEST(JaccardTest, SetSemantics) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "a", "b"}, {"a", "b", "b"}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a"}, {"b"}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "b"}, {"b", "c"}), 1.0 / 3.0);
}

TEST(JaccardTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard("john smith", "smith john"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("john smith", "mary jones"), 0.0);
}

TEST(JaccardTest, NgramJaccardDetectsTypos) {
  EXPECT_GT(NgramJaccard("rastogi", "rastogy"), 0.4);
  EXPECT_LT(NgramJaccard("rastogi", "garofalakis"), 0.2);
}

// ------------------------------------------------------ SimilarityLevel --

TEST(SimilarityLevelTest, DiscretizeThresholds) {
  LevelThresholds t;  // 0.74 / 0.93 / 0.97
  EXPECT_EQ(Discretize(0.99, t), SimilarityLevel::kHigh);
  EXPECT_EQ(Discretize(0.97, t), SimilarityLevel::kHigh);
  EXPECT_EQ(Discretize(0.94, t), SimilarityLevel::kMedium);
  EXPECT_EQ(Discretize(0.80, t), SimilarityLevel::kLow);
  EXPECT_EQ(Discretize(0.74, t), SimilarityLevel::kLow);
  EXPECT_EQ(Discretize(0.30, t), SimilarityLevel::kNone);
}

TEST(SimilarityLevelTest, IdenticalFullNamesAreHigh) {
  LevelThresholds t;
  EXPECT_EQ(NameSimilarityLevel("John", "Smith", "John", "Smith", t),
            SimilarityLevel::kHigh);
}

TEST(SimilarityLevelTest, AbbreviatedFirstNameIsAmbiguous) {
  LevelThresholds t;
  // "J. Smith" vs "John Smith": similar but not top-level — the HEPTH
  // situation the paper describes.
  const SimilarityLevel level =
      NameSimilarityLevel("J.", "Smith", "John", "Smith", t);
  EXPECT_TRUE(level == SimilarityLevel::kMedium ||
              level == SimilarityLevel::kLow);
  EXPECT_NE(level, SimilarityLevel::kHigh);
  EXPECT_NE(level, SimilarityLevel::kNone);
}

TEST(SimilarityLevelTest, MismatchedInitialKillsSimilarity) {
  EXPECT_LT(NameSimilarity("J.", "Smith", "Mary", "Smith"),
            NameSimilarity("M.", "Smith", "Mary", "Smith"));
}

TEST(SimilarityLevelTest, DifferentLastNamesAreNone) {
  LevelThresholds t;
  EXPECT_EQ(NameSimilarityLevel("John", "Smith", "John", "Garofalakis", t),
            SimilarityLevel::kNone);
}

TEST(SimilarityLevelTest, SymmetricInArguments) {
  EXPECT_DOUBLE_EQ(NameSimilarity("J.", "Smith", "John", "Smith"),
                   NameSimilarity("John", "Smith", "J.", "Smith"));
}

TEST(SimilarityLevelTest, SmallTypoStaysSimilar) {
  LevelThresholds t;
  EXPECT_NE(NameSimilarityLevel("John", "Smith", "John", "Smyth", t),
            SimilarityLevel::kNone);
}

// ------------------------------------------------------------ TokenIndex --

TEST(TokenIndexTest, FindsOverlappingDocs) {
  TokenIndex index;
  index.AddDocument(0, {"smi", "mit", "ith"});
  index.AddDocument(1, {"smi", "mit", "itt"});
  index.AddDocument(2, {"xyz"});
  auto candidates = index.Candidates(0, 0.1);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].doc_id, 1u);
  EXPECT_NEAR(candidates[0].score, 2.0 / 3.0, 1e-9);
}

TEST(TokenIndexTest, MinScoreFilters) {
  TokenIndex index;
  index.AddDocument(0, {"a", "b", "c", "d"});
  index.AddDocument(1, {"a"});
  EXPECT_TRUE(index.Candidates(0, 0.5).empty());
  EXPECT_EQ(index.Candidates(0, 0.2).size(), 1u);
}

TEST(TokenIndexTest, CaseInsensitive) {
  TokenIndex index;
  index.AddDocument(0, {"ABC"});
  index.AddDocument(1, {"abc"});
  EXPECT_EQ(index.Candidates(0, 0.5).size(), 1u);
}

TEST(TokenIndexTest, DuplicateTokensCollapse) {
  TokenIndex index;
  index.AddDocument(0, {"a", "a", "a"});
  index.AddDocument(1, {"a", "b"});
  auto candidates = index.Candidates(0, 0.0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_NEAR(candidates[0].score, 0.5, 1e-9);  // 1 shared / max(1, 2)
}

TEST(TokenIndexTest, SelfExcluded) {
  TokenIndex index;
  index.AddDocument(0, {"x"});
  EXPECT_TRUE(index.Candidates(0, 0.0).empty());
}

TEST(TokenIndexTest, SizeTracksIncrementalAdds) {
  // size()/empty() must be an O(1) running document count (the corpus size
  // as the index sees it), never inferred from postings contents.
  TokenIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  index.AddDocument(0, {"a", "b"});
  EXPECT_EQ(index.size(), 1u);
  index.AddDocument(1, {});  // Token-free documents still count.
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.size(), index.num_documents());
  EXPECT_FALSE(index.empty());
}

TEST(TokenIndexTest, ShardedAddDocumentMatchesSingleShard) {
  const std::vector<std::vector<std::string>> docs = {
      {"smi", "mit", "ith"}, {"smi", "mit", "itt"}, {"xyz", "SMI"}, {}};
  TokenIndex single;
  TokenIndex sharded(7);
  for (uint32_t doc = 0; doc < docs.size(); ++doc) {
    single.AddDocument(doc, docs[doc]);
    sharded.AddDocument(doc, docs[doc]);
  }
  EXPECT_EQ(sharded.num_shards(), 7u);
  EXPECT_EQ(sharded.num_tokens(), single.num_tokens());
  EXPECT_EQ(sharded.num_postings(), single.num_postings());
  for (uint32_t doc = 0; doc < docs.size(); ++doc) {
    size_t single_scored = 0;
    size_t sharded_scored = 0;
    const auto expected = single.Candidates(doc, 0.0, &single_scored);
    const auto actual = sharded.Candidates(doc, 0.0, &sharded_scored);
    EXPECT_EQ(sharded_scored, single_scored);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].doc_id, expected[i].doc_id);
      EXPECT_EQ(actual[i].score, expected[i].score);
    }
  }
}

TEST(TokenIndexTest, AddDocumentsMatchesSerialInsertion) {
  const std::vector<std::vector<std::string>> docs = {
      {"a", "b", "c"}, {"b", "c", "d"}, {"A", "a", "e"}, {"f"}};
  TokenIndex serial;
  for (uint32_t doc = 0; doc < docs.size(); ++doc) {
    serial.AddDocument(doc, docs[doc]);
  }
  ExecutionContext ctx(3, /*num_shards=*/5);
  TokenIndex bulk(ctx.num_token_shards());
  bulk.AddDocuments(docs, ctx);
  EXPECT_EQ(bulk.num_documents(), serial.num_documents());
  EXPECT_EQ(bulk.num_tokens(), serial.num_tokens());
  EXPECT_EQ(bulk.num_postings(), serial.num_postings());
  for (uint32_t doc = 0; doc < docs.size(); ++doc) {
    const auto expected = serial.Candidates(doc, 0.0);
    const auto actual = bulk.Candidates(doc, 0.0);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].doc_id, expected[i].doc_id);
      EXPECT_EQ(actual[i].score, expected[i].score);
    }
  }
}

/// Random lower-case token sets over a small vocabulary, so many documents
/// overlap, plus one token-free document and one whose only token no other
/// document has.
std::vector<std::vector<std::string>> OverlapDocs(Rng& rng, size_t n) {
  std::vector<std::vector<std::string>> docs(n);
  for (auto& doc : docs) {
    const size_t num_tokens = 1 + rng.NextBounded(6);
    for (size_t t = 0; t < num_tokens; ++t) {
      doc.push_back("t" + std::to_string(rng.NextBounded(30)));
    }
  }
  docs[n / 3].clear();
  docs[n / 2] = {"only-here"};
  return docs;
}

/// Brute-force overlap scan: every other document with id >= `first`
/// sharing a token, scored |A ∩ B| / max(|A|, |B|) over the deduplicated
/// token sets, in id order. `num_scored` counts them before the filter.
std::vector<TokenIndex::Neighbor> BruteForceOverlaps(
    const std::vector<std::set<std::string>>& docs, uint32_t doc,
    uint32_t first, double min_score, size_t& num_scored) {
  const std::set<std::string>& mine = docs[doc];
  std::vector<TokenIndex::Neighbor> out;
  num_scored = 0;
  for (uint32_t other = first; other < docs.size(); ++other) {
    if (other == doc) continue;
    const std::set<std::string>& theirs = docs[other];
    size_t shared = 0;
    for (const std::string& token : mine) shared += theirs.count(token);
    if (shared == 0) continue;
    ++num_scored;
    const double score = static_cast<double>(shared) /
                         static_cast<double>(std::max(mine.size(),
                                                      theirs.size()));
    if (score >= min_score) out.push_back({other, score});
  }
  return out;
}

void ExpectSameNeighbors(const std::vector<TokenIndex::Neighbor>& actual,
                         const std::vector<TokenIndex::Neighbor>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].doc_id, expected[i].doc_id);
    EXPECT_EQ(actual[i].score, expected[i].score);
  }
}

/// Checks Candidates() and CandidatesAfter() of every document against the
/// brute-force scan, with and without a score filter.
void ExpectOverlapsMatchBruteForce(
    const TokenIndex& index,
    const std::vector<std::vector<std::string>>& token_lists) {
  std::vector<std::set<std::string>> docs;
  for (const auto& tokens : token_lists) {
    docs.emplace_back(tokens.begin(), tokens.end());
  }
  for (uint32_t doc = 0; doc < docs.size(); ++doc) {
    for (const double min_score : {0.0, 0.4}) {
      SCOPED_TRACE("doc " + std::to_string(doc) + ", min_score " +
                   std::to_string(min_score));
      size_t want_scored = 0;
      size_t scored = 0;
      const auto all = index.Candidates(doc, min_score, &scored);
      ExpectSameNeighbors(
          all, BruteForceOverlaps(docs, doc, 0, min_score, want_scored));
      EXPECT_EQ(scored, want_scored);
      const auto after = index.CandidatesAfter(doc, min_score, &scored);
      ExpectSameNeighbors(after, BruteForceOverlaps(docs, doc, doc + 1,
                                                    min_score, want_scored));
      EXPECT_EQ(scored, want_scored);
      std::vector<TokenIndex::Neighbor> all_after;
      for (const auto& neighbor : all) {
        if (neighbor.doc_id > doc) all_after.push_back(neighbor);
      }
      ExpectSameNeighbors(after, all_after);
    }
  }
}

TEST(TokenIndexTest, OverlapScansMatchBruteForceAcrossIndexes) {
  // Every query runs on this one thread, so the small index's queries
  // reuse the overlap counts the large index's queries left behind, and
  // the large index's second pass reuses the small index's.
  Rng rng(0x0e1a9);
  const auto large_docs = OverlapDocs(rng, 240);
  const auto small_docs = OverlapDocs(rng, 12);
  TokenIndex large(/*num_shards=*/4);
  TokenIndex small;
  for (uint32_t doc = 0; doc < large_docs.size(); ++doc) {
    large.AddDocument(doc, large_docs[doc]);
  }
  for (uint32_t doc = 0; doc < small_docs.size(); ++doc) {
    small.AddDocument(doc, small_docs[doc]);
  }
  ExpectOverlapsMatchBruteForce(large, large_docs);
  ExpectOverlapsMatchBruteForce(small, small_docs);
  ExpectOverlapsMatchBruteForce(large, large_docs);
  // The token-free and the isolated document overlap nothing.
  EXPECT_TRUE(large.Candidates(large_docs.size() / 3, 0.0).empty());
  EXPECT_TRUE(large.Candidates(large_docs.size() / 2, 0.0).empty());
}

// ----------------------------------------------------------- TokenCorpus --

std::vector<std::string_view> Views(std::span<const TokenRef> tokens) {
  std::vector<std::string_view> out;
  for (const TokenRef& token : tokens) out.push_back(token.view());
  return out;
}

TEST(TokenCorpusTest, NormalisesLikeTokenIndex) {
  // Lower-cased, sorted, deduplicated — the historical per-document form.
  TokenCorpus corpus;
  corpus.AppendDoc([](TokenCorpus::DocBuilder& b) {
    b.EmitLower("Beta");
    b.EmitLower("alpha");
    b.EmitLower("BETA");
    b.EmitLower("gamma");
  });
  ASSERT_EQ(corpus.num_docs(), 1u);
  EXPECT_EQ(Views(corpus.doc(0)),
            (std::vector<std::string_view>{"alpha", "beta", "gamma"}));
  EXPECT_EQ(corpus.num_tokens(), 3u);
}

TEST(TokenCorpusTest, TokenRefHashMatchesFnv1a64OfView) {
  TokenCorpus corpus;
  corpus.AppendDoc([](TokenCorpus::DocBuilder& b) {
    b.EmitLower("Doe");
    b.Emit("j|do");
  });
  for (const TokenRef& token : corpus.doc(0)) {
    EXPECT_EQ(token.hash, Fnv1a64(token.view())) << token.view();
  }
}

TEST(TokenCorpusTest, AliasedTrigramsShareInternedStorage) {
  TokenCorpus corpus;
  corpus.AppendDoc([](TokenCorpus::DocBuilder& b) {
    const std::string_view interned = b.InternLower("Smith");
    EXPECT_EQ(interned, "smith");
    for (size_t i = 0; i + 3 <= interned.size(); ++i) {
      b.EmitAlias(interned.data() + i, 3);
    }
  });
  const auto tokens = corpus.doc(0);
  EXPECT_EQ(Views(tokens),
            (std::vector<std::string_view>{"ith", "mit", "smi"}));
  // Aliases slice the single interned copy: 5 bytes, not 9.
  EXPECT_EQ(corpus.arena_bytes(), 5u);
}

TEST(TokenCorpusTest, BuildIdenticalAcrossThreadCounts) {
  // Enough documents to span multiple fixed-size chunks.
  const size_t num_docs = TokenCorpus::kChunkDocs * 3 + 17;
  const auto tokenize = [](size_t doc, TokenCorpus::DocBuilder& b) {
    b.EmitLower("Doc" + std::to_string(doc % 100));
    b.EmitLower("shared");
    if (doc % 3 == 0) b.EmitLower("Third");
  };
  ExecutionContext serial(1);
  const TokenCorpus reference = TokenCorpus::Build(num_docs, tokenize, serial);
  ASSERT_EQ(reference.num_docs(), num_docs);
  for (uint32_t threads : {2u, 8u}) {
    ExecutionContext ctx(threads);
    const TokenCorpus corpus = TokenCorpus::Build(num_docs, tokenize, ctx);
    ASSERT_EQ(corpus.num_docs(), num_docs);
    EXPECT_EQ(corpus.num_tokens(), reference.num_tokens());
    EXPECT_EQ(corpus.arena_bytes(), reference.arena_bytes());
    for (size_t doc = 0; doc < num_docs; ++doc) {
      const auto actual = corpus.doc(doc);
      const auto expected = reference.doc(doc);
      ASSERT_EQ(actual.size(), expected.size()) << "doc " << doc;
      for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].view(), expected[i].view());
        EXPECT_EQ(actual[i].hash, expected[i].hash);
      }
    }
  }
}

TEST(TokenCorpusTest, AppendDocMatchesBuild) {
  const auto tokenize = [](size_t doc, TokenCorpus::DocBuilder& b) {
    b.EmitLower("tok" + std::to_string(doc));
    b.EmitLower("common");
  };
  ExecutionContext serial(1);
  const TokenCorpus built = TokenCorpus::Build(5, tokenize, serial);
  TokenCorpus appended;
  for (size_t doc = 0; doc < 5; ++doc) {
    appended.AppendDoc(
        [&](TokenCorpus::DocBuilder& b) { tokenize(doc, b); });
  }
  ASSERT_EQ(appended.num_docs(), built.num_docs());
  for (size_t doc = 0; doc < 5; ++doc) {
    EXPECT_EQ(Views(appended.doc(doc)), Views(built.doc(doc)));
  }
}

TEST(TokenCorpusTest, MovePreservesDocuments) {
  TokenCorpus corpus;
  corpus.AppendDoc([](TokenCorpus::DocBuilder& b) { b.EmitLower("Alpha"); });
  TokenCorpus moved(std::move(corpus));
  ASSERT_EQ(moved.num_docs(), 1u);
  EXPECT_EQ(Views(moved.doc(0)), (std::vector<std::string_view>{"alpha"}));
}

TEST(HashedJaccardTest, MatchesStringJaccardOnCorpusDocs) {
  TokenCorpus corpus;
  const std::vector<std::vector<std::string>> docs = {
      {"a", "b", "c"},
      {"b", "c", "d", "e"},
      {},
      {"a", "b", "c"},
      {"x"},
  };
  for (const auto& tokens : docs) {
    corpus.AppendDoc([&](TokenCorpus::DocBuilder& b) {
      for (const std::string& token : tokens) b.EmitLower(token);
    });
  }
  for (size_t i = 0; i < docs.size(); ++i) {
    for (size_t j = 0; j < docs.size(); ++j) {
      EXPECT_DOUBLE_EQ(HashedJaccard(corpus.doc(i), corpus.doc(j)),
                       JaccardSimilarity(docs[i], docs[j]))
          << i << " vs " << j;
    }
  }
}

}  // namespace
}  // namespace cem::text
