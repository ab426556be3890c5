#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "data/bib_generator.h"
#include "data/dataset.h"
#include "data/entity.h"
#include "data/figure1.h"
#include "data/tsv_io.h"

namespace cem::data {
namespace {

// ----------------------------------------------------------- EntityPair --

TEST(EntityPairTest, NormalisesOrder) {
  EntityPair p(7, 3);
  EXPECT_EQ(p.a, 3u);
  EXPECT_EQ(p.b, 7u);
  EXPECT_EQ(p, EntityPair(3, 7));
}

TEST(EntityPairTest, KeyRoundTrip) {
  EntityPair p(123456, 789012);
  EXPECT_EQ(PairFromKey(PairKey(p)), p);
}

// -------------------------------------------------------------- Relation --

TEST(RelationTest, SymmetricStoresBothDirections) {
  Relation r("Coauthor", /*symmetric=*/true);
  r.Add(1, 2);
  r.Finalize();
  EXPECT_TRUE(r.Contains(1, 2));
  EXPECT_TRUE(r.Contains(2, 1));
}

TEST(RelationTest, AsymmetricStoresOneDirection) {
  Relation r("Cites", /*symmetric=*/false);
  r.Add(1, 2);
  r.Finalize();
  EXPECT_TRUE(r.Contains(1, 2));
  EXPECT_FALSE(r.Contains(2, 1));
}

TEST(RelationTest, DeduplicatesAndSorts) {
  Relation r("R", false);
  r.Add(0, 5);
  r.Add(0, 3);
  r.Add(0, 5);
  r.Finalize();
  EXPECT_EQ(r.Neighbors(0), (std::vector<EntityId>{3, 5}));
  EXPECT_EQ(r.num_tuples(), 2u);
}

TEST(RelationTest, SelfTuplesIgnored) {
  Relation r("R", true);
  r.Add(4, 4);
  r.Finalize();
  EXPECT_TRUE(r.Neighbors(4).empty());
}

TEST(RelationTest, OutOfRangeNeighborsEmpty) {
  Relation r("R", false);
  r.Finalize();
  EXPECT_TRUE(r.Neighbors(1000).empty());
}

// --------------------------------------------------------------- Dataset --

class SmallDatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two papers: (r0, r1) and (r1, r2). Coauthor: r0-r1, r1-r2.
    r0_ = d_.AddAuthorRef("John", "Smith", 0);
    r1_ = d_.AddAuthorRef("Mary", "Jones", 1);
    r2_ = d_.AddAuthorRef("J.", "Smith", 0);
    p0_ = d_.AddPaper("paper zero", 2001, 100);
    p1_ = d_.AddPaper("paper one", 2002, 101);
    d_.AddAuthored(r0_, p0_);
    d_.AddAuthored(r1_, p0_);
    d_.AddAuthored(r1_, p1_);
    d_.AddAuthored(r2_, p1_);
    d_.AddCites(p1_, p0_);
    d_.Finalize();
  }

  Dataset d_;
  EntityId r0_, r1_, r2_, p0_, p1_;
};

TEST_F(SmallDatasetTest, CoauthorDerivedFromAuthored) {
  EXPECT_EQ(d_.Coauthors(r0_), (std::vector<EntityId>{r1_}));
  EXPECT_EQ(d_.Coauthors(r1_), (std::vector<EntityId>{r0_, r2_}));
  EXPECT_TRUE(d_.coauthor().Contains(r2_, r1_));
  EXPECT_FALSE(d_.coauthor().Contains(r0_, r2_));
}

TEST_F(SmallDatasetTest, CandidatePairsFindSimilarNames) {
  d_.BuildCandidatePairs();
  // r0 ("John Smith") and r2 ("J. Smith") must be candidates; r1 is not
  // similar to either.
  ASSERT_EQ(d_.num_candidate_pairs(), 1u);
  EXPECT_EQ(d_.candidate_pair(0).pair, EntityPair(r0_, r2_));
  EXPECT_NE(d_.candidate_pair(0).level, text::SimilarityLevel::kNone);
  EXPECT_TRUE(d_.FindCandidatePair(r0_, r2_).has_value());
  EXPECT_TRUE(d_.FindCandidatePair(r2_, r0_).has_value());
  EXPECT_FALSE(d_.FindCandidatePair(r0_, r1_).has_value());
}

TEST_F(SmallDatasetTest, PairsOfEntityIndex) {
  d_.BuildCandidatePairs();
  EXPECT_EQ(d_.PairsOfEntity(r0_).size(), 1u);
  EXPECT_EQ(d_.PairsOfEntity(r1_).size(), 0u);
  EXPECT_EQ(d_.PairsOfEntity(r2_).size(), 1u);
}

TEST_F(SmallDatasetTest, GroundTruth) {
  EXPECT_TRUE(d_.IsTrueMatch(EntityPair(r0_, r2_)));
  EXPECT_FALSE(d_.IsTrueMatch(EntityPair(r0_, r1_)));
  EXPECT_EQ(d_.CountTrueMatches(), 1u);
}

TEST_F(SmallDatasetTest, TruthIgnoresUnlabelled) {
  Dataset d;
  EntityId a = d.AddAuthorRef("A", "B");  // kNoTruth
  EntityId b = d.AddAuthorRef("A", "B");
  d.Finalize();
  EXPECT_FALSE(d.IsTrueMatch(EntityPair(a, b)));
  EXPECT_EQ(d.CountTrueMatches(), 0u);
}

TEST(DatasetTest, ManualCandidatePairsDeduplicate) {
  Dataset d;
  EntityId a = d.AddAuthorRef("x", "y", 0);
  EntityId b = d.AddAuthorRef("x", "y", 0);
  d.Finalize();
  d.AddCandidatePair(a, b, text::SimilarityLevel::kHigh);
  d.AddCandidatePair(b, a, text::SimilarityLevel::kHigh);
  d.FinalizeCandidatePairs();
  EXPECT_EQ(d.num_candidate_pairs(), 1u);
}

// ---------------------------------------------------------- BibGenerator --

TEST(BibGeneratorTest, DeterministicForSeed) {
  const BibConfig config = BibConfig::DblpLike(0.2);
  auto d1 = GenerateBibDataset(config);
  auto d2 = GenerateBibDataset(config);
  ASSERT_EQ(d1->num_entities(), d2->num_entities());
  ASSERT_EQ(d1->num_candidate_pairs(), d2->num_candidate_pairs());
  for (size_t i = 0; i < d1->num_entities(); ++i) {
    EXPECT_EQ(d1->entity(i).first_name, d2->entity(i).first_name);
    EXPECT_EQ(d1->entity(i).last_name, d2->entity(i).last_name);
  }
}

TEST(BibGeneratorTest, ProducesLabelledRefsAndRelations) {
  auto d = GenerateBibDataset(BibConfig::DblpLike(0.3));
  EXPECT_GT(d->author_refs().size(), 100u);
  EXPECT_GT(d->num_candidate_pairs(), 40u);
  EXPECT_GT(d->CountTrueMatches(), 20u);
  size_t with_coauthors = 0;
  for (EntityId ref : d->author_refs()) {
    EXPECT_NE(d->entity(ref).truth, kNoTruth);
    with_coauthors += d->Coauthors(ref).empty() ? 0 : 1;
  }
  // Most references share their paper with someone.
  EXPECT_GT(with_coauthors, d->author_refs().size() / 2);
}

TEST(BibGeneratorTest, HepthAbbreviatesDblpDoesNot) {
  auto hepth = GenerateBibDataset(BibConfig::HepthLike(0.2));
  auto dblp = GenerateBibDataset(BibConfig::DblpLike(0.2));
  auto abbreviation_rate = [](const Dataset& d) {
    size_t abbreviated = 0;
    for (EntityId ref : d.author_refs()) {
      const std::string& f = d.entity(ref).first_name;
      if (f.size() == 2 && f[1] == '.') ++abbreviated;
    }
    return static_cast<double>(abbreviated) / d.author_refs().size();
  };
  EXPECT_GT(abbreviation_rate(*hepth), 0.25);
  EXPECT_LT(abbreviation_rate(*dblp), 0.05);
}

TEST(BibGeneratorTest, NoiseModelAbbreviation) {
  BibConfig config;
  config.abbreviate_prob = 1.0;
  config.mutate_prob = 0.0;
  Rng rng(1);
  const RenderedName n = RenderNoisyName(config, "Johannes", "Kepler", rng);
  EXPECT_EQ(n.first, "J.");
  EXPECT_EQ(n.last, "Kepler");
}

TEST(BibGeneratorTest, NoiseModelMutationChangesOneField) {
  BibConfig config;
  config.abbreviate_prob = 0.0;
  config.mutate_prob = 1.0;
  Rng rng(2);
  int changed = 0;
  for (int i = 0; i < 50; ++i) {
    const RenderedName n = RenderNoisyName(config, "Johannes", "Kepler", rng);
    changed += (n.first != "Johannes" || n.last != "Kepler") ? 1 : 0;
  }
  // A mutation can be a no-op substitution of the same letter, but mostly
  // it changes the name.
  EXPECT_GT(changed, 40);
}

// --------------------------------------------------------------- Figure1 --

TEST(Figure1Test, StructureMatchesThePaper) {
  Figure1 fig = MakeFigure1();
  const Dataset& d = *fig.dataset;
  // Coauthor edges of Figure 1.
  EXPECT_TRUE(d.coauthor().Contains(fig.a1, fig.b2));
  EXPECT_TRUE(d.coauthor().Contains(fig.a2, fig.b3));
  EXPECT_TRUE(d.coauthor().Contains(fig.b1, fig.c1));
  EXPECT_TRUE(d.coauthor().Contains(fig.b2, fig.c2));
  EXPECT_TRUE(d.coauthor().Contains(fig.b3, fig.c3));
  EXPECT_TRUE(d.coauthor().Contains(fig.c1, fig.d1));
  EXPECT_TRUE(d.coauthor().Contains(fig.c2, fig.d1));
  EXPECT_FALSE(d.coauthor().Contains(fig.a1, fig.c1));
  // Similar within letter groups: 1 + 3 + 3 pairs.
  EXPECT_EQ(d.num_candidate_pairs(), 7u);
  // Three neighborhoods.
  EXPECT_EQ(fig.neighborhoods.size(), 3u);
}

// ----------------------------------------------------------------- TSV IO --

TEST(TsvIoTest, RoundTrip) {
  Figure1 fig = MakeFigure1();
  const std::string path = ::testing::TempDir() + "/figure1.tsv";
  ASSERT_TRUE(SaveDatasetTsv(*fig.dataset, path).ok());
  auto loaded = LoadDatasetTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Dataset& d = **loaded;
  ASSERT_EQ(d.num_entities(), fig.dataset->num_entities());
  for (size_t i = 0; i < d.num_entities(); ++i) {
    EXPECT_EQ(d.entity(i).type, fig.dataset->entity(i).type);
    EXPECT_EQ(d.entity(i).truth, fig.dataset->entity(i).truth);
    EXPECT_EQ(d.entity(i).first_name, fig.dataset->entity(i).first_name);
  }
  EXPECT_TRUE(d.coauthor().Contains(fig.c2, fig.d1));
  std::remove(path.c_str());
}

TEST(TsvIoTest, MissingFileIsError) {
  auto result = LoadDatasetTsv("/nonexistent/path/x.tsv");
  EXPECT_FALSE(result.ok());
}

TEST(TsvIoTest, MalformedLineIsError) {
  const std::string path = ::testing::TempDir() + "/bad.tsv";
  FILE* f = fopen(path.c_str(), "w");
  fputs("Z\t1\t2\n", f);
  fclose(f);
  auto result = LoadDatasetTsv(path);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

/// Loads `contents` from a temporary TSV file named after the running test
/// (test processes may run concurrently).
Result<std::unique_ptr<Dataset>> LoadTsvText(const std::string& contents) {
  const std::string path =
      ::testing::TempDir() + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".tsv";
  FILE* f = fopen(path.c_str(), "w");
  fputs(contents.c_str(), f);
  fclose(f);
  auto result = LoadDatasetTsv(path);
  std::remove(path.c_str());
  return result;
}

/// True if `status` is InvalidArgument and names line `line` of the file.
bool RejectsLine(const Status& status, int line) {
  return status.code() == StatusCode::kInvalidArgument &&
         status.message().find(".tsv:" + std::to_string(line) + ":") !=
             std::string::npos;
}

TEST(TsvIoTest, NonNumericIdIsError) {
  auto result = LoadTsvText("A\tabc\tJohn\tSmith\t0\n");
  EXPECT_TRUE(RejectsLine(result.status(), 1)) << result.status();
}

TEST(TsvIoTest, IdBeyondEntityIdRangeIsError) {
  // 2^32 must not wrap around to entity 0.
  auto result = LoadTsvText("A\t4294967296\tJohn\tSmith\t0\n");
  EXPECT_TRUE(RejectsLine(result.status(), 1)) << result.status();
}

TEST(TsvIoTest, AuthoredTupleNamingPaperFirstIsError) {
  auto result = LoadTsvText(
      "A\t0\tJohn\tSmith\t0\n"
      "P\t1\tTitle\t2000\t4294967295\n"
      "W\t1\t0\n");
  EXPECT_TRUE(RejectsLine(result.status(), 3)) << result.status();
}

TEST(TsvIoTest, CitesTupleNamingNonPaperIsError) {
  auto result = LoadTsvText(
      "A\t0\tJohn\tSmith\t0\n"
      "P\t1\tTitle\t2000\t4294967295\n"
      "\n"
      "C\t1\t0\n");
  EXPECT_TRUE(RejectsLine(result.status(), 4)) << result.status();
}

TEST(TsvIoTest, NoTruthLabelLoads) {
  auto result = LoadTsvText("P\t0\tTitle\t-12\t4294967295\n");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->entity(0).truth, kNoTruth);
  EXPECT_EQ((*result)->entity(0).year, -12);
}

/// Saves `dataset` to a file named after the running test: the save must
/// refuse, name entity 1 and create no file.
void ExpectSaveRefusesEntityOne(const Dataset& dataset) {
  const std::string path =
      ::testing::TempDir() + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".tsv";
  std::remove(path.c_str());
  const Status status = SaveDatasetTsv(dataset, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("entity 1:"), std::string::npos) << status;
  EXPECT_FALSE(std::filesystem::exists(path)) << "save created " << path;
}

TEST(TsvIoTest, SaveRefusesATabInAFirstName) {
  Dataset d;
  d.AddAuthorRef("ann", "lee");
  d.AddAuthorRef("jo\thn", "smith");
  d.Finalize();
  ExpectSaveRefusesEntityOne(d);
}

TEST(TsvIoTest, SaveRefusesANewlineInALastName) {
  Dataset d;
  d.AddAuthorRef("ann", "lee");
  d.AddAuthorRef("john", "smi\nth");
  d.Finalize();
  ExpectSaveRefusesEntityOne(d);
}

TEST(TsvIoTest, SaveRefusesATabInATitle) {
  Dataset d;
  d.AddAuthorRef("ann", "lee");
  d.AddPaper("entity\tmatching", 2011);
  d.Finalize();
  ExpectSaveRefusesEntityOne(d);
}

}  // namespace
}  // namespace cem::data
