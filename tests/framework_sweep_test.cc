// Parameterized end-to-end sweeps: the framework's invariants must hold for
// every combination of corpus family, matcher and execution scheme — this
// is the "does it hold everywhere" net over the per-module tests.

#include <unistd.h>

#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/canopy.h"
#include "core/grid_executor.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "data/tsv_io.h"
#include "eval/metrics.h"
#include "mln/mln_matcher.h"
#include "rules/rules_matcher.h"

namespace cem {
namespace {

using core::MatchSet;

enum class Corpus { kHepth, kDblp };
enum class Which { kMln, kRules };

std::string CorpusName(Corpus c) {
  return c == Corpus::kHepth ? "hepth" : "dblp";
}
std::string MatcherName(Which m) { return m == Which::kMln ? "mln" : "rules"; }

/// Cache of generated corpora so the sweep stays fast.
struct Instance {
  std::unique_ptr<data::Dataset> dataset;
  core::Cover cover;
  std::unique_ptr<mln::MlnMatcher> mln;
  std::unique_ptr<rules::RulesMatcher> rules;
};

Instance& GetInstance(Corpus corpus) {
  static Instance hepth, dblp;
  Instance& inst = corpus == Corpus::kHepth ? hepth : dblp;
  if (inst.dataset == nullptr) {
    inst.dataset = data::GenerateBibDataset(
        corpus == Corpus::kHepth ? data::BibConfig::HepthLike(0.2)
                                 : data::BibConfig::DblpLike(0.2));
    inst.cover = core::BuildCanopyCover(*inst.dataset);
    inst.mln = std::make_unique<mln::MlnMatcher>(*inst.dataset);
    inst.rules = std::make_unique<rules::RulesMatcher>(*inst.dataset);
  }
  return inst;
}

const core::Matcher& GetMatcher(Instance& inst, Which which) {
  if (which == Which::kMln) return *inst.mln;
  return *inst.rules;
}

class FrameworkSweep
    : public ::testing::TestWithParam<std::tuple<Corpus, Which>> {};

TEST_P(FrameworkSweep, CoverIsWellFormed) {
  Instance& inst = GetInstance(std::get<0>(GetParam()));
  EXPECT_TRUE(inst.cover.CoversAllAuthorRefs(*inst.dataset));
  EXPECT_TRUE(inst.cover.IsTotalForCoauthor(*inst.dataset));
  EXPECT_DOUBLE_EQ(inst.cover.CandidatePairCoverage(*inst.dataset), 1.0);
}

TEST_P(FrameworkSweep, SmpSoundAgainstFullRun) {
  auto [corpus, which] = GetParam();
  Instance& inst = GetInstance(corpus);
  const core::Matcher& matcher = GetMatcher(inst, which);
  const MatchSet full = matcher.MatchAll();
  EXPECT_TRUE(core::RunSmp(matcher, inst.cover).matches.IsSubsetOf(full))
      << CorpusName(corpus) << "/" << MatcherName(which);
}

TEST_P(FrameworkSweep, SchemeHierarchyHolds) {
  auto [corpus, which] = GetParam();
  Instance& inst = GetInstance(corpus);
  const core::Matcher& matcher = GetMatcher(inst, which);
  const MatchSet no_mp = core::RunNoMp(matcher, inst.cover).matches;
  const MatchSet smp = core::RunSmp(matcher, inst.cover).matches;
  EXPECT_TRUE(no_mp.IsSubsetOf(smp));
  if (which == Which::kMln) {
    const MatchSet mmp = core::RunMmp(*inst.mln, inst.cover).matches;
    EXPECT_TRUE(smp.IsSubsetOf(mmp));
  }
}

TEST_P(FrameworkSweep, GridEqualsSequentialAcrossMachineCounts) {
  auto [corpus, which] = GetParam();
  Instance& inst = GetInstance(corpus);
  const core::Matcher& matcher = GetMatcher(inst, which);
  const MatchSet sequential = core::RunSmp(matcher, inst.cover).matches;
  for (uint32_t machines : {2u, 5u}) {
    core::GridOptions options;
    options.scheme = core::MpScheme::kSmp;
    options.num_machines = machines;
    options.seed = 77 + machines;
    EXPECT_EQ(core::RunGrid(matcher, inst.cover, options).matches, sequential)
        << machines << " machines";
  }
}

TEST_P(FrameworkSweep, PrecisionUsefulOnAllCombinations) {
  auto [corpus, which] = GetParam();
  Instance& inst = GetInstance(corpus);
  const core::Matcher& matcher = GetMatcher(inst, which);
  const MatchSet smp = core::RunSmp(matcher, inst.cover).matches;
  const eval::PrMetrics m = eval::ComputePr(*inst.dataset, smp);
  EXPECT_GT(m.precision, 0.8) << CorpusName(corpus) << "/"
                              << MatcherName(which);
}

TEST_P(FrameworkSweep, TsvRoundTripPreservesPipelineOutput) {
  auto [corpus, which] = GetParam();
  Instance& inst = GetInstance(corpus);
  // Unique per matcher and process: ctest runs each case in its own
  // process, in parallel, and the cases of one corpus must not share a file.
  const std::string path = ::testing::TempDir() + "/sweep_" +
                           CorpusName(corpus) + "_" + MatcherName(which) +
                           "_" + std::to_string(::getpid()) + ".tsv";
  ASSERT_TRUE(data::SaveDatasetTsv(*inst.dataset, path).ok());
  auto loaded = data::LoadDatasetTsv(path);
  ASSERT_TRUE(loaded.ok());
  (*loaded)->BuildCandidatePairs();
  ASSERT_EQ((*loaded)->num_candidate_pairs(),
            inst.dataset->num_candidate_pairs());
  // The reloaded corpus must produce the identical match set.
  const core::Cover cover = core::BuildCanopyCover(**loaded);
  if (which == Which::kMln) {
    mln::MlnMatcher reloaded_matcher(**loaded);
    EXPECT_EQ(core::RunSmp(reloaded_matcher, cover).matches,
              core::RunSmp(*inst.mln, inst.cover).matches);
  } else {
    rules::RulesMatcher reloaded_matcher(**loaded);
    EXPECT_EQ(core::RunSmp(reloaded_matcher, cover).matches,
              core::RunSmp(*inst.rules, inst.cover).matches);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, FrameworkSweep,
    ::testing::Combine(::testing::Values(Corpus::kHepth, Corpus::kDblp),
                       ::testing::Values(Which::kMln, Which::kRules)),
    [](const ::testing::TestParamInfo<FrameworkSweep::ParamType>& info) {
      return CorpusName(std::get<0>(info.param)) + "_" +
             MatcherName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace cem
