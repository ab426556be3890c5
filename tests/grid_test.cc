#include <optional>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/grid_executor.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "data/figure1.h"
#include "eval/experiment.h"
#include "mln/mln_matcher.h"
#include "rules/rules_matcher.h"
#include "util/execution_context.h"

namespace cem::core {
namespace {

class GridFigure1 : public ::testing::Test {
 protected:
  GridFigure1()
      : fig_(data::MakeFigure1()),
        matcher_(*fig_.dataset, mln::MlnWeights::Figure1Demo()) {
    for (const auto& n : fig_.neighborhoods) cover_.Add(n);
  }

  data::Figure1 fig_;
  mln::MlnMatcher matcher_;
  Cover cover_;
};

TEST_F(GridFigure1, GridSmpEqualsSequentialSmp) {
  GridOptions options;
  options.scheme = MpScheme::kSmp;
  options.num_machines = 3;
  const GridResult grid = RunGrid(matcher_, cover_, options);
  EXPECT_EQ(grid.matches, RunSmp(matcher_, cover_).matches);
  EXPECT_GE(grid.rounds, 2u);  // Evidence from C3 forces a second round.
}

TEST_F(GridFigure1, GridMmpEqualsSequentialMmp) {
  GridOptions options;
  options.scheme = MpScheme::kMmp;
  options.num_machines = 2;
  const GridResult grid = RunGrid(matcher_, cover_, options);
  EXPECT_EQ(grid.matches, RunMmp(matcher_, cover_).matches);
  EXPECT_EQ(grid.matches.size(), 5u);
}

TEST_F(GridFigure1, GridNoMpSingleRound) {
  GridOptions options;
  options.scheme = MpScheme::kNoMp;
  const GridResult grid = RunGrid(matcher_, cover_, options);
  EXPECT_EQ(grid.rounds, 1u);
  EXPECT_EQ(grid.matches, RunNoMp(matcher_, cover_).matches);
}

TEST_F(GridFigure1, MachineCountDoesNotChangeResult) {
  for (uint32_t machines : {1u, 2u, 7u, 30u}) {
    GridOptions options;
    options.scheme = MpScheme::kMmp;
    options.num_machines = machines;
    EXPECT_EQ(RunGrid(matcher_, cover_, options).matches,
              RunMmp(matcher_, cover_).matches)
        << machines << " machines";
  }
}

TEST_F(GridFigure1, OverheadAccountedPerRound) {
  GridOptions base;
  base.scheme = MpScheme::kSmp;
  GridOptions with_overhead = base;
  with_overhead.per_round_overhead_seconds = 0.5;
  const GridResult cheap = RunGrid(matcher_, cover_, base);
  const GridResult costly = RunGrid(matcher_, cover_, with_overhead);
  EXPECT_NEAR(costly.simulated_seconds - cheap.simulated_seconds,
              0.5 * costly.rounds, 0.3);
}

TEST(GridTest, ParallelSpeedupOnRealCorpus) {
  // The Table 1 shape: more simulated machines -> lower simulated makespan
  // (sub-linear because of skew and per-round overhead).
  auto dataset = data::GenerateBibDataset(data::BibConfig::HepthLike(0.25));
  const Cover cover = BuildCanopyCover(*dataset);
  mln::MlnMatcher inner(*dataset);
  // The cost model restores the expensive-inference regime so per-task
  // durations dominate the makespan.
  eval::CostModelMatcher matcher(inner, /*cost_scale_us=*/1.0,
                                 /*exponent=*/1.3);

  GridOptions one;
  one.scheme = MpScheme::kSmp;
  one.num_machines = 1;
  GridOptions thirty = one;
  thirty.num_machines = 30;
  const GridResult single = RunGrid(matcher, cover, one);
  const GridResult grid = RunGrid(matcher, cover, thirty);
  EXPECT_EQ(single.matches, grid.matches);
  const double speedup = single.simulated_seconds / grid.simulated_seconds;
  EXPECT_GT(speedup, 2.0);
  EXPECT_LT(speedup, 30.0);  // Never perfect (skew + overhead).
}

TEST(GridTest, RulesMatcherOnGrid) {
  auto dataset = data::GenerateBibDataset(data::BibConfig::DblpLike(0.25));
  const Cover cover = BuildCanopyCover(*dataset);
  rules::RulesMatcher matcher(*dataset);
  GridOptions options;
  options.scheme = MpScheme::kSmp;
  options.num_machines = 4;
  const GridResult grid = RunGrid(matcher, cover, options);
  EXPECT_EQ(grid.matches, RunSmp(matcher, cover).matches);
}

/// The real pool size must not change RunGrid's work: on the canopy
/// workloads, matches, rounds and evaluations are identical on pools of 1,
/// 2 and 4 threads, and the matches are the sequential driver's.
class GridAcrossPools : public ::testing::TestWithParam<const char*> {};

TEST_P(GridAcrossPools, WorkIsIdenticalAcrossPoolSizes) {
  const bool hepth = std::string_view(GetParam()) == "hepth";
  const eval::Workload workload =
      hepth ? eval::MakeHepthWorkload(0.3, BlockingStrategy::kCanopy)
            : eval::MakeDblpWorkload(0.3, BlockingStrategy::kCanopy);
  const mln::MlnMatcher matcher(*workload.dataset);
  const ExecutionContext pools[] = {ExecutionContext(1), ExecutionContext(2),
                                    ExecutionContext(4)};
  for (MpScheme scheme : {MpScheme::kSmp, MpScheme::kMmp}) {
    const MatchSet sequential = scheme == MpScheme::kSmp
                                    ? RunSmp(matcher, workload.cover).matches
                                    : RunMmp(matcher, workload.cover).matches;
    std::optional<GridResult> first;
    for (const ExecutionContext& ctx : pools) {
      GridOptions options;
      options.scheme = scheme;
      options.num_machines = 4;
      options.context = &ctx;
      const GridResult grid = RunGrid(matcher, workload.cover, options);
      const std::string where = std::string(MpSchemeName(scheme)) + " on " +
                                std::to_string(ctx.num_threads()) +
                                " threads";
      EXPECT_EQ(grid.matches, sequential) << where;
      if (!first.has_value()) {
        first = grid;
        continue;
      }
      EXPECT_EQ(grid.rounds, first->rounds) << where;
      EXPECT_EQ(grid.neighborhood_evaluations,
                first->neighborhood_evaluations)
          << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CanopyWorkloads, GridAcrossPools, ::testing::Values("hepth", "dblp"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(GridTest, SchemeNames) {
  EXPECT_STREQ(MpSchemeName(MpScheme::kNoMp), "NO-MP");
  EXPECT_STREQ(MpSchemeName(MpScheme::kSmp), "SMP");
  EXPECT_STREQ(MpSchemeName(MpScheme::kMmp), "MMP");
}

}  // namespace
}  // namespace cem::core
