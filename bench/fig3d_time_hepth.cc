// Figure 3(d): running-time comparison of NO-MP / SMP / MMP on HEPTH.
//
// The paper's counter-intuitive result: SMP is FASTER than NO-MP although
// it passes messages and revisits neighborhoods, because evidence shrinks
// the active size of each neighborhood and the matcher's inference cost is
// super-linear in active size. Our exact graph-cut solver is so fast that
// this regime disappears at raw wall-clock, so the bench reports both the
// raw times and the times under eval::CostModelMatcher, which restores the
// paper's expensive-inference cost profile: each Match call busy-waits
// 2 µs × (free variables)^1.6 before solving. MMP pays for
// COMPUTEMAXIMAL's clamped per-hypothesis runs — an overhead our
// implementation makes explicit; the cost model charges each such run
// 0.002 × 2 µs × (neighborhood entities)^1.6, modelling an incremental
// re-solve.

#include "bench_util.h"
#include "core/message_passing.h"
#include "mln/mln_matcher.h"

int main() {
  using namespace cem;
  const double scale = bench::Begin(
      "Figure 3(d) — MLN running times on HEPTH",
      "SMP runs faster than NO-MP (messages shrink active neighborhood "
      "sizes); total time is dominated by inference");

  eval::Workload w = eval::MakeHepthWorkload(scale);
  mln::MlnMatcher inner(*w.dataset);

  TableWriter table({"scheme", "raw sec", "cost-model sec", "evaluations",
                     "free vars touched"});
  auto run = [&](const char* name, auto&& runner) {
    // Raw timing.
    inner.ResetCounters();
    const core::MpResult raw = runner(inner);
    const uint64_t free_vars = inner.total_free_variables();
    const size_t evals = raw.neighborhood_evaluations;
    // Cost-model timing (burns free_vars^1.6 microseconds per call).
    eval::CostModelMatcher modeled(inner);
    const core::MpResult with_model = runner(modeled);
    table.AddRow({name, bench::Secs(raw.seconds),
                  bench::Secs(with_model.seconds), std::to_string(evals),
                  std::to_string(free_vars)});
  };

  run("NO-MP", [&](const core::ProbabilisticMatcher& m) {
    return core::RunNoMp(m, w.cover);
  });
  run("SMP", [&](const core::ProbabilisticMatcher& m) {
    return core::RunSmp(m, w.cover);
  });
  run("MMP", [&](const core::ProbabilisticMatcher& m) {
    return core::RunMmp(m, w.cover);
  });
  bench::JsonReport report("fig3d_time_hepth");
  report.Table("timing", table);

  std::printf(
      "\n'free vars touched' is the total active size the matcher saw — "
      "the paper's mechanism: message passing lowers it.\n");
  report.Write();
  return 0;
}
