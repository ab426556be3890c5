// Figure 3(f): running time as a function of input size — "Full EM" (the
// matcher run holistically on the whole input) versus MMP, as the corpus
// grows.
//
// The paper's point: Full EM grows super-linearly with the number of
// matching decisions and becomes prohibitive, while MMP stays linear in
// the number of neighborhoods (bounded neighborhood size). The matcher
// runs under eval::CostModelMatcher so the inference cost profile
// matches the paper's Alchemy-based matcher: cost ∝ (active size)^1.6 —
// for the holistic run the active size is the whole candidate-pair set,
// for MMP it is one neighborhood at a time.

#include "bench_util.h"
#include "core/canopy.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "mln/mln_matcher.h"
#include "util/timer.h"

int main() {
  using namespace cem;
  const double scale = bench::Begin(
      "Figure 3(f) — running time vs input size",
      "Full EM grows super-linearly in the matching decisions and becomes "
      "prohibitive; MMP grows linearly in the number of neighborhoods");

  TableWriter table({"#neighborhoods", "#pairs", "Full-EM sec", "MMP sec",
                     "full/MMP"});
  for (double fraction : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    eval::Workload w = eval::MakeHepthWorkload(scale * fraction);
    mln::MlnMatcher inner(*w.dataset);
    // Quadratic cost in the active size — the Markov-network inference
    // regime whose blow-up Figure 3(f) demonstrates.
    eval::CostModelMatcher matcher(inner, /*cost_scale_us=*/0.5,
                                   /*exponent=*/2.0);

    Timer full_timer;
    matcher.MatchAll();
    const double full_seconds = full_timer.ElapsedSeconds();
    const core::MpResult mmp = core::RunMmp(matcher, w.cover);
    table.AddRow({std::to_string(w.cover.size()),
                  std::to_string(w.dataset->num_candidate_pairs()),
                  bench::Secs(full_seconds), bench::Secs(mmp.seconds),
                  TableWriter::Num(full_seconds / mmp.seconds, 1)});
  }
  bench::JsonReport report("fig3f_scaling");
  report.Table("scaling", table);
  report.Write();
  return 0;
}
