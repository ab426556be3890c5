// Ablation: covering without boundary expansion. The resulting cover is
// NOT total w.r.t. Coauthor (Definition 7): coauthor tuples crossing
// neighborhoods are lost and never participate in matching, costing
// recall. This is the paper's §4 motivation for total covers.

#include "bench_util.h"
#include "core/canopy.h"
#include "core/message_passing.h"
#include "mln/mln_matcher.h"

int main() {
  using namespace cem;
  const double scale = bench::Begin(
      "Ablation — total cover vs plain blocking cover",
      "dropping boundary expansion loses Coauthor tuples (non-total "
      "cover), which costs recall across every scheme");

  eval::Workload w = eval::MakeHepthWorkload(scale);
  mln::MlnMatcher matcher(*w.dataset);

  core::CanopyOptions no_boundary;
  no_boundary.expand_boundary = false;
  const core::Cover blocked = core::BuildCanopyCover(*w.dataset, no_boundary);

  TableWriter table({"cover", "total (Coauthor)", "scheme", "P", "R", "F1"});
  for (int which = 0; which < 2; ++which) {
    const core::Cover& cover = which == 0 ? w.cover : blocked;
    const std::string cover_name =
        which == 0 ? "boundary-expanded" : "canopy-only";
    const bool is_total = cover.IsTotalForCoauthor(*w.dataset);
    CEM_CHECK(which == 1 || is_total)
        << "the boundary-expanded cover must be total w.r.t. Coauthor";
    const std::string total = is_total ? "yes" : "no";
    const core::MatchSet no_mp = core::RunNoMp(matcher, cover).matches;
    const core::MatchSet mmp = core::RunMmp(matcher, cover).matches;
    auto row = [&](const char* scheme, const core::MatchSet& m) {
      std::vector<std::string> cells = {cover_name, total};
      for (auto& c : bench::PrRow(scheme, *w.dataset, m)) {
        cells.push_back(std::move(c));
      }
      table.AddRow(std::move(cells));
    };
    row("NO-MP", no_mp);
    row("MMP", mmp);
  }
  bench::JsonReport report("ablation_total_cover");
  report.Table("results", table);
  report.Write();
  return 0;
}
