#include "core/grid_executor.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <vector>

#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cem::core {
namespace {

/// Makespan of assigning `task_seconds` randomly to `machines` machines.
double SimulatedMakespan(const std::vector<double>& task_seconds,
                         uint32_t machines, Rng& rng) {
  std::vector<double> load(std::max<uint32_t>(machines, 1), 0.0);
  for (double t : task_seconds) {
    load[rng.NextBounded(load.size())] += t;
  }
  return *std::max_element(load.begin(), load.end());
}

}  // namespace

GridResult RunGrid(const Matcher& matcher, const Cover& cover,
                   const GridOptions& options) {
  Timer wall;
  GridResult result;
  MpEngine engine(matcher, options.scheme, result.matches);
  Rng rng(options.seed);
  const CoverMembership& membership = cover.membership();
  ThreadPool& pool = options.context != nullptr
                         ? options.context->pool()
                         : ExecutionContext::Default().pool();
  const size_t cap = EvaluationCap(cover.size(), cover.MaxNeighborhoodSize());

  // Initial active set: every neighborhood.
  std::vector<uint32_t> active(cover.size());
  std::iota(active.begin(), active.end(), 0u);
  // Per neighborhood C, during a reduce: the new pairs inside C x C that
  // C's own evaluation did not add. Zero between rounds.
  std::vector<int64_t> unexplained(cover.size(), 0);
  std::vector<uint32_t> homes_of_both;

  while (!active.empty()) {
    if (engine.evaluations() >= cap) {
      CEM_LOG(Warning) << "grid evaluation cap reached (" << cap
                       << "); matcher may not be well-behaved";
      break;
    }
    ++result.rounds;

    // ---- Map: run every active neighborhood against the round-start
    // evidence, in parallel.
    std::vector<MpEngine::Evaluation> outputs(active.size());
    std::vector<double> task_seconds(active.size());
    ParallelFor(pool, active.size(), [&](size_t i) {
      Timer task_timer;
      outputs[i] = engine.Evaluate(cover.neighborhood(active[i]).entities);
      task_seconds[i] = task_timer.ElapsedSeconds();
    });
    result.simulated_seconds +=
        SimulatedMakespan(task_seconds, options.num_machines, rng) +
        options.per_round_overhead_seconds;

    // ---- Reduce: merge evidence (and promote messages), then compute the
    // next round. NO-MP is one round with no re-activation.
    const std::vector<data::EntityPair> new_matches = engine.Fold(outputs);
    if (options.scheme == MpScheme::kNoMp) break;

    // C runs again only if a pair new to M+ lies inside C x C and C's own
    // evaluation did not add it. Otherwise its next output would equal its
    // last. By evidence locality (core/matcher.h) C sees only S, M+ inside
    // C x C, and output MC = E(C, S) at the round's start. MC keeps every
    // pair of S and holds every pair new inside C x C, so C would now see
    // some S' with S ⊆ S' ⊆ MC. Monotonicity (Definition 3) pins E(C, S')
    // between E(C, S) and E(C, MC), both MC by idempotence (Definition 2).
    // Under MMP each conditioned run of COMPUTEMAXIMAL is pinned the same
    // way, so an evaluation without maximal messages would again have none.
    // One with messages counts as adding nothing: it runs again whenever a
    // new pair lands inside it. For a round of one evaluation this is
    // Drain's `affected != c`.
    for (size_t i = 0; i < active.size(); ++i) {
      if (outputs[i].messages.empty()) {
        unexplained[active[i]] =
            -static_cast<int64_t>(outputs[i].added.size());
      }
    }
    for (const data::EntityPair& p : new_matches) {
      const std::vector<uint32_t>& in_a = membership.HomesOf(p.a);
      const std::vector<uint32_t>& in_b = membership.HomesOf(p.b);
      homes_of_both.clear();
      std::set_intersection(in_a.begin(), in_a.end(), in_b.begin(),
                            in_b.end(), std::back_inserter(homes_of_both));
      for (uint32_t c : homes_of_both) ++unexplained[c];
    }
    active.clear();
    for (uint32_t c = 0; c < unexplained.size(); ++c) {
      if (unexplained[c] > 0) active.push_back(c);
      unexplained[c] = 0;
    }
  }

  result.neighborhood_evaluations = engine.evaluations();
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace cem::core
