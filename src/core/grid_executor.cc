#include "core/grid_executor.h"

#include <algorithm>
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
  const CoverMembership membership(cover);
  ThreadPool& pool = options.context != nullptr
                         ? options.context->pool()
                         : ExecutionContext::Default().pool();
  const size_t cap = EvaluationCap(cover.size(), cover.MaxNeighborhoodSize());

  // Initial active set: every neighborhood.
  std::vector<uint32_t> active(cover.size());
  std::iota(active.begin(), active.end(), 0u);

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
    active = AffectedBy(membership, new_matches);
  }

  result.neighborhood_evaluations = engine.evaluations();
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace cem::core
