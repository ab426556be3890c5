#ifndef CEM_CORE_GRID_EXECUTOR_H_
#define CEM_CORE_GRID_EXECUTOR_H_

#include <cstddef>
#include <cstdint>

#include "core/cover.h"
#include "core/match_set.h"
#include "core/matcher.h"
#include "core/message_passing.h"

namespace cem::core {

/// Options of the round-based parallel executor (Section 6.3). The paper
/// runs the framework on a Hadoop grid: each round is one Map (run EM on
/// every active neighborhood, in parallel, against the round-start evidence
/// snapshot) plus one Reduce (merge the new evidence and compute the next
/// round's active set).
///
/// We reproduce this with an in-process thread pool and a *makespan model*:
/// neighborhoods are randomly assigned to `num_machines` simulated machines
/// (random assignment introduces the statistical skew the paper blames for
/// sub-linear speedup), and the simulated round time is the maximum
/// per-machine sum of task times plus a per-round scheduling overhead (the
/// paper's other cause of imperfect speedup). Real wall time is also
/// reported.
struct GridOptions {
  MpScheme scheme = MpScheme::kSmp;
  /// Simulated machine count (the paper compares 1 vs 30).
  uint32_t num_machines = 1;
  /// Simulated per-round Map/Reduce setup cost, in seconds.
  double per_round_overhead_seconds = 0.0;
  /// Seed for the random neighborhood -> machine assignment.
  uint64_t seed = 123;
  /// Execution context whose pool runs the map tasks — lets drivers reuse
  /// the one pool that already ran the blocking front-end. Null =
  /// ExecutionContext::Default() (workers from CEM_THREADS).
  const ExecutionContext* context = nullptr;
};

/// Result of a grid run.
struct GridResult {
  MatchSet matches;
  size_t rounds = 0;
  size_t neighborhood_evaluations = 0;
  /// Real wall-clock seconds (depends on the host's cores).
  double wall_seconds = 0.0;
  /// Simulated grid seconds under the makespan model (host-independent);
  /// this is the Table 1 number.
  double simulated_seconds = 0.0;
};

/// Runs `scheme` on `cover` round-parallel on an MpEngine (map = Evaluate,
/// reduce = Fold in active-set order). A neighborhood runs in the next
/// round only if a pair new to M+ lies inside it that its own evaluation
/// did not add; under MMP an evaluation that produced maximal messages
/// counts as adding none. For kMmp the matcher must be a
/// ProbabilisticMatcher. By the schemes' consistency property the final
/// match set equals the sequential drivers' output.
GridResult RunGrid(const Matcher& matcher, const Cover& cover,
                   const GridOptions& options);

}  // namespace cem::core

#endif  // CEM_CORE_GRID_EXECUTOR_H_
