// The benchmark's four workloads, each run from corpus TSVs the seeded
// generator wrote before any timing starts.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  /// Directory of the corpus TSVs GenerateCorpora wrote.
  std::string corpus_dir;
  /// Writable directory for persisted state and the span dump.
  std::string work_dir;
  uint64_t seed = 1;
  /// Length of the measured phase, split evenly between the corpora.
  double seconds = 10.0;
  /// Run untraced, then traced with the timing decorator, and report the
  /// per-layer ledger instead of the end-to-end metrics.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  /// Per-corpus values behind the reported medians (printed).
  std::vector<std::string> notes;
  /// Gated end-to-end metrics: the same names on every workload.
  std::vector<Metric> end_to_end;
  /// This workload's own end-to-end numbers (printed, not gated).
  std::vector<Metric> workload;
  /// Per-layer ledger of the traced run: every layer metric, 0 where the
  /// workload does not exercise the layer.
  std::vector<Metric> layers;
  /// Output-check mismatches; any entry fails the run.
  std::vector<std::string> failures;
  /// Operations of the measured phase, and how many returned a non-OK
  /// Status.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Pool size the workload pins (load generators come on top, within nproc).
uint32_t WorkloadThreads(const std::string& workload);

/// Writes the seeded corpora of `workload` into `dir` as TSV files, one
/// per corpus the workload measures.
cem::Status GenerateCorpora(const std::string& workload, uint64_t seed,
                            const std::string& dir);

/// Runs one workload. InvalidArgument for an unknown workload name.
cem::Result<Outcome> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
