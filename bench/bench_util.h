#ifndef CEM_BENCH_BENCH_UTIL_H_
#define CEM_BENCH_BENCH_UTIL_H_

// Shared plumbing for the per-figure bench binaries. Each binary prints the
// rows/series of one paper figure or table (the binary is named after it:
// fig3a_accuracy_hepth, table1_grid, ...; README's "Tests, benches,
// examples" section lists them) and a short note tying the measured shape
// back to the paper's claim.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/match_set.h"
#include "core/message_passing.h"
#include "data/dataset.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/table_writer.h"
#include "util/timer.h"

namespace cem::bench {

/// Prints the standard bench banner and returns the workload scale.
inline double Begin(const std::string& experiment_id,
                    const std::string& paper_claim) {
  SetMinLogSeverity(LogSeverity::kWarning);
  const double scale = eval::BenchScale();
  std::printf("=== %s ===\n", experiment_id.c_str());
  std::printf("Paper claim: %s\n", paper_claim.c_str());
  std::printf("Workload scale: %.2f (set CEM_BENCH_SCALE to change)\n",
              scale);
  std::printf("Blocking strategy: %s (set CEM_BLOCKING to change)\n\n",
              core::BlockingStrategyName(eval::BenchBlocking()));
  return scale;
}

/// Machine-readable mirror of a bench's output: collects the tables (and
/// scalar metrics) the bench prints and writes them as BENCH_<slug>.json,
/// so the perf trajectory is diffable across PRs. Target directory comes
/// from CEM_BENCH_JSON_DIR (default: current directory); set it to "off"
/// to suppress the file.
///
/// Each table also records the wall time spent producing it (elapsed since
/// the previous Table() call, or construction) as "wall_ms_<key>", with
/// fixed millisecond precision (%.3f) so reports never degrade to
/// scientific notation or platform-dependent digit counts.
///
/// Write() additionally folds in the process metrics registry: every
/// registry counter the bench's run bumped exports as "counter_<name>",
/// gauges as "gauge_<name>", and histograms flattened to "hist_<name>_*"
/// (count/sum/p50/p95/p99). Gating split: "counter_*" values are
/// deterministic and gate via bench_diff; "wall_ms_*", "gauge_*" and
/// "hist_*" are host-dependent and therefore informational only —
/// bench_diff prints their deltas but never fails on them, and
/// ci/update_baselines.sh strips them from the committed baselines.
class JsonReport {
 public:
  /// `slug` should match the bench binary name, e.g. "fig3f_scaling".
  explicit JsonReport(std::string slug) : slug_(std::move(slug)) {}

  /// Prints `table` to stdout and records it under `key` in the report,
  /// together with the wall time this table's section took.
  void Table(const std::string& key, const TableWriter& table) {
    const double wall_ms = section_timer_.ElapsedMillis();
    section_timer_.Reset();
    table.Print(std::cout);
    std::ostringstream json;
    table.PrintJson(json);
    entries_.emplace_back(key, json.str());
    entries_.emplace_back("wall_ms_" + key, FormatDouble(wall_ms));
  }

  /// Records a scalar metric. Integral values (the counter_* family) are
  /// written as JSON integers — the CI schema check requires it, and the
  /// blessed baselines stay byte-comparable.
  void Metric(const std::string& key, double value) {
    if (value == static_cast<double>(static_cast<int64_t>(value))) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%" PRId64,
                    static_cast<int64_t>(value));
      entries_.emplace_back(key, buf);
    } else {
      entries_.emplace_back(key, FormatDouble(value));
    }
  }

  /// Writes BENCH_<slug>.json and prints its path; call once, last.
  void Write() const {
    const char* dir = std::getenv("CEM_BENCH_JSON_DIR");
    if (dir != nullptr && std::string(dir) == "off") return;
    const std::string path = std::string(dir == nullptr ? "." : dir) +
                             "/BENCH_" + slug_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return;
    }
    out << "{\"bench\": \"" << slug_ << "\", \"scale\": "
        << eval::BenchScale() << ", \"blocking\": \""
        << core::BlockingStrategyName(eval::BenchBlocking()) << "\"";
    std::set<std::string> seen;
    for (const auto& [key, json] : entries_) {
      out << ", \"" << key << "\": " << json;
      seen.insert(key);
    }
    // Registry export. Explicit Metric()/Table() entries win on a key
    // clash — a duplicate JSON key would make the report ill-formed.
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    const auto emit = [&](const std::string& key, const std::string& value) {
      if (!seen.insert(key).second) return;
      out << ", \"" << key << "\": " << value;
    };
    char buf[32];
    for (const auto& [name, value] : snapshot.counters) {
      std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
      emit("counter_" + name, buf);
    }
    for (const auto& [name, value] : snapshot.gauges) {
      emit("gauge_" + name, FormatDouble(value));
    }
    for (const auto& [name, stats] : snapshot.histograms) {
      std::snprintf(buf, sizeof(buf), "%" PRIu64, stats.count);
      emit("hist_" + name + "_count", buf);
      emit("hist_" + name + "_sum", FormatDouble(stats.sum));
      emit("hist_" + name + "_p50", FormatDouble(stats.p50));
      emit("hist_" + name + "_p95", FormatDouble(stats.p95));
      emit("hist_" + name + "_p99", FormatDouble(stats.p99));
    }
    out << "}\n";
    std::printf("\nJSON report: %s\n", path.c_str());
  }

 private:
  /// Fixed %.3f formatting: enough for milli/microsecond metrics, and
  /// never scientific notation (which some JSON consumers reject).
  static std::string FormatDouble(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    return buf;
  }

  std::string slug_;
  std::vector<std::pair<std::string, std::string>> entries_;
  /// Wall clock of the current table section (reset by each Table()).
  Timer section_timer_;
};

/// Raw pairwise P/R/F1 row for a match set (the MLN matcher applies no
/// closure, so raw decisions are the comparable quantity).
inline std::vector<std::string> PrRow(const std::string& name,
                                      const data::Dataset& dataset,
                                      const core::MatchSet& matches) {
  const eval::PrMetrics m = eval::ComputePr(dataset, matches);
  return {name, TableWriter::Num(m.precision), TableWriter::Num(m.recall),
          TableWriter::Num(m.f1)};
}

/// Row with both raw pairwise metrics and metrics after transitive closure
/// (closure is how downstream consumers read out clusters).
inline std::vector<std::string> PrRowBoth(const std::string& name,
                                          const data::Dataset& dataset,
                                          const core::MatchSet& matches) {
  const eval::PrMetrics raw = eval::ComputePr(dataset, matches);
  const eval::PrMetrics closed =
      eval::ComputePr(dataset, core::TransitiveClosure(matches));
  return {name,
          TableWriter::Num(raw.precision),
          TableWriter::Num(raw.recall),
          TableWriter::Num(raw.f1),
          TableWriter::Num(closed.precision),
          TableWriter::Num(closed.recall),
          TableWriter::Num(closed.f1)};
}

/// Formats seconds with adaptive precision.
inline std::string Secs(double seconds) {
  return TableWriter::Num(seconds, seconds < 0.1 ? 4 : 2);
}

}  // namespace cem::bench

#endif  // CEM_BENCH_BENCH_UTIL_H_
