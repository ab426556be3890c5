// perfbench: the repository benchmark's runner.
//
//   perfbench gen --workload W --seed N --out DIR
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --corpus-dir DIR --work-dir DIR
//
// `gen` writes the seeded corpora as TSV files; `run` loads them, prints
// the run's parameters and every metric by name with its unit, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}, where the
// metrics are the gated end-to-end set (--trace 0) or the per-layer ledger
// (--trace 1). Exit status: 0 when every output check passed, 1 when one
// failed, 2 on a usage or set-up error.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "blocking/minhash_simd.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Outcome;

/// --name value pairs after the mode word.
std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0) break;
    flags[name.substr(2)] = argv[i + 1];
  }
  return flags;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --out DIR\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --corpus-dir DIR --work-dir DIR\n");
  return 2;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintJson(const Outcome& out, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  const std::string workload = flags["workload"];
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);

  if (mode == "gen") {
    if (flags["out"].empty()) return Usage();
    const cem::Status status =
        perfbench::GenerateCorpora(workload, seed, flags["out"]);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench gen: %s\n", status.ToString().c_str());
      return 2;
    }
    return 0;
  }
  if (mode != "run" || flags["corpus-dir"].empty() ||
      flags["work-dir"].empty()) {
    return Usage();
  }

  perfbench::RunConfig config;
  config.workload = workload;
  config.corpus_dir = flags["corpus-dir"];
  config.work_dir = flags["work-dir"];
  config.seed = seed;
  config.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  config.trace = flags["trace"] == "1";
  if (config.seconds <= 0.0) return Usage();

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              config.seconds, config.trace ? 1 : 0);
  std::printf("nproc %u  pool threads %u  load generators %d  CEM_SIMD %s\n",
              std::thread::hardware_concurrency(),
              perfbench::WorkloadThreads(workload),
              workload == "serve-dblp" ? 2 : 0,
              cem::blocking::SimdLevelName(cem::blocking::ActiveSimdLevel()));
  std::fflush(stdout);

  const cem::Result<Outcome> result = perfbench::RunWorkload(config);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench run: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  const Outcome& out = *result;
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  if (config.trace) {
    PrintMetrics("per-layer (traced run):", out.layers);
  } else {
    PrintMetrics("end-to-end (gated):", out.end_to_end);
    PrintMetrics("end-to-end (this workload):", out.workload);
  }
  for (const std::string& failure : out.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  PrintJson(out, config.trace ? out.layers : out.end_to_end);
  return out.failures.empty() ? 0 : 1;
}
