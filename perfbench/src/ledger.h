// The benchmark's outside-in timing ledger: spans around every public
// library call the benchmark makes, kept in memory per thread and merged
// when the run ends, plus the order statistics and open-loop schedule
// arithmetic the workloads report with.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "timed_matcher.h"

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// Nearest-rank percentile of an ascending sample: the smallest element
/// with at least a q share of the sample at or below it (q in [0, 1]); 0
/// for an empty sample. With n samples, p90 leaves n - ceil(0.9 n) samples
/// strictly above its index, so 100 samples leave 10.
double Percentile(const std::vector<double>& sorted, double q);

/// Percentile of an unsorted sample.
double PercentileOf(std::vector<double> values, double q);

/// Fixed-rate open-loop schedule: request i is due at start + i * interval,
/// whether or not earlier requests have finished.
struct Schedule {
  int64_t start_ns = 0;
  int64_t interval_ns = 1;

  int64_t Due(uint64_t i) const {
    return start_ns + static_cast<int64_t>(i) * interval_ns;
  }
  /// Requests due strictly before `end_ns`.
  uint64_t CountBefore(int64_t end_ns) const;
};

/// How late something that happened at `actual_ns` was against `due_ns`
/// (0 when on time or early).
inline int64_t LatenessNs(int64_t due_ns, int64_t actual_ns) {
  return actual_ns > due_ns ? actual_ns - due_ns : 0;
}

/// Blocks until `due_ns`: a coarse sleep to shortly before the deadline
/// (with the thread's timer slack cut to 1 ns), then a spin. A plain
/// sleep_until oversleeps by tens of microseconds, the size of a lookup.
void WaitUntil(int64_t due_ns);

/// One timed call. `name` is "<layer>.<call>" with static storage.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = top level
  /// Shared by the spans of one chunk (its index) or lookup (its query id).
  uint64_t group = 0;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// TimedMatcher work on this span's thread while it was open.
  MatcherTally matcher;

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
  std::string_view layer() const;
};

/// In-memory span store. A disabled ledger records nothing, so the untraced
/// run executes the same code at the cost of one branch per call.
class Ledger {
 public:
  explicit Ledger(bool enabled);
  ~Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread, child of the thread's innermost
  /// open span (or of its adopted parent); returns its id (0 if disabled).
  uint64_t Open(const char* name, uint64_t group);
  /// Closes the calling thread's innermost open span, which must be `id`.
  void Close(uint64_t id, uint64_t group);

  /// Makes `parent` the parent of the calling thread's top-level spans —
  /// how a load-generator thread hangs its spans under the phase span of
  /// the thread that started it.
  void Adopt(uint64_t parent);

  /// Every closed span of every thread, by start time.
  std::vector<Span> Spans() const;

  /// Writes the spans as a JSON array of
  /// {name, id, parent, group, thread, start_ns, end_ns, matcher_ns}.
  bool WriteJson(const std::string& path) const;

 private:
  struct ThreadLog;
  ThreadLog& Log();

  const bool enabled_;
  const uint64_t serial_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // Guarded by mu_.
};

/// RAII span; the group can be set once the call returns (a lookup's query
/// id comes back with its result).
class ScopedSpan {
 public:
  ScopedSpan(Ledger& ledger, const char* name, uint64_t group = 0)
      : ledger_(ledger), group_(group), id_(ledger.Open(name, group)) {}
  ~ScopedSpan() {
    if (id_ != 0) ledger_.Close(id_, group_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  void set_group(uint64_t group) { group_ = group; }

 private:
  Ledger& ledger_;
  uint64_t group_;
  const uint64_t id_;
};

/// Self time of every span: its duration minus its direct child spans and
/// minus the matcher time not already inside one of those children.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Share of the phases' working time that layer spans account for. Phase
/// spans are those named "bench.*" other than "bench.idle"; their working
/// time excludes their "bench.idle" children (open-loop waits for a due
/// time). Layer spans are the phases' other direct children.
double LayerCoverage(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
