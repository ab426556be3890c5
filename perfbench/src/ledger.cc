#include "ledger.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<uint64_t> next_ledger_serial{1};
std::atomic<uint64_t> next_span_id{1};
std::atomic<uint32_t> next_thread_index{0};

uint32_t ThreadIndex() {
  thread_local const uint32_t index = next_thread_index.fetch_add(1);
  return index;
}

// The spin covers the scheduler's wake-up latency after the coarse sleep.
constexpr int64_t kSpinNs = 150'000;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<size_t>(rank)) - 1;
  return sorted[index];
}

double PercentileOf(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return Percentile(values, q);
}

uint64_t Schedule::CountBefore(int64_t end_ns) const {
  if (end_ns <= start_ns) return 0;
  return static_cast<uint64_t>((end_ns - start_ns + interval_ns - 1) /
                               interval_ns);
}

void WaitUntil(int64_t due_ns) {
  thread_local const bool slack_cut = prctl(PR_SET_TIMERSLACK, 1UL) == 0;
  (void)slack_cut;
  const int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

std::string_view Span::layer() const {
  const std::string_view full(name);
  return full.substr(0, full.find('.'));
}

struct Ledger::ThreadLog {
  struct Open {
    Span span;
    MatcherTally matcher_at_open;
  };
  uint32_t thread = 0;
  uint64_t adopted_parent = 0;
  std::vector<Open> stack;
  std::vector<Span> done;
};

Ledger::Ledger(bool enabled)
    : enabled_(enabled), serial_(next_ledger_serial.fetch_add(1)) {}
Ledger::~Ledger() = default;

Ledger::ThreadLog& Ledger::Log() {
  // Cached per thread and ledger; the serial tells a new ledger from a
  // destroyed one that happened to live at the same address.
  struct Cache {
    uint64_t serial = 0;
    ThreadLog* log = nullptr;
  };
  thread_local Cache cache;
  if (cache.serial != serial_) {
    std::lock_guard lock(mu_);
    auto log = std::make_unique<ThreadLog>();
    log->thread = ThreadIndex();
    cache.log = log.get();
    cache.serial = serial_;
    logs_.push_back(std::move(log));
  }
  return *cache.log;
}

uint64_t Ledger::Open(const char* name, uint64_t group) {
  if (!enabled_) return 0;
  ThreadLog& log = Log();
  ThreadLog::Open open;
  open.span.name = name;
  open.span.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  open.span.parent =
      log.stack.empty() ? log.adopted_parent : log.stack.back().span.id;
  open.span.group = group;
  open.span.thread = log.thread;
  open.matcher_at_open = ThreadTally();
  open.span.start_ns = NowNs();
  log.stack.push_back(open);
  return open.span.id;
}

void Ledger::Close(uint64_t id, uint64_t group) {
  if (!enabled_) return;
  const int64_t end = NowNs();
  ThreadLog& log = Log();
  ThreadLog::Open open = log.stack.back();
  log.stack.pop_back();
  if (open.span.id != id) {
    std::fprintf(stderr, "perfbench: span %s closed out of order\n",
                 open.span.name);
    std::abort();
  }
  open.span.end_ns = end;
  open.span.group = group;
  open.span.matcher = ThreadTally() - open.matcher_at_open;
  log.done.push_back(open.span);
}

void Ledger::Adopt(uint64_t parent) {
  if (enabled_) Log().adopted_parent = parent;
}

std::vector<Span> Ledger::Spans() const {
  std::vector<Span> all;
  std::lock_guard lock(mu_);
  for (const auto& log : logs_) {
    all.insert(all.end(), log->done.begin(), log->done.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

bool Ledger::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> spans = Spans();
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"group\": %llu, \"thread\": %u, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"matcher_ns\": %llu}%s\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.group), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.matcher.busy_ns()),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<uint64_t> child_matcher_ns(spans.size(), 0);
  for (const Span& s : spans) {
    const auto it = index_of.find(s.parent);
    // Only same-thread children nest inside the parent's own time.
    if (it == index_of.end() || spans[it->second].thread != s.thread) continue;
    child_ns[it->second] += s.end_ns - s.start_ns;
    child_matcher_ns[it->second] += s.matcher.busy_ns();
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t own_matcher = static_cast<int64_t>(
        spans[i].matcher.busy_ns() - child_matcher_ns[i]);
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                  child_ns[i] - own_matcher) /
              1e9;
  }
  return self;
}

double LayerCoverage(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> phases;
  for (const Span& s : spans) {
    const std::string_view name(s.name);
    if (s.layer() == "bench" && name != "bench.idle") phases[s.id] = &s;
  }
  int64_t working = 0;
  int64_t covered = 0;
  for (const auto& [id, phase] : phases) {
    working += phase->end_ns - phase->start_ns;
  }
  for (const Span& s : spans) {
    if (phases.count(s.parent) == 0 || phases.count(s.id) > 0) continue;
    if (std::string_view(s.name) == "bench.idle") {
      working -= s.end_ns - s.start_ns;
    } else {
      covered += s.end_ns - s.start_ns;
    }
  }
  return working > 0 ? static_cast<double>(covered) /
                           static_cast<double>(working)
                     : 0.0;
}

}  // namespace perfbench
