// Self-tests of the benchmark's own code: percentile indexing, open-loop
// schedule and lateness arithmetic, the span ledger's self time and
// coverage, and the timing decorator leaving MMP's work unchanged on the
// paper's Figure 1 instance. Exit status 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/cover.h"
#include "core/message_passing.h"
#include "data/figure1.h"
#include "ledger.h"
#include "mln/mln_matcher.h"
#include "timed_matcher.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  using perfbench::Percentile;
  Expect(Percentile({}, 0.5) == 0.0, "empty sample percentile is 0");
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Expect(Percentile(ten, 0.0) == 1.0, "p0 is the minimum");
  Expect(Percentile(ten, 0.5) == 5.0, "p50 of 1..10 is 5 (nearest rank)");
  Expect(Percentile(ten, 0.9) == 9.0, "p90 of 1..10 is 9");
  Expect(Percentile(ten, 0.99) == 10.0, "p99 of 1..10 is 10");
  Expect(Percentile(ten, 1.0) == 10.0, "p100 is the maximum");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  // p90 of 100 samples leaves exactly 10 above it.
  Expect(Percentile(hundred, 0.9) == 90.0, "p90 of 1..100 is 90");
  Expect(Percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  Expect(perfbench::PercentileOf({3, 1, 2}, 0.5) == 2.0,
         "PercentileOf sorts its sample");
}

void TestSchedule() {
  const perfbench::Schedule s{1000, 250};
  Expect(s.Due(0) == 1000 && s.Due(4) == 2000, "due times step by interval");
  Expect(s.CountBefore(1000) == 0, "nothing is due before the start");
  Expect(s.CountBefore(1001) == 1, "request 0 is due at the start");
  Expect(s.CountBefore(2000) == 4, "end is exclusive");
  Expect(s.CountBefore(2001) == 5, "request 4 is due at 2000");
  Expect(perfbench::LatenessNs(100, 90) == 0, "early is not late");
  Expect(perfbench::LatenessNs(100, 130) == 30, "lateness is actual - due");
  const int64_t due = perfbench::NowNs() + 2'000'000;
  perfbench::WaitUntil(due);
  const int64_t woke = perfbench::NowNs();
  Expect(woke >= due, "WaitUntil never returns early");
  // Generous: a loaded host may deschedule the spin.
  Expect(woke - due < 100'000'000, "WaitUntil wakes on time");
}

perfbench::Span MakeSpan(const char* name, uint64_t id, uint64_t parent,
                         int64_t start, int64_t end, uint64_t matcher_ns = 0) {
  perfbench::Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.matcher.ns[0] = matcher_ns;
  return s;
}

void TestLedger() {
  // A 100 ns phase: 10 idle, a 60 ns layer call holding 20 ns of matcher
  // time and a 10 ns child call, and 30 ns nothing accounts for.
  const std::vector<perfbench::Span> spans = {
      MakeSpan("bench.measure", 1, 0, 0, 100),
      MakeSpan("bench.idle", 2, 1, 0, 10),
      MakeSpan("core.mmp", 3, 1, 10, 70, 20),
      MakeSpan("persist.checkpoint", 4, 3, 20, 30),
  };
  const std::vector<double> self = perfbench::SelfSeconds(spans);
  Expect(Near(self[2], 30e-9), "self time = duration - children - matcher");
  Expect(Near(self[3], 10e-9), "a leaf's self time is its duration");
  Expect(Near(perfbench::LayerCoverage(spans), 60.0 / 90.0),
         "coverage = layer time / (phase - idle)");

  perfbench::Ledger ledger(true);
  {
    perfbench::ScopedSpan outer(ledger, "bench.setup");
    perfbench::ScopedSpan inner(ledger, "data.load", 7);
  }
  const std::vector<perfbench::Span> recorded = ledger.Spans();
  Expect(recorded.size() == 2, "ledger records both spans");
  Expect(recorded.size() == 2 && recorded[1].parent == recorded[0].id &&
             recorded[1].group == 7,
         "nested span records its parent and group");
  perfbench::Ledger off(false);
  { perfbench::ScopedSpan span(off, "data.load"); }
  Expect(off.Spans().empty(), "a disabled ledger records nothing");
}

void TestDecoratedMmp() {
  const cem::data::Figure1 fig = cem::data::MakeFigure1();
  cem::core::Cover cover;
  for (const auto& n : fig.neighborhoods) cover.Add(n);
  const cem::mln::MlnMatcher raw(*fig.dataset,
                                 cem::mln::MlnWeights::Figure1Demo());
  const perfbench::TimedMatcher timed(raw);
  const cem::core::MpResult plain = cem::core::RunMmp(raw, cover);
  const cem::core::MpResult wrapped = cem::core::RunMmp(timed, cover);
  Expect(plain.matches == wrapped.matches, "decorated RunMmp matches equal");
  Expect(plain.neighborhood_evaluations == wrapped.neighborhood_evaluations &&
             plain.matcher_calls == wrapped.matcher_calls &&
             plain.messages_created == wrapped.messages_created &&
             plain.messages_promoted == wrapped.messages_promoted,
         "decorated RunMmp work counts equal");
  const perfbench::MatcherTally t = timed.Total();
  using perfbench::MatcherCall;
  Expect(t.Calls(MatcherCall::kMatch) == wrapped.neighborhood_evaluations,
         "one Match per evaluation");
  Expect(t.Calls(MatcherCall::kEntangled) > 0, "EntangledPairs is forwarded");
  Expect(t.Calls(MatcherCall::kScoreDelta) > 0, "ScoreDelta is forwarded");
  Expect(t.score_delta_passes <= t.Calls(MatcherCall::kScoreDelta),
         "passes never exceed ScoreDelta calls");
  Expect(wrapped.matches.size() >= 5, "Figure 1 MMP finds the chain matches");
  Expect(perfbench::ThreadTally().Calls(MatcherCall::kMatch) ==
             t.Calls(MatcherCall::kMatch),
         "the calling thread's tally holds every sequential call");
}

}  // namespace

int main() {
  TestPercentile();
  TestSchedule();
  TestLedger();
  TestDecoratedMmp();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
