#include "timed_matcher.h"

#include <chrono>

namespace perfbench {
namespace {

// Same tolerance as the library's MMP step-7 test.
constexpr double kScoreEps = 1e-9;

thread_local MatcherTally tls_tally;

uint64_t SteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

uint64_t MatcherTally::busy_ns() const {
  uint64_t total = 0;
  for (uint64_t v : ns) total += v;
  return total;
}

MatcherTally& MatcherTally::operator-=(const MatcherTally& other) {
  for (size_t i = 0; i < calls.size(); ++i) {
    calls[i] -= other.calls[i];
    ns[i] -= other.ns[i];
  }
  useful_matches -= other.useful_matches;
  score_delta_passes -= other.score_delta_passes;
  return *this;
}

const MatcherTally& ThreadTally() { return tls_tally; }

void TimedMatcher::Record(MatcherCall kind, uint64_t ns) const {
  const size_t k = static_cast<size_t>(kind);
  ++tls_tally.calls[k];
  tls_tally.ns[k] += ns;
  totals_.calls[k].fetch_add(1, std::memory_order_relaxed);
  totals_.ns[k].fetch_add(ns, std::memory_order_relaxed);
}

cem::core::MatchSet TimedMatcher::Match(
    const std::vector<cem::data::EntityId>& entities,
    const cem::core::MatchSet& positive,
    const cem::core::MatchSet& negative) const {
  const uint64_t start = SteadyNs();
  cem::core::MatchSet out = inner_.Match(entities, positive, negative);
  Record(MatcherCall::kMatch, SteadyNs() - start);
  for (uint64_t key : out.keys()) {
    if (positive.keys().count(key) == 0) {
      ++tls_tally.useful_matches;
      totals_.useful_matches.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  return out;
}

cem::core::MatchSet TimedMatcher::MatchConditioned(
    const std::vector<cem::data::EntityId>& entities,
    const cem::core::MatchSet& positive,
    const cem::core::MatchSet& negative) const {
  const uint64_t start = SteadyNs();
  cem::core::MatchSet out = inner_.MatchConditioned(entities, positive, negative);
  Record(MatcherCall::kConditioned, SteadyNs() - start);
  return out;
}

std::vector<cem::data::EntityPair> TimedMatcher::EntangledPairs(
    const std::vector<cem::data::EntityId>& entities,
    const cem::core::MatchSet& evidence,
    const cem::core::MatchSet& base) const {
  const uint64_t start = SteadyNs();
  std::vector<cem::data::EntityPair> out =
      inner_.EntangledPairs(entities, evidence, base);
  Record(MatcherCall::kEntangled, SteadyNs() - start);
  return out;
}

double TimedMatcher::Score(const cem::core::MatchSet& matches) const {
  const uint64_t start = SteadyNs();
  const double score = inner_.Score(matches);
  Record(MatcherCall::kScore, SteadyNs() - start);
  return score;
}

double TimedMatcher::ScoreDelta(
    const cem::core::MatchSet& current,
    const std::vector<cem::data::EntityPair>& additions) const {
  const uint64_t start = SteadyNs();
  const double delta = inner_.ScoreDelta(current, additions);
  Record(MatcherCall::kScoreDelta, SteadyNs() - start);
  if (delta >= -kScoreEps) {
    ++tls_tally.score_delta_passes;
    totals_.score_delta_passes.fetch_add(1, std::memory_order_relaxed);
  }
  return delta;
}

MatcherTally TimedMatcher::Total() const {
  MatcherTally t;
  for (size_t i = 0; i < t.calls.size(); ++i) {
    t.calls[i] = totals_.calls[i].load(std::memory_order_relaxed);
    t.ns[i] = totals_.ns[i].load(std::memory_order_relaxed);
  }
  t.useful_matches = totals_.useful_matches.load(std::memory_order_relaxed);
  t.score_delta_passes =
      totals_.score_delta_passes.load(std::memory_order_relaxed);
  return t;
}

}  // namespace perfbench
