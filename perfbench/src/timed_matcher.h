// Forwarding timing decorator for the traced run: a ProbabilisticMatcher
// that forwards every virtual of the wrapped matcher and tallies calls and
// wall time per call kind, per thread and in total. Outputs are the wrapped
// matcher's, unchanged, so message passing does exactly the same work.
#ifndef PERFBENCH_TIMED_MATCHER_H_
#define PERFBENCH_TIMED_MATCHER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/match_set.h"
#include "core/matcher.h"
#include "data/dataset.h"
#include "data/entity.h"

namespace perfbench {

/// The matcher entry points the decorator times.
enum class MatcherCall : size_t {
  kMatch = 0,
  kConditioned,
  kEntangled,
  kScore,
  kScoreDelta,
  kCount,
};

/// Calls and nanoseconds per MatcherCall kind, plus the two outcome counts
/// the ledger turns into ratios.
struct MatcherTally {
  std::array<uint64_t, static_cast<size_t>(MatcherCall::kCount)> calls{};
  std::array<uint64_t, static_cast<size_t>(MatcherCall::kCount)> ns{};
  /// Match calls whose output held a pair outside the positive evidence.
  uint64_t useful_matches = 0;
  /// ScoreDelta calls that passed MMP's step-7 test (delta >= -1e-9).
  uint64_t score_delta_passes = 0;

  uint64_t Calls(MatcherCall kind) const {
    return calls[static_cast<size_t>(kind)];
  }
  double Seconds(MatcherCall kind) const {
    return static_cast<double>(ns[static_cast<size_t>(kind)]) / 1e9;
  }
  /// Nanoseconds inside any matcher call.
  uint64_t busy_ns() const;

  MatcherTally& operator-=(const MatcherTally& other);
  friend MatcherTally operator-(MatcherTally a, const MatcherTally& b) {
    return a -= b;
  }
};

/// The calling thread's cumulative tally over every TimedMatcher call it
/// made. A span snapshots it at open and close, so the difference is the
/// matcher time nested inside the span on that thread.
const MatcherTally& ThreadTally();

class TimedMatcher final : public cem::core::ProbabilisticMatcher {
 public:
  /// `inner` must outlive the decorator.
  explicit TimedMatcher(const cem::core::ProbabilisticMatcher& inner)
      : inner_(inner) {}

  TimedMatcher(const TimedMatcher&) = delete;
  TimedMatcher& operator=(const TimedMatcher&) = delete;

  cem::core::MatchSet Match(const std::vector<cem::data::EntityId>& entities,
                            const cem::core::MatchSet& positive,
                            const cem::core::MatchSet& negative) const override;
  using cem::core::Matcher::Match;

  cem::core::MatchSet MatchConditioned(
      const std::vector<cem::data::EntityId>& entities,
      const cem::core::MatchSet& positive,
      const cem::core::MatchSet& negative) const override;

  const cem::data::Dataset& dataset() const override {
    return inner_.dataset();
  }

  /// Forwarded too: the base-class default returns every unresolved pair,
  /// which would silently change how much work COMPUTEMAXIMAL does.
  std::vector<cem::data::EntityPair> EntangledPairs(
      const std::vector<cem::data::EntityId>& entities,
      const cem::core::MatchSet& evidence,
      const cem::core::MatchSet& base) const override;

  double Score(const cem::core::MatchSet& matches) const override;
  double ScoreDelta(
      const cem::core::MatchSet& current,
      const std::vector<cem::data::EntityPair>& additions) const override;

  /// Tally over every thread since construction.
  MatcherTally Total() const;

 private:
  struct Totals {
    std::array<std::atomic<uint64_t>, static_cast<size_t>(MatcherCall::kCount)>
        calls{};
    std::array<std::atomic<uint64_t>, static_cast<size_t>(MatcherCall::kCount)>
        ns{};
    std::atomic<uint64_t> useful_matches{0};
    std::atomic<uint64_t> score_delta_passes{0};
  };

  /// Adds one call of `kind` lasting `ns` to this thread's and the total
  /// tallies.
  void Record(MatcherCall kind, uint64_t ns) const;

  const cem::core::ProbabilisticMatcher& inner_;
  mutable Totals totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_MATCHER_H_
