// Property tests for the grid executor's consistency guarantee: the
// round-parallel RunGrid must produce exactly the sequential RunSmp/RunMmp
// match set for every machine count (the schemes' consistency property —
// Theorems 2(3)/4 — carried over to the Section 6.3 executor), over
// randomised instances and covers.

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cover.h"
#include "core/grid_executor.h"
#include "core/message_passing.h"
#include "mln/mln_matcher.h"
#include "rules/rules_matcher.h"
#include "test_util.h"

namespace cem {
namespace {

using core::Cover;
using core::GridOptions;
using core::MpScheme;
using testing_util::RandomInstance;

constexpr uint32_t kMachineCounts[] = {1, 4, 30};

/// Forwards to a matcher and logs each Match call: its entities, the size
/// of the evidence it saw and its output. A grid round's map tasks run in
/// parallel, so the log takes a mutex.
class RecordingMatcher : public core::Matcher {
 public:
  struct Call {
    std::vector<data::EntityId> entities;
    size_t evidence_size = 0;
    core::MatchSet output;
  };

  explicit RecordingMatcher(const core::Matcher& inner) : inner_(inner) {}

  core::MatchSet Match(const std::vector<data::EntityId>& entities,
                       const core::MatchSet& positive,
                       const core::MatchSet& negative) const override {
    core::MatchSet output = inner_.Match(entities, positive, negative);
    const std::lock_guard<std::mutex> lock(mutex_);
    calls_.push_back({entities, positive.size(), output});
    return output;
  }
  const data::Dataset& dataset() const override { return inner_.dataset(); }

  const std::vector<Call>& calls() const { return calls_; }

 private:
  const core::Matcher& inner_;
  mutable std::mutex mutex_;
  mutable std::vector<Call> calls_;
};

class GridConsistency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GridConsistency, SmpMatchesSequential) {
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  const Cover cover = instance.RandomCover();
  const auto reference = core::RunSmp(matcher, cover).matches;
  for (uint32_t machines : kMachineCounts) {
    GridOptions options;
    options.scheme = MpScheme::kSmp;
    options.num_machines = machines;
    options.seed = GetParam() ^ machines;
    EXPECT_EQ(core::RunGrid(matcher, cover, options).matches, reference)
        << "seed " << GetParam() << ", " << machines << " machines";
  }
}

/// Runs grid SMP on `cover` and checks every round against the re-run
/// rule: C runs in round r+1 iff some pair new to M+ in round r lies inside
/// C x C and C's own round-r evaluation did not add it. Every call of round
/// r sees the same round-start M+, and M+ grows between rounds, so the
/// evidence size groups the recorded calls by round.
void ExpectGridFollowsTheReRunRule(const core::Matcher& inner,
                                   const Cover& cover) {
  const RecordingMatcher matcher(inner);
  GridOptions options;
  options.scheme = MpScheme::kSmp;
  options.num_machines = 4;
  const core::GridResult result = core::RunGrid(matcher, cover, options);

  std::map<size_t, std::vector<const RecordingMatcher::Call*>> rounds;
  for (const RecordingMatcher::Call& call : matcher.calls()) {
    rounds[call.evidence_size].push_back(&call);
  }
  ASSERT_EQ(rounds.size(), result.rounds);
  const auto sorted = [](std::vector<std::vector<data::EntityId>> lists) {
    std::sort(lists.begin(), lists.end());
    return lists;
  };
  // Round 1 runs every neighborhood.
  std::vector<std::vector<data::EntityId>> expected;
  for (const core::Neighborhood& n : cover.neighborhoods()) {
    expected.push_back(n.entities);
  }
  core::MatchSet evidence;
  for (const auto& [evidence_size, calls] : rounds) {
    ASSERT_EQ(evidence_size, evidence.size());
    std::vector<std::vector<data::EntityId>> ran;
    // Neighborhood members -> the pairs their evaluation added this round.
    std::map<std::vector<data::EntityId>, core::MatchSet> added;
    core::MatchSet next = evidence;
    for (const RecordingMatcher::Call* call : calls) {
      ran.push_back(call->entities);
      for (const data::EntityPair& p : call->output.Difference(evidence)) {
        added[call->entities].Insert(p);
        next.Insert(p);
      }
    }
    EXPECT_EQ(sorted(ran), sorted(expected))
        << "round at evidence size " << evidence_size;
    // The rule over this round's outputs gives the next round.
    expected.clear();
    const std::vector<data::EntityPair> fresh = next.Difference(evidence);
    for (const core::Neighborhood& n : cover.neighborhoods()) {
      const auto inside = [&n](data::EntityId e) {
        return std::binary_search(n.entities.begin(), n.entities.end(), e);
      };
      const auto own = added.find(n.entities);
      for (const data::EntityPair& p : fresh) {
        if (inside(p.a) && inside(p.b) &&
            (own == added.end() || !own->second.Contains(p))) {
          expected.push_back(n.entities);
          break;
        }
      }
    }
    evidence = std::move(next);
  }
  // No neighborhood is left for a round that did not run.
  EXPECT_TRUE(expected.empty());
  EXPECT_EQ(evidence, result.matches);
}

TEST_P(GridConsistency, SmpReRunsExactlyWhereOutsideEvidenceLands) {
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("cover " + std::to_string(trial));
    ExpectGridFollowsTheReRunRule(matcher, instance.RandomCover());
  }
}

TEST_P(GridConsistency, MmpMatchesSequential) {
  RandomInstance instance(GetParam());
  mln::MlnMatcher matcher(instance.dataset(), instance.weights());
  const Cover cover = instance.RandomCover();
  const auto reference = core::RunMmp(matcher, cover).matches;
  for (uint32_t machines : kMachineCounts) {
    GridOptions options;
    options.scheme = MpScheme::kMmp;
    options.num_machines = machines;
    options.seed = GetParam() ^ machines;
    EXPECT_EQ(core::RunGrid(matcher, cover, options).matches, reference)
        << "seed " << GetParam() << ", " << machines << " machines";
  }
}

TEST_P(GridConsistency, SmpWithRulesMatcherMatchesSequential) {
  RandomInstance instance(GetParam());
  rules::RulesConfig config;
  config.transitive_closure = false;  // Closure is a framework post-pass.
  rules::RulesMatcher matcher(instance.dataset(), config);
  const Cover cover = instance.RandomCover();
  const auto reference = core::RunSmp(matcher, cover).matches;
  for (uint32_t machines : kMachineCounts) {
    GridOptions options;
    options.scheme = MpScheme::kSmp;
    options.num_machines = machines;
    options.seed = GetParam() ^ machines;
    EXPECT_EQ(core::RunGrid(matcher, cover, options).matches, reference)
        << "seed " << GetParam() << ", " << machines << " machines";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, GridConsistency,
                         ::testing::Range<uint64_t>(500, 525));

}  // namespace
}  // namespace cem
