#ifndef CEM_CORE_MESSAGE_PASSING_H_
#define CEM_CORE_MESSAGE_PASSING_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "core/cover.h"
#include "core/match_set.h"
#include "core/matcher.h"
#include "core/maximal_message.h"

namespace cem::core {

/// Message-passing scheme: NO-MP (no evidence exchange), SMP (Algorithm 1)
/// or MMP (Algorithm 3).
enum class MpScheme { kNoMp = 0, kSmp = 1, kMmp = 2 };

const char* MpSchemeName(MpScheme scheme);

/// FIFO active set with set semantics (a neighborhood queued twice runs
/// once): Algorithms 1/3's A. Grows with the ids pushed.
class ActiveSet {
 public:
  void Push(uint32_t id) {
    if (id >= queued_.size()) queued_.resize(id + 1, 0);
    if (queued_[id]) return;
    queued_[id] = 1;
    queue_.push_back(id);
  }
  /// Removes and returns the oldest queued id; the set must not be empty.
  uint32_t Pop() {
    const uint32_t id = queue_.front();
    queue_.pop_front();
    queued_[id] = 0;
    return id;
  }
  bool empty() const { return queue_.empty(); }

 private:
  std::deque<uint32_t> queue_;
  std::vector<uint8_t> queued_;
};

/// Safety cap on the evaluations of one drain over `n` neighborhoods of at
/// most `k` entities: Theorem 3's bound n * k^2, floored generously. It
/// only guards matchers that are not well-behaved.
size_t EvaluationCap(size_t n, size_t k);

/// Neighbor(·) of Algorithms 1 and 3: the neighborhood ids affected by any
/// of `pairs` (sorted, unique) — those holding *both* endpoints, since
/// evidence is conditioned on C x C.
std::vector<uint32_t> AffectedBy(const CoverMembership& membership,
                                 std::span<const data::EntityPair> pairs);

/// The one message-passing loop behind every driver: steps 5-8 of
/// Algorithms 1 and 3 over the evidence (M+, T). M+ is the caller's match
/// set; T (MMP's maximal messages) lives here. A schedule Evaluates
/// neighborhoods, Folds the evaluations and re-activates the neighborhoods
/// whose output the new pairs can change: Drain is the sequential one,
/// RunGrid the Map/Reduce one.
class MpEngine {
 public:
  /// Step 5's output for one neighborhood C.
  struct Evaluation {
    /// MC \ M+, sorted: the pairs of MC = E(C, M+) new to the M+ it ran
    /// against. Evaluate probes M+ itself, so a grid round does it in its
    /// parallel map.
    std::vector<data::EntityPair> added;
    /// TC = COMPUTEMAXIMAL(C, M+) (MMP only).
    std::vector<MaximalMessage> messages;
    /// Matcher invocations: the Match plus COMPUTEMAXIMAL's clamped runs.
    size_t matcher_calls = 0;
  };

  /// Per-evaluation callback of Drain: (neighborhood id, its evaluation).
  using OnEvaluate = std::function<void(uint32_t, const Evaluation&)>;

  /// `matcher` and `matched` must outlive the engine. kMmp needs a Type-II
  /// (probabilistic) matcher. With `merge_messages` false (the MMP
  /// ablation) each maximal message is tested on its own and dropped, so
  /// chains spanning neighborhoods are never completed.
  MpEngine(const Matcher& matcher, MpScheme scheme, MatchSet& matched,
           bool merge_messages = true);

  /// Step 5 on `entities` against the current M+. Const, so a grid round
  /// evaluates its neighborhoods concurrently between folds.
  Evaluation Evaluate(const std::vector<data::EntityId>& entities) const;

  /// Steps 6-7 over `evaluations`, in the order given: each evaluation's
  /// added pairs go into M+; under MMP the messages are merged into T and
  /// the sound ones promoted. Returns the pairs new to M+, each once.
  std::vector<data::EntityPair> Fold(std::span<const Evaluation> evaluations);

  /// The sequential schedule: pops `active` until it drains, evaluating
  /// and folding one neighborhood at a time and re-activating the
  /// neighborhoods AffectedBy its new pairs (except itself: by idempotence
  /// it cannot add to its own output). Stops with a warning after `cap`
  /// evaluations; `on_evaluate`, if set, sees every evaluation.
  /// `membership` must mirror `cover`.
  void Drain(const Cover& cover, ActiveSet& active,
             const CoverMembership& membership, size_t cap,
             const OnEvaluate& on_evaluate = {});

  /// Work folded since construction.
  size_t evaluations() const { return evaluations_; }
  size_t matcher_calls() const { return matcher_calls_; }
  size_t messages_created() const { return messages_created_; }
  size_t messages_promoted() const { return messages_promoted_; }

 private:
  const Matcher& matcher_;
  /// Non-null iff the scheme is kMmp.
  const ProbabilisticMatcher* probabilistic_ = nullptr;
  bool merge_messages_;
  MatchSet& matched_;           // M+
  MaximalMessageSet messages_;  // T
  size_t evaluations_ = 0;
  size_t matcher_calls_ = 0;
  size_t messages_created_ = 0;
  size_t messages_promoted_ = 0;
};

/// Options shared by the sequential message-passing drivers.
struct MpOptions {
  /// Processing order of the initial active set (the schemes are provably
  /// order-invariant for well-behaved matchers — Theorem 2(3)/4 — and tests
  /// exercise that by permuting this). Ids outside [0, cover size) are
  /// ignored; an empty vector means 0..n-1.
  std::vector<uint32_t> initial_order;

  /// Hard safety cap on neighborhood evaluations (0 = EvaluationCap).
  size_t max_evaluations = 0;
};

/// Result of a message-passing run.
struct MpResult {
  MatchSet matches;
  /// Neighborhood evaluations (pops of the active set).
  size_t neighborhood_evaluations = 0;
  /// Total black-box matcher invocations, including the clamped runs
  /// COMPUTEMAXIMAL issues (MMP only adds those).
  size_t matcher_calls = 0;
  /// MMP: maximal messages computed / promoted into sound matches.
  size_t messages_created = 0;
  size_t messages_promoted = 0;
  /// Wall-clock seconds of the run.
  double seconds = 0.0;
};

/// NO-MP baseline: runs the matcher once per neighborhood with no evidence
/// and unions the results (blocking-style execution, Figure 3's "NO-MP").
MpResult RunNoMp(const Matcher& matcher, const Cover& cover);

/// SMP — Simple Message Passing (Algorithm 1). Sound, consistent and
/// convergent for well-behaved Type-I matchers (Theorem 2); linear in the
/// number of neighborhoods for bounded neighborhood size (Theorem 3).
MpResult RunSmp(const Matcher& matcher, const Cover& cover,
                const MpOptions& options = {});

/// MMP — Maximal Message Passing (Algorithm 3), for Type-II probabilistic
/// matchers. Additionally exchanges maximal messages (Definition 8),
/// merging overlaps ((T ∪ TC)*, Proposition 3) and promoting a message M to
/// sound matches when P_E(M+ ∪ M) >= P_E(M+) (step 7). Sound, consistent,
/// convergent for supermodular matchers (Theorem 4); complexity
/// O(k^4 f(k) n) (Theorem 5).
MpResult RunMmp(const ProbabilisticMatcher& matcher, const Cover& cover,
                const MpOptions& options = {});

/// Ablation: MMP with message *merging* disabled — each maximal message is
/// only ever tested in isolation, so inference chains spanning
/// neighborhoods (the paper's {(a1,a2),(b2,b3),(c2,c3)} example) are never
/// completed. Used by bench/ablation_mmp_merge.
MpResult RunMmpWithoutMerge(const ProbabilisticMatcher& matcher,
                            const Cover& cover, const MpOptions& options = {});

}  // namespace cem::core

#endif  // CEM_CORE_MESSAGE_PASSING_H_
