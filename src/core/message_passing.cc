#include "core/message_passing.h"

#include <algorithm>
#include <iterator>

#include "util/logging.h"
#include "util/timer.h"

namespace cem::core {
namespace {

/// SMP and both MMP variants: seed the active set with `initial_order`,
/// then 0..n-1, and drain it over the cover's membership.
MpResult RunSequential(const Matcher& matcher, const Cover& cover,
                       const MpOptions& options, MpScheme scheme,
                       bool merge_messages = true) {
  Timer timer;
  MpResult result;
  MpEngine engine(matcher, scheme, result.matches, merge_messages);
  const CoverMembership membership(cover);
  ActiveSet active;
  for (uint32_t id : options.initial_order) {
    if (id < cover.size()) active.Push(id);
  }
  for (uint32_t id = 0; id < cover.size(); ++id) active.Push(id);
  const size_t cap =
      options.max_evaluations > 0
          ? options.max_evaluations
          : EvaluationCap(cover.size(), cover.MaxNeighborhoodSize());
  engine.Drain(cover, active, membership, cap);
  result.neighborhood_evaluations = engine.evaluations();
  result.matcher_calls = engine.matcher_calls();
  result.messages_created = engine.messages_created();
  result.messages_promoted = engine.messages_promoted();
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

const char* MpSchemeName(MpScheme scheme) {
  switch (scheme) {
    case MpScheme::kNoMp:
      return "NO-MP";
    case MpScheme::kSmp:
      return "SMP";
    case MpScheme::kMmp:
      return "MMP";
  }
  return "?";
}

size_t EvaluationCap(size_t n, size_t k) {
  return n * std::max<size_t>(k * k, 16) + 64;
}

std::vector<uint32_t> AffectedBy(const CoverMembership& membership,
                                 std::span<const data::EntityPair> pairs) {
  std::vector<uint32_t> out;
  for (const data::EntityPair& p : pairs) {
    const std::vector<uint32_t>& in_a = membership.HomesOf(p.a);
    const std::vector<uint32_t>& in_b = membership.HomesOf(p.b);
    std::set_intersection(in_a.begin(), in_a.end(), in_b.begin(), in_b.end(),
                          std::back_inserter(out));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

MpEngine::MpEngine(const Matcher& matcher, MpScheme scheme, MatchSet& matched,
                   bool merge_messages)
    : matcher_(matcher), merge_messages_(merge_messages), matched_(matched) {
  if (scheme == MpScheme::kMmp) {
    probabilistic_ = dynamic_cast<const ProbabilisticMatcher*>(&matcher);
    CEM_CHECK(probabilistic_ != nullptr)
        << "MMP requires a Type-II (probabilistic) matcher";
  }
}

MpEngine::Evaluation MpEngine::Evaluate(
    const std::vector<data::EntityId>& entities) const {
  const MatchSet matches = matcher_.Match(entities, matched_);
  Evaluation out{.added = matches.Difference(matched_),
                 .messages = {},
                 .matcher_calls = 1};
  if (probabilistic_ != nullptr) {
    size_t conditioned_calls = 0;
    out.messages = ComputeMaximal(matcher_, entities, matched_, matches,
                                  &conditioned_calls);
    out.matcher_calls += conditioned_calls;
  }
  return out;
}

std::vector<data::EntityPair> MpEngine::Fold(
    std::span<const Evaluation> evaluations) {
  // Step 6: M+ ∪= MC for every evaluation. The rest of MC is in M+
  // already, and M+ only grows, so its added pairs are all there is to fold.
  std::vector<data::EntityPair> new_matches;
  for (const Evaluation& e : evaluations) {
    ++evaluations_;
    matcher_calls_ += e.matcher_calls;
    messages_created_ += e.messages.size();
    for (const data::EntityPair& p : e.added) {
      if (matched_.Insert(p)) new_matches.push_back(p);
    }
  }
  if (probabilistic_ == nullptr) return new_matches;

  if (merge_messages_) {
    // T = (T ∪ TC)*, then step 7: promote sound messages until fixpoint.
    const uint32_t first_fresh = messages_.next_id();
    for (const Evaluation& e : evaluations) {
      for (const MaximalMessage& m : e.messages) messages_.Insert(m);
    }
    messages_promoted_ += PromoteSoundMessages(
        *probabilistic_, messages_, first_fresh, matched_, new_matches);
    return new_matches;
  }
  // Ablation: no merge — each message is its own island, tested once and
  // dropped.
  for (const Evaluation& e : evaluations) {
    for (const MaximalMessage& m : e.messages) {
      if (probabilistic_->ScoreDelta(matched_, m) < -kScoreEps) continue;
      for (const data::EntityPair& p : m) {
        if (matched_.Insert(p)) new_matches.push_back(p);
      }
      ++messages_promoted_;
    }
  }
  return new_matches;
}

void MpEngine::Drain(const Cover& cover, ActiveSet& active,
                     const CoverMembership& membership, size_t cap,
                     const OnEvaluate& on_evaluate) {
  for (size_t evaluations = 0; !active.empty(); ++evaluations) {
    if (evaluations >= cap) {
      CEM_LOG(Warning) << "message-passing evaluation cap reached (" << cap
                       << "); matcher may not be well-behaved";
      return;
    }
    const uint32_t c = active.Pop();
    const Evaluation evaluation = Evaluate(cover.neighborhood(c).entities);
    if (on_evaluate) on_evaluate(c, evaluation);
    // Step 8: re-activate the neighborhoods affected by anything new.
    for (uint32_t affected :
         AffectedBy(membership, Fold({&evaluation, 1}))) {
      if (affected != c) active.Push(affected);
    }
  }
}

MpResult RunNoMp(const Matcher& matcher, const Cover& cover) {
  Timer timer;
  MpResult result;
  // NO-MP never folds before evaluating, so every run sees no evidence.
  MatchSet no_evidence;
  const MpEngine engine(matcher, MpScheme::kNoMp, no_evidence);
  for (const Neighborhood& n : cover.neighborhoods()) {
    for (const data::EntityPair& p : engine.Evaluate(n.entities).added) {
      result.matches.Insert(p);
    }
    ++result.neighborhood_evaluations;
    ++result.matcher_calls;
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

MpResult RunSmp(const Matcher& matcher, const Cover& cover,
                const MpOptions& options) {
  return RunSequential(matcher, cover, options, MpScheme::kSmp);
}

MpResult RunMmp(const ProbabilisticMatcher& matcher, const Cover& cover,
                const MpOptions& options) {
  return RunSequential(matcher, cover, options, MpScheme::kMmp);
}

MpResult RunMmpWithoutMerge(const ProbabilisticMatcher& matcher,
                            const Cover& cover, const MpOptions& options) {
  return RunSequential(matcher, cover, options, MpScheme::kMmp,
                       /*merge_messages=*/false);
}

}  // namespace cem::core
