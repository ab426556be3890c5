#include "stream/streaming_matcher.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cem::stream {
namespace {

const ExecutionContext& Resolve(const StreamingOptions& options) {
  return options.context != nullptr ? *options.context
                                    : ExecutionContext::Default();
}

/// Bucket bounds of the per-insert canopies-touched histogram: counts, not
/// durations — the amortized-work claim says these stay single-digit while
/// the cover grows, so the interesting resolution is at the low end.
std::vector<double> CanopiesTouchedBounds() {
  return {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128};
}

}  // namespace

StreamingMatcher::StreamingMatcher(const core::Matcher& matcher,
                                   const StreamingOptions& options)
    : matcher_(matcher),
      options_(options),
      icover_(matcher.dataset(), options.cover, Resolve(options)),
      engine_(matcher, core::MpScheme::kSmp, matches_) {}

void StreamingMatcher::Add(data::EntityId ref) {
  const std::vector<uint32_t> dirty = icover_.Insert(ref);
  for (uint32_t n : dirty) active_.Push(n);
  RecordInsert(dirty.size());
  Drain();
  MaybePublishMetrics();
}

void StreamingMatcher::AddBatch(const std::vector<data::EntityId>& refs) {
  // Parallel phase: signatures of the whole chunk (references are
  // independent, so the result does not depend on the thread count).
  const ExecutionContext& ctx = Resolve(options_);
  std::vector<std::vector<uint64_t>> signatures(refs.size());
  ParallelFor(ctx.pool(), refs.size(), [&](size_t i) {
    signatures[i] = icover_.ComputeSignature(refs[i]);
  });
  // Serial phase: index/cover updates replay in `refs` order, so the
  // result is bit-identical to one-at-a-time ingest of the same order.
  for (size_t i = 0; i < refs.size(); ++i) {
    const std::vector<uint32_t> dirty =
        icover_.Insert(refs[i], std::move(signatures[i]));
    for (uint32_t n : dirty) active_.Push(n);
    RecordInsert(dirty.size());
  }
  Drain();
  MaybePublishMetrics();
}

void StreamingMatcher::RecordInsert(size_t canopies_touched) {
  static obs::Counter& inserts =
      obs::MetricsRegistry::Global().counter("stream_inserts");
  static obs::Histogram& touched = obs::MetricsRegistry::Global().histogram(
      "stream_canopies_touched_per_insert", CanopiesTouchedBounds());
  inserts.Add(1);
  touched.Record(static_cast<double>(canopies_touched));
}

void StreamingMatcher::MaybePublishMetrics() {
  // The StreamingOptions::metrics_hook contract: publication (and the
  // hook) only ever run at a quiescent point — the drain has finished, so
  // the hook may read matches()/cover()/stats() unsynchronised.
  CEM_DCHECK(quiescent());
  const size_t every = options_.metrics_every_inserts;
  if (every == 0 || num_live() < metrics_published_at_ + every) return;
  metrics_published_at_ = num_live();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.gauge("stream_live_refs").Set(static_cast<double>(num_live()));
  registry.gauge("stream_neighborhoods")
      .Set(static_cast<double>(icover_.cover().size()));
  registry.gauge("stream_matches").Set(static_cast<double>(matches_.size()));
  registry.gauge("stream_max_neighborhood")
      .Set(static_cast<double>(icover_.max_neighborhood_size()));
  if (options_.metrics_hook) options_.metrics_hook(*this);
}

Status StreamingMatcher::RestoreState(StreamingMatcherState state) {
  if (num_live() != 0 || !matches_.empty() || !active_.empty() ||
      matching_stats_.matcher_calls != 0) {
    return FailedPreconditionError(
        "RestoreState needs a freshly constructed StreamingMatcher");
  }
  CEM_RETURN_IF_ERROR(
      icover_.RestoreState(std::move(state.cover), Resolve(options_)));
  for (uint64_t key : state.match_keys) {
    const data::EntityPair pair = data::PairFromKey(key);
    // a < b, so b bounds both endpoints.
    if (pair.a >= pair.b || pair.b >= dataset().num_entities() ||
        !matches_.Insert(pair)) {
      return InvalidArgumentError(
          "match keys must be normalised, unique and in range");
    }
  }
  matching_stats_ = state.matching;
  return OkStatus();
}

void StreamingMatcher::Drain() {
  // Always-on drain-latency histogram (the pre-serve p50/p99 story) plus a
  // flame-chart span when tracing is enabled.
  static obs::Histogram& drain_hist =
      obs::MetricsRegistry::Global().histogram("stream_drain_us");
  CEM_TRACE_TIMED("stream/drain", &drain_hist);
  const size_t evaluations_before = matching_stats_.neighborhood_evaluations;
  const size_t rescored_before = matching_stats_.pairs_rescored;
  const core::Cover& cover = icover_.cover();
  // The incrementally maintained k keeps the cap O(1) per drain.
  engine_.Drain(
      cover, active_,
      core::EvaluationCap(cover.size(), icover_.max_neighborhood_size()),
      [this](uint32_t c, const core::MpEngine::Evaluation& evaluation) {
        ++matching_stats_.neighborhood_evaluations;
        matching_stats_.matcher_calls += evaluation.matcher_calls;
        matching_stats_.pairs_rescored += icover_.inside_pairs(c);
      });
  // One registry bump per drain with the serial deltas — deterministic for
  // a fixed arrival order, like the MatchingStats they mirror.
  static obs::Counter& evals_counter =
      obs::MetricsRegistry::Global().counter("stream_drain_evaluations");
  static obs::Counter& rescored_counter =
      obs::MetricsRegistry::Global().counter("stream_drain_pairs_rescored");
  evals_counter.Add(matching_stats_.neighborhood_evaluations -
                    evaluations_before);
  rescored_counter.Add(matching_stats_.pairs_rescored - rescored_before);
  // Release-published last: a watchdog observing the new value knows this
  // drain's state updates happened before it.
  drains_completed_.fetch_add(1, std::memory_order_release);
}

void StreamingMatcher::set_pending_hint(size_t pending) {
  pending_hint_.store(pending, std::memory_order_release);
  obs::MetricsRegistry::Global()
      .gauge("stream_ingest_queue_depth")
      .Set(static_cast<double>(pending));
}

}  // namespace cem::stream
