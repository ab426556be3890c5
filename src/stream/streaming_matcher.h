#ifndef CEM_STREAM_STREAMING_MATCHER_H_
#define CEM_STREAM_STREAMING_MATCHER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/cover.h"
#include "core/match_set.h"
#include "core/matcher.h"
#include "core/message_passing.h"
#include "data/dataset.h"
#include "stream/incremental_cover.h"
#include "util/execution_context.h"

namespace cem::stream {

class StreamingMatcher;

/// Options of the streaming front door.
struct StreamingOptions {
  /// Cover-maintenance knobs (MinHash/banding, loose/tight thresholds).
  IncrementalCoverOptions cover;
  /// Execution context: LSH shard count, and the pool batch ingest uses to
  /// compute signatures in parallel. Null = ExecutionContext::Default().
  /// Matches, cover and counters are bit-identical for any thread and
  /// shard count (for a fixed arrival order).
  const ExecutionContext* context = nullptr;
  /// Periodic metrics snapshot: every this many inserts (0 = off) the
  /// matcher refreshes the process metrics registry's stream gauges
  /// (live refs, neighborhoods, matches, max neighborhood size) and
  /// invokes `metrics_hook`, if set — the operational surface a serving
  /// layer or `dedup_tool --metrics-json` watches mid-ingest.
  ///
  /// Threading contract (enforced by a CEM_DCHECK in the publisher): the
  /// hook runs ON THE INGEST THREAD, and ONLY at quiescent points — after
  /// the convergence drain, never mid-patch — so it may read matches(),
  /// cover() and stats() without synchronisation. It must NOT be used to
  /// hand the matcher to other threads: concurrent readers go through
  /// serve::MatchService, which only reads against published epochs (state
  /// a quiescent ingest made visible under its exclusive lock).
  size_t metrics_every_inserts = 0;
  std::function<void(const StreamingMatcher&)> metrics_hook;
};

/// Counters of the matching side of the stream (the ingest side lives in
/// IngestStats). Deterministic for a fixed arrival order.
struct MatchingStats {
  /// Dirty-neighborhood evaluations (pops of the persistent active set).
  size_t neighborhood_evaluations = 0;
  /// Black-box matcher invocations.
  size_t matcher_calls = 0;
  /// Candidate pairs presented to the matcher across re-evaluations (pairs
  /// with both endpoints inside an evaluated neighborhood, counted per
  /// evaluation) — the re-scoring work incremental matching amortizes.
  size_t pairs_rescored = 0;

  friend bool operator==(const MatchingStats&,
                         const MatchingStats&) = default;
};

/// Combined work counters of a StreamingMatcher.
struct StreamingStats {
  IngestStats ingest;
  MatchingStats matching;

  friend bool operator==(const StreamingStats&,
                         const StreamingStats&) = default;
};

/// Serializable image of a StreamingMatcher at a quiescent point (active
/// set drained — the only points the persistence layer snapshots at, so
/// the active set itself is never part of the format).
struct StreamingMatcherState {
  IncrementalCoverState cover;
  /// Sorted data::PairKey values of the converged match set.
  std::vector<uint64_t> match_keys;
  MatchingStats matching;
};

/// Incremental entity matching — the streaming front door of the paper's
/// cover-then-match architecture. Where the batch pipeline freezes the
/// corpus, builds one cover and runs message passing once, a
/// StreamingMatcher ingests references as they arrive: Add()/AddBatch()
/// update MinHash signatures and the sharded LSH index in place, patch the
/// affected neighborhoods of an incrementally maintained total cover
/// (IncrementalCover), enqueue only the dirty neighborhoods, and propagate
/// new matches until convergence. The drain is core::MpEngine's sequential
/// schedule — the same loop as RunSmp — over the incremental cover, with an
/// active set that persists across calls.
///
/// Convergence guarantee: for a well-behaved matcher (idempotent +
/// monotone, Definition 4), after every reference has been streamed — in
/// ANY arrival order, on any thread/shard count — matches() equals the
/// batch pipeline's RunSmp() fixpoint over a freshly built total cover.
/// Two properties carry the argument: (1) the maintained cover is total
/// w.r.t. Similar and boundary-expanded w.r.t. Coauthor at every point, so
/// every candidate pair is eventually evaluated with its full one-hop
/// relational context, which is all the shipped matchers' groundings see
/// (the same reason canopy- and LSH-built covers yield identical match
/// sets); (2) matches only ever grow, evaluations re-run whenever a
/// neighborhood's membership or in-neighborhood evidence changes, and the
/// active set drains to a fixpoint — the Simple Message Passing loop
/// warm-started from sound evidence, which reaches the same fixpoint it
/// would reach from scratch (Theorem 2). The streaming equivalence suite
/// pins this end to end.
///
/// MMP-style maximal-message exchange is not streamed: the engine runs the
/// SMP scheme, so the batch reference point is RunSmp, not RunMmp. Streamed
/// MMP would be a scheme choice on the same engine, but is not offered.
class StreamingMatcher {
 public:
  /// `matcher` decides matches and supplies the dataset; it must outlive
  /// this object. The dataset must be finalized with candidate pairs
  /// built (references "arrive" in the sense of becoming visible to
  /// matching — attributes and relations are the dataset's).
  explicit StreamingMatcher(const core::Matcher& matcher,
                            const StreamingOptions& options = {});

  /// Ingests one reference and re-matches to convergence.
  void Add(data::EntityId ref);

  /// Ingests a chunk: signatures are computed in parallel on the execution
  /// context's pool, the index/cover updates apply serially in `refs`
  /// order, and one convergence drain runs at the end — same final state
  /// as Add() per element (order-invariance of the fixpoint), much less
  /// re-matching.
  void AddBatch(const std::vector<data::EntityId>& refs);

  /// The matches over the live references, converged as of the last Add.
  const core::MatchSet& matches() const { return matches_; }

  /// The maintained cover (diagnostics; totality is a maintained
  /// invariant, pinned by the streaming tests).
  const core::Cover& cover() const { return icover_.cover(); }

  size_t num_live() const { return icover_.num_live(); }
  bool is_live(data::EntityId ref) const { return icover_.is_live(ref); }

  /// The matcher's dataset (the corpus references stream out of).
  const data::Dataset& dataset() const { return matcher_.dataset(); }

  /// The wrapped black-box matcher. Const Match() calls are thread-safe
  /// (the grid executor already scores concurrently), which is what lets
  /// serve::MatchService re-score cold query records on reader threads.
  const core::Matcher& core_matcher() const { return matcher_; }

  const StreamingOptions& options() const { return options_; }

  StreamingStats stats() const {
    return {icover_.stats(), matching_stats_};
  }

  // --- ingest-progress observability ---------------------------------------

  /// Convergence drains completed so far. Lock-free reads from any thread;
  /// the counter bumps at the END of each drain, so together with a
  /// non-zero pending_hint() a frozen value means ingest has stopped
  /// making progress — the signal obs::IngestWatchdog watches.
  uint64_t drains_completed() const {
    return drains_completed_.load(std::memory_order_acquire);
  }

  /// Advisory queue depth: how many references the driver still intends
  /// to ingest. The driver sets it around its ingest loop (the matcher
  /// never changes it); setting it also publishes the
  /// `stream_ingest_queue_depth` gauge. Lock-free reads from any thread.
  void set_pending_hint(size_t pending);
  size_t pending_hint() const {
    return pending_hint_.load(std::memory_order_acquire);
  }

  // --- serialization support (persist/) ------------------------------------

  /// The maintained incremental cover, full-state accessors included.
  const IncrementalCover& incremental_cover() const { return icover_; }

  /// True when the active set is drained — every Add()/AddBatch() returns
  /// quiescent, so this only reads false mid-call. Snapshots require it.
  bool quiescent() const { return active_.empty(); }

  /// Restores a snapshot into a freshly constructed matcher (nothing
  /// streamed yet) over the same dataset and options. After a successful
  /// restore, streaming the remaining references produces bit-identical
  /// matches, cover and work counters to the uninterrupted run that the
  /// state was captured from. Returns InvalidArgument on a structurally
  /// inconsistent image.
  Status RestoreState(StreamingMatcherState state);

 private:
  /// Runs the engine's SMP loop until the active set drains.
  void Drain();

  /// Per-insert observability: canopies-touched histogram + insert counter.
  void RecordInsert(size_t canopies_touched);

  /// Publishes registry gauges + fires the metrics hook when the insert
  /// count crossed the next metrics_every_inserts boundary.
  void MaybePublishMetrics();

  const core::Matcher& matcher_;
  StreamingOptions options_;
  IncrementalCover icover_;
  core::MatchSet matches_;
  MatchingStats matching_stats_;
  /// SMP over matches_ (M+).
  core::MpEngine engine_;
  /// Persistent FIFO active set across Add() calls.
  core::ActiveSet active_;
  /// num_live() at the last metrics publication (metrics_every_inserts).
  size_t metrics_published_at_ = 0;
  /// See drains_completed() / pending_hint().
  std::atomic<uint64_t> drains_completed_{0};
  std::atomic<size_t> pending_hint_{0};
};

}  // namespace cem::stream

#endif  // CEM_STREAM_STREAMING_MATCHER_H_
