#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "blocking/lsh_cover.h"
#include "core/cover.h"
#include "core/grid_executor.h"
#include "core/match_set.h"
#include "core/message_passing.h"
#include "data/bib_generator.h"
#include "data/dataset.h"
#include "data/tsv_io.h"
#include "eval/metrics.h"
#include "ledger.h"
#include "mln/mln_matcher.h"
#include "obs/query_trace.h"
#include "persist/recovery.h"
#include "serve/match_service.h"
#include "stream/streaming_matcher.h"
#include "timed_matcher.h"
#include "util/execution_context.h"
#include "util/random.h"

namespace perfbench {
namespace {

using namespace cem;
namespace fs = std::filesystem;

// ---- workload parameters ----------------------------------------------------

struct Spec {
  const char* name;
  /// HEPTH-like (abbreviated first names: few, large, ambiguous
  /// neighborhoods) or DBLP-like (full names: many small ones).
  bool hepth;
  /// data::BibConfig preset scale of each corpus.
  double scale;
  /// Independent corpora per run. A corpus's cost is dominated by its few
  /// largest neighborhoods, so it varies widely from seed to seed; the run
  /// reports medians over several corpora instead of one corpus's number.
  int corpora;
  /// Pinned ExecutionContext pool size: at most this many threads run a
  /// parallel stage, the calling thread among them.
  uint32_t threads;
};

// Sized so that a run's set-ups, measured phase and output checks take
// about half a minute on a 4-core host (README.md has reference numbers).
constexpr Spec kSpecs[] = {
    {"mmp-hepth", true, 1.0, 8, 1},
    {"grid-dblp", false, 10.0, 3, 4},
    {"serve-dblp", false, 2.5, 4, 2},
    {"durable-hepth", true, 1.5, 5, 1},
};

/// LSH and token-index shards: fixed, so covers and snapshot files do not
/// follow the host's core count.
constexpr uint32_t kShards = 16;
/// Set-ups per corpus. A repeated step reports its fastest repetition:
/// other tenants of a shared host only ever add time, in bursts of seconds.
constexpr int kSetupReps = 3;
/// Salt separating the arrival-order stream from the corpus stream.
constexpr uint64_t kArrivalSalt = 0x5eed5eed;

// serve-dblp: a warm half ingested during set-up, the rest streamed in
// fixed chunks on an open-loop schedule spread over the measured phase,
// beside open-loop live lookups and rare previews of held-out references.
constexpr size_t kServeChunk = 20;
constexpr size_t kPreviewRefs = 64;
constexpr double kLookupsPerSecond = 1000.0;
constexpr double kPreviewsPerSecond = 10.0;

// durable-hepth: closed-loop backfill with a checkpoint every
// kCheckpointEvery chunks and no final one, so recovery replays a WAL tail.
constexpr size_t kDurableChunk = 24;
constexpr size_t kCheckpointEvery = 32;

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr LayerMetricDef kLayerMetrics[] = {
    {"data.load_s", "s"},
    {"data.candidate_pairs_s", "s"},
    {"data.candidate_pairs", "count"},
    {"blocking.cover_s", "s"},
    {"blocking.pairs_considered", "count"},
    {"blocking.neighborhoods", "count"},
    {"blocking.max_neighborhood", "count"},
    {"blocking.contained_pairs", "count"},
    {"mln.ground_s", "s"},
    {"mln.match_calls", "count"},
    {"mln.match_s", "s"},
    {"mln.conditioned_calls", "count"},
    {"mln.conditioned_s", "s"},
    {"mln.entangled_s", "s"},
    {"mln.score_delta_calls", "count"},
    {"mln.score_delta_s", "s"},
    {"mln.score_delta_pass_ratio", "ratio"},
    {"mln.free_variables", "count"},
    {"core.mp_self_s", "s"},
    {"core.evaluations", "count"},
    {"core.useful_eval_ratio", "ratio"},
    {"core.messages_created", "count"},
    {"core.messages_promoted", "count"},
    {"core.grid_rounds", "count"},
    {"core.grid_busy_ratio", "ratio"},
    {"stream.chunk_self_ms_p50", "ms"},
    {"stream.chunk_self_ms_p90", "ms"},
    {"stream.drain_evaluations", "count"},
    {"stream.pairs_rescored", "count"},
    {"stream.canopies_touched", "count"},
    {"stream.useful_eval_ratio", "ratio"},
    {"persist.checkpoint_ms_p50", "ms"},
    {"persist.recover_self_s", "s"},
    {"persist.replayed_chunks", "count"},
    {"persist.state_mb", "MB"},
    {"serve.service_us_p50", "us"},
    {"serve.service_us_p99", "us"},
    {"serve.wait_us_p50", "us"},
    {"serve.wait_us_p99", "us"},
    {"serve.probe_us_p50", "us"},
    {"serve.rank_us_p50", "us"},
    {"serve.cluster_us_p50", "us"},
    {"serve.candidates_probed", "count"},
    {"serve.blocked_ratio", "ratio"},
    {"serve.preview_match_ms_p50", "ms"},
    {"serve.ingest_lag_ms_p90", "ms"},
    {"serve.generator_late_us_p99", "us"},
    {"obs.trace_overhead", "ratio"},
    {"obs.coverage", "ratio"},
};

/// Share of the traced run's working time layer spans must account for.
constexpr double kMinCoverage = 0.95;

using LayerMap = std::map<std::string, double>;

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string CorpusPath(const std::string& dir, int i) {
  return dir + "/corpus-" + std::to_string(i) + ".tsv";
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// The middle value, or the mean of the middle two.
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The process's peak resident memory so far, in MiB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::vector<data::EntityId> Slice(const std::vector<data::EntityId>& refs,
                                  size_t begin, size_t end) {
  end = std::min(end, refs.size());
  return {refs.begin() + static_cast<std::ptrdiff_t>(std::min(begin, end)),
          refs.begin() + static_cast<std::ptrdiff_t>(end)};
}

/// "name: v1 v2 ..." with each corpus's value — the spread behind a median.
std::string PerCorpus(const char* name, const std::vector<double>& values) {
  std::string line = std::string("per corpus ") + name + ":";
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    line += buf;
  }
  return line;
}

double SumSeconds(const std::vector<Span>& spans, std::string_view name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (name == s.name) total += s.seconds();
  }
  return total;
}

/// Self times, in milliseconds, of the spans named `name`.
std::vector<double> SelfMs(const std::vector<Span>& spans,
                           std::string_view name) {
  const std::vector<double> self = SelfSeconds(spans);
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) out.push_back(self[i] * 1e3);
  }
  return out;
}

/// What an untraced and a traced pass over the same corpus must agree on.
struct Work {
  core::MatchSet matches;
  std::vector<std::pair<std::string, uint64_t>> counts;
};

void AddStreamCounts(const stream::StreamingStats& s, Work& work) {
  work.counts.insert(
      work.counts.end(),
      {{"inserts", s.ingest.inserts},
       {"seeds_created", s.ingest.seeds_created},
       {"canopies_touched", s.ingest.canopies_touched},
       {"lsh_candidates_scanned", s.ingest.lsh_candidates_scanned},
       {"pairs_patched", s.ingest.pairs_patched},
       {"boundary_additions", s.ingest.boundary_additions},
       {"memberships_added", s.ingest.memberships_added},
       {"drain_evaluations", s.matching.neighborhood_evaluations},
       {"matcher_calls", s.matching.matcher_calls},
       {"pairs_rescored", s.matching.pairs_rescored}});
}

void ReportCoverShape(const data::Dataset& dataset, const core::Cover& cover,
                      LayerMap& layers) {
  layers["blocking.neighborhoods"] = static_cast<double>(cover.size());
  layers["blocking.max_neighborhood"] =
      static_cast<double>(cover.MaxNeighborhoodSize());
  layers["blocking.contained_pairs"] =
      static_cast<double>(cover.TotalContainedPairs(dataset));
}

/// Stream-layer metrics of the chunk spans named `name`, skipping the
/// set-up's first `skip` chunks; `before`/`after` bracket the measured
/// phase.
void ReportChunkLayers(const std::vector<Span>& spans, std::string_view name,
                       uint64_t skip, const stream::StreamingStats& before,
                       const stream::StreamingStats& after, LayerMap& layers) {
  const std::vector<double> self = SelfSeconds(spans);
  std::vector<double> self_ms;
  uint64_t useful = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (name != spans[i].name || spans[i].group < skip) continue;
    self_ms.push_back(self[i] * 1e3);
    useful += spans[i].matcher.useful_matches;
  }
  const double evaluations =
      static_cast<double>(after.matching.neighborhood_evaluations -
                          before.matching.neighborhood_evaluations);
  layers["stream.chunk_self_ms_p50"] = PercentileOf(self_ms, 0.5);
  layers["stream.chunk_self_ms_p90"] = PercentileOf(self_ms, 0.9);
  layers["stream.drain_evaluations"] = evaluations;
  layers["stream.pairs_rescored"] = static_cast<double>(
      after.matching.pairs_rescored - before.matching.pairs_rescored);
  layers["stream.canopies_touched"] = static_cast<double>(
      after.ingest.canopies_touched - before.ingest.canopies_touched);
  layers["stream.useful_eval_ratio"] =
      Ratio(static_cast<double>(useful), evaluations);
}

// ---- workloads --------------------------------------------------------------

/// One workload over a run's corpora, one corpus at a time: the run tears
/// down, sets up (timed), measures, then checks outside any timed region.
/// Per-corpus results accumulate across corpora.
class Workload {
 public:
  Workload(const Spec& spec, const RunConfig& config)
      : spec_(spec), config_(config), ctx_(spec.threads, kShards) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the measured phase's starting state from a corpus TSV.
  /// `decorate` routes matching through a TimedMatcher.
  Status Setup(Ledger& ledger, bool decorate, const std::string& corpus) {
    {
      ScopedSpan span(ledger, "data.load");
      Result<std::unique_ptr<data::Dataset>> loaded =
          data::LoadDatasetTsv(corpus);
      if (!loaded.ok()) return loaded.status();
      dataset_ = std::move(loaded).value();
    }
    {
      ScopedSpan span(ledger, "data.candidate_pairs");
      dataset_->BuildCandidatePairs({}, ctx_);
    }
    {
      ScopedSpan span(ledger, "mln.ground");
      mln_ = std::make_unique<mln::MlnMatcher>(*dataset_);
    }
    if (decorate) timed_ = std::make_unique<TimedMatcher>(*mln_);
    matcher_ = decorate ? static_cast<const core::ProbabilisticMatcher*>(
                              timed_.get())
                        : mln_.get();
    return SetupRest(ledger);
  }

  /// Drops the current corpus's state (outside the set-up timing).
  void Teardown() {
    TeardownRest();
    timed_.reset();
    mln_.reset();
    dataset_.reset();
    matcher_ = nullptr;
  }

  /// The measured phase on the current corpus, `seconds` long. `phase_span`
  /// parents load-generator threads; `repeat` repeats the job while another
  /// repetition fits in `seconds` (untraced runs only).
  void Measure(Ledger& ledger, uint64_t phase_span, bool repeat,
               double seconds) {
    tally_at_begin_ = timed_ != nullptr ? timed_->Total() : MatcherTally{};
    free_vars_at_begin_ = mln_->total_free_variables();
    corpus_job_s_.push_back(MeasureJob(ledger, phase_span, repeat, seconds));
    measured_tally_ =
        (timed_ != nullptr ? timed_->Total() : MatcherTally{}) - tally_at_begin_;
    measured_free_vars_ = mln_->total_free_variables() - free_vars_at_begin_;
  }

  /// Output checks on the current corpus, outside the timed region.
  virtual void Check(std::vector<std::string>& failures) = 0;

  /// The write job's seconds: median over the corpora measured so far.
  double JobSeconds() const { return Median(corpus_job_s_); }
  /// The write job's seconds on the last corpus measured.
  double LastJobSeconds() const { return corpus_job_s_.back(); }

  /// This workload's own end-to-end numbers over every corpus measured,
  /// and the operations attempted.
  void Report(Outcome& out) const {
    out.notes.push_back(PerCorpus("job_s", corpus_job_s_));
    ReportOwn(out);
    out.workload.push_back(
        {"error_ratio",
         Ratio(static_cast<double>(out.failed),
               static_cast<double>(out.attempted)),
         "ratio"});
  }

  /// Per-layer metrics of a traced pass over one corpus.
  void ReportLayers(const std::vector<Span>& spans, LayerMap& layers) const {
    layers["data.load_s"] = SumSeconds(spans, "data.load");
    layers["data.candidate_pairs_s"] = SumSeconds(spans, "data.candidate_pairs");
    layers["data.candidate_pairs"] =
        static_cast<double>(dataset_->num_candidate_pairs());
    layers["mln.ground_s"] = SumSeconds(spans, "mln.ground");
    const MatcherTally& t = measured_tally_;
    layers["mln.match_calls"] = static_cast<double>(t.Calls(MatcherCall::kMatch));
    layers["mln.match_s"] = t.Seconds(MatcherCall::kMatch);
    layers["mln.conditioned_calls"] =
        static_cast<double>(t.Calls(MatcherCall::kConditioned));
    layers["mln.conditioned_s"] = t.Seconds(MatcherCall::kConditioned);
    layers["mln.entangled_s"] = t.Seconds(MatcherCall::kEntangled);
    layers["mln.score_delta_calls"] =
        static_cast<double>(t.Calls(MatcherCall::kScoreDelta));
    layers["mln.score_delta_s"] = t.Seconds(MatcherCall::kScoreDelta);
    layers["mln.score_delta_pass_ratio"] =
        Ratio(static_cast<double>(t.score_delta_passes),
              static_cast<double>(t.Calls(MatcherCall::kScoreDelta)));
    layers["mln.free_variables"] = static_cast<double>(measured_free_vars_);
    ReportOwnLayers(spans, layers);
  }

  /// Final matches and work counts of the current corpus, for the
  /// traced-vs-untraced check.
  virtual Work GetWork() const = 0;

  /// Pairwise F1 of the current corpus's final match set.
  double F1() const {
    return eval::ComputePr(*dataset_, core::TransitiveClosure(FinalMatches()))
        .f1;
  }

 protected:
  virtual Status SetupRest(Ledger& ledger) = 0;
  virtual void TeardownRest() = 0;
  /// Runs the measured phase; returns the corpus's write-job seconds (the
  /// fastest repetition).
  virtual double MeasureJob(Ledger& ledger, uint64_t phase_span, bool repeat,
                            double seconds) = 0;
  virtual const core::MatchSet& FinalMatches() const = 0;
  virtual void ReportOwn(Outcome& out) const = 0;
  virtual void ReportOwnLayers(const std::vector<Span>& spans,
                               LayerMap& layers) const = 0;

  /// TimedMatcher work during the last Measure.
  const MatcherTally& measured_tally() const { return measured_tally_; }

  /// Whether to run another repetition of a job whose runs so far took
  /// `runs`, given the phase started at `start_ns`: only if one more
  /// average run still fits in `seconds`.
  static bool AnotherRun(bool repeat, int64_t start_ns, double seconds,
                         const std::vector<double>& runs) {
    return repeat && SecondsSince(start_ns) + Mean(runs) <= seconds;
  }

  const Spec& spec_;
  const RunConfig& config_;
  ExecutionContext ctx_;
  std::unique_ptr<data::Dataset> dataset_;
  std::unique_ptr<mln::MlnMatcher> mln_;
  std::unique_ptr<TimedMatcher> timed_;
  /// mln_ or timed_.
  const core::ProbabilisticMatcher* matcher_ = nullptr;

 private:
  std::vector<double> corpus_job_s_;
  MatcherTally tally_at_begin_;
  MatcherTally measured_tally_;
  uint64_t free_vars_at_begin_ = 0;
  uint64_t measured_free_vars_ = 0;
};

/// mmp-hepth and grid-dblp: a batch cover, then message passing to its
/// fixpoint — sequential MMP (Algorithm 3) or round-parallel SMP on the grid.
class BatchWorkload final : public Workload {
 public:
  using Workload::Workload;

  void Check(std::vector<std::string>& failures) override {
    const core::MpResult smp = core::RunSmp(*mln_, cover_);
    if (grid() && !(grid_.matches == smp.matches)) {
      failures.push_back("RunGrid matches differ from sequential RunSmp");
    }
    if (!grid() && !smp.matches.IsSubsetOf(mp_.matches)) {
      failures.push_back("RunMmp matches do not contain RunSmp's");
    }
  }

  Work GetWork() const override {
    Work work;
    work.matches = FinalMatches();
    if (grid()) {
      work.counts = {{"rounds", grid_.rounds},
                     {"evaluations", grid_.neighborhood_evaluations}};
    } else {
      work.counts = {{"evaluations", mp_.neighborhood_evaluations},
                     {"matcher_calls", mp_.matcher_calls},
                     {"messages_created", mp_.messages_created},
                     {"messages_promoted", mp_.messages_promoted}};
    }
    return work;
  }

 protected:
  Status SetupRest(Ledger& ledger) override {
    blocking_ = {};
    ScopedSpan span(ledger, "blocking.cover");
    cover_ = blocking::LshCoverBuilder().Build(*dataset_, ctx_, &blocking_);
    return OkStatus();
  }

  void TeardownRest() override {
    cover_ = core::Cover();
    mp_ = {};
    grid_ = {};
  }

  double MeasureJob(Ledger& ledger, uint64_t, bool repeat,
                    double seconds) override {
    std::vector<double> runs;
    const int64_t start = NowNs();
    do {
      mp_ = {};
      grid_ = {};
      const int64_t t0 = NowNs();
      if (grid()) {
        core::GridOptions options;
        options.scheme = core::MpScheme::kSmp;
        options.num_machines = spec_.threads;
        options.context = &ctx_;
        ScopedSpan span(ledger, "core.grid");
        grid_ = core::RunGrid(*matcher_, cover_, options);
      } else {
        ScopedSpan span(ledger, "core.mmp");
        mp_ = core::RunMmp(*matcher_, cover_);
      }
      runs.push_back(SecondsSince(t0));
    } while (AnotherRun(repeat, start, seconds, runs));
    jobs_ += runs.size();
    return Min(runs);
  }

  const core::MatchSet& FinalMatches() const override {
    return grid() ? grid_.matches : mp_.matches;
  }

  void ReportOwn(Outcome& out) const override {
    out.workload.push_back({"jobs", static_cast<double>(jobs_), "count"});
    out.attempted += jobs_;
  }

  void ReportOwnLayers(const std::vector<Span>& spans,
                       LayerMap& layers) const override {
    layers["blocking.cover_s"] = SumSeconds(spans, "blocking.cover");
    layers["blocking.pairs_considered"] =
        static_cast<double>(blocking_.pairs_considered);
    ReportCoverShape(*dataset_, cover_, layers);
    double job_s = 0.0;
    double self_s = 0.0;
    for (const Span& s : spans) {
      if (std::string_view(s.name) != (grid() ? "core.grid" : "core.mmp")) {
        continue;
      }
      job_s += s.seconds();
      self_s += s.seconds() - static_cast<double>(s.matcher.busy_ns()) / 1e9;
    }
    const MatcherTally& t = measured_tally();
    const double evaluations = static_cast<double>(
        grid() ? grid_.neighborhood_evaluations : mp_.neighborhood_evaluations);
    layers["core.mp_self_s"] = self_s;
    layers["core.evaluations"] = evaluations;
    layers["core.useful_eval_ratio"] =
        Ratio(static_cast<double>(t.useful_matches), evaluations);
    layers["core.messages_created"] = static_cast<double>(mp_.messages_created);
    layers["core.messages_promoted"] =
        static_cast<double>(mp_.messages_promoted);
    layers["core.grid_rounds"] = static_cast<double>(grid_.rounds);
    layers["core.grid_busy_ratio"] =
        grid() ? Ratio(static_cast<double>(t.busy_ns()) / 1e9,
                       job_s * spec_.threads)
               : 0.0;
  }

 private:
  bool grid() const { return std::string_view(spec_.name) == "grid-dblp"; }

  core::Cover cover_;
  core::BlockingStats blocking_;
  core::MpResult mp_;
  core::GridResult grid_;
  uint64_t jobs_ = 0;
};

/// One lookup or preview the generators sent.
struct LookupSample {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
  bool live = false;
  uint64_t service_us = 0;
  obs::QueryTrace trace;
  /// TimedMatcher time inside the call (previews re-score with one Match).
  uint64_t matcher_ns = 0;
};

/// serve-dblp: serve::MatchService answering open-loop lookups while the
/// second half of the corpus streams in on a fixed schedule.
class ServeWorkload final : public Workload {
 public:
  using Workload::Workload;

  void Check(std::vector<std::string>& failures) override {
    if (!(streaming_->matches() ==
          core::RunSmp(*mln_, streaming_->cover()).matches)) {
      failures.push_back(
          "streamed matches differ from batch RunSmp over the streamed cover");
    }
    for (data::EntityId ref : holdouts_) {
      if (streaming_->is_live(ref)) {
        failures.push_back("a held-out preview reference became live");
        break;
      }
    }
    for (const LookupSample& s : previews_) {
      if (s.ok && s.live) {
        failures.push_back("a preview answered as a live reference");
        break;
      }
    }
  }

  Work GetWork() const override {
    Work work;
    work.matches = streaming_->matches();
    AddStreamCounts(streaming_->stats(), work);
    return work;
  }

 protected:
  Status SetupRest(Ledger& ledger) override {
    arrival_ = dataset_->author_refs();
    Rng(config_.seed ^ kArrivalSalt).Shuffle(arrival_);
    holdouts_.assign(arrival_.end() - kPreviewRefs, arrival_.end());
    arrival_.resize(arrival_.size() - kPreviewRefs);
    warm_ = arrival_.size() / 2;
    stream::StreamingOptions options;
    options.context = &ctx_;
    streaming_ = std::make_unique<stream::StreamingMatcher>(*matcher_, options);
    service_ = std::make_unique<serve::MatchService>(*streaming_);
    warm_chunks_ = 0;
    for (size_t start = 0; start < warm_; start += kServeChunk) {
      ScopedSpan span(ledger, "serve.ingest", warm_chunks_++);
      const Status status = service_->IngestBatch(
          Slice(arrival_, start, std::min(warm_, start + kServeChunk)));
      if (!status.ok()) return status;
    }
    return OkStatus();
  }

  void TeardownRest() override {
    service_.reset();
    streaming_.reset();
  }

  double MeasureJob(Ledger& ledger, uint64_t phase_span, bool,
                    double seconds) override {
    stats_before_ = streaming_->stats();
    const size_t streamed = arrival_.size() - warm_;
    const size_t chunks = (streamed + kServeChunk - 1) / kServeChunk;
    // A short lead lets the generator threads start before the first due
    // time.
    const Schedule schedule{
        NowNs() + 20'000'000,
        static_cast<int64_t>(seconds * 1e9 / static_cast<double>(chunks))};
    const int64_t end_ns = schedule.Due(chunks);
    corpus_lookups_.clear();
    corpus_previews_.clear();
    corpus_ingests_.clear();
    {
      std::jthread lookups([&] {
        Generate(ledger, phase_span, false, schedule.start_ns, end_ns,
                 corpus_lookups_);
      });
      std::jthread previews([&] {
        Generate(ledger, phase_span, true, schedule.start_ns, end_ns,
                 corpus_previews_);
      });
      for (size_t i = 0; i < chunks; ++i) {
        Ingest in;
        in.due_ns = schedule.Due(i);
        {
          ScopedSpan idle(ledger, "bench.idle");
          WaitUntil(in.due_ns);
        }
        in.start_ns = NowNs();
        {
          ScopedSpan span(ledger, "serve.ingest", warm_chunks_ + i);
          in.ok = service_
                      ->IngestBatch(Slice(arrival_, warm_ + i * kServeChunk,
                                          warm_ + (i + 1) * kServeChunk))
                      .ok();
        }
        in.end_ns = NowNs();
        corpus_ingests_.push_back(in);
      }
      ScopedSpan idle(ledger, "bench.idle");
      WaitUntil(end_ns);  // The generators' schedule ends here.
    }
    stats_after_ = streaming_->stats();
    ingests_.insert(ingests_.end(), corpus_ingests_.begin(),
                    corpus_ingests_.end());
    lookups_.insert(lookups_.end(), corpus_lookups_.begin(),
                    corpus_lookups_.end());
    previews_.insert(previews_.end(), corpus_previews_.begin(),
                     corpus_previews_.end());
    double busy = 0.0;
    for (const Ingest& in : corpus_ingests_) {
      busy += static_cast<double>(in.end_ns - in.start_ns) / 1e9;
    }
    return busy;
  }

  const core::MatchSet& FinalMatches() const override {
    return streaming_->matches();
  }

  void ReportOwn(Outcome& out) const override {
    std::vector<double> ingest_ms;
    for (const Ingest& in : ingests_) {
      ingest_ms.push_back(static_cast<double>(in.end_ns - in.due_ns) / 1e6);
    }
    std::vector<double> preview_ms = FromDueUs(previews_);
    for (double& v : preview_ms) v /= 1e3;
    out.workload.insert(
        out.workload.end(),
        {{"ingest_p50_ms", PercentileOf(ingest_ms, 0.5), "ms"},
         {"ingest_p90_ms", PercentileOf(ingest_ms, 0.9), "ms"},
         {"lookup_p50_us", PercentileOf(FromDueUs(lookups_), 0.5), "us"},
         {"lookup_p99_us", PercentileOf(FromDueUs(lookups_), 0.99), "us"},
         {"preview_p50_ms", PercentileOf(preview_ms, 0.5), "ms"},
         {"generator_late_us_p99", PercentileOf(LatenessUs(lookups_), 0.99),
          "us"},
         {"chunks", static_cast<double>(ingests_.size()), "count"},
         {"lookups", static_cast<double>(lookups_.size()), "count"},
         {"previews", static_cast<double>(previews_.size()), "count"}});
    for (const Ingest& in : ingests_) out.failed += in.ok ? 0 : 1;
    for (const auto* samples : {&lookups_, &previews_}) {
      for (const LookupSample& s : *samples) out.failed += s.ok ? 0 : 1;
    }
    out.attempted += ingests_.size() + lookups_.size() + previews_.size();
  }

  void ReportOwnLayers(const std::vector<Span>& spans,
                       LayerMap& layers) const override {
    layers["blocking.pairs_considered"] = static_cast<double>(
        stats_after_.ingest.lsh_candidates_scanned -
        stats_before_.ingest.lsh_candidates_scanned);
    ReportCoverShape(*dataset_, streaming_->cover(), layers);
    ReportChunkLayers(spans, "serve.ingest", warm_chunks_, stats_before_,
                      stats_after_, layers);

    std::vector<double> service, wait, probe, rank, cluster, preview_match;
    double probed = 0.0;
    for (const LookupSample& s : corpus_lookups_) {
      if (!s.ok) continue;
      service.push_back(static_cast<double>(s.service_us));
      wait.push_back(s.trace.signature_us);
      probe.push_back(s.trace.probe_us - s.trace.signature_us);
      rank.push_back(s.trace.rank_us - s.trace.probe_us);
      cluster.push_back(s.trace.cover_us - s.trace.rank_us);
      probed += static_cast<double>(s.trace.candidates_probed);
    }
    for (const LookupSample& s : corpus_previews_) {
      preview_match.push_back(static_cast<double>(s.matcher_ns) / 1e6);
    }
    std::vector<double> lag_ms;
    for (const Ingest& in : corpus_ingests_) {
      lag_ms.push_back(
          static_cast<double>(LatenessNs(in.due_ns, in.start_ns)) / 1e6);
    }
    std::vector<double> late_us = LatenessUs(corpus_lookups_);
    const std::vector<double> preview_late_us = LatenessUs(corpus_previews_);
    late_us.insert(late_us.end(), preview_late_us.begin(),
                   preview_late_us.end());
    layers["serve.service_us_p50"] = PercentileOf(service, 0.5);
    layers["serve.service_us_p99"] = PercentileOf(service, 0.99);
    layers["serve.wait_us_p50"] = PercentileOf(wait, 0.5);
    layers["serve.wait_us_p99"] = PercentileOf(wait, 0.99);
    layers["serve.probe_us_p50"] = PercentileOf(probe, 0.5);
    layers["serve.rank_us_p50"] = PercentileOf(rank, 0.5);
    layers["serve.cluster_us_p50"] = PercentileOf(cluster, 0.5);
    layers["serve.candidates_probed"] =
        Ratio(probed, static_cast<double>(service.size()));
    layers["serve.blocked_ratio"] = BlockedRatio();
    layers["serve.preview_match_ms_p50"] = PercentileOf(preview_match, 0.5);
    layers["serve.ingest_lag_ms_p90"] = PercentileOf(lag_ms, 0.9);
    layers["serve.generator_late_us_p99"] = PercentileOf(late_us, 0.99);
  }

 private:
  struct Ingest {
    int64_t due_ns = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    bool ok = false;
  };

  /// One open-loop generator: live lookups of a random live reference at
  /// kLookupsPerSecond, or previews of held-out references at
  /// kPreviewsPerSecond, from `start_ns` until `end_ns`.
  void Generate(Ledger& ledger, uint64_t phase_span, bool preview,
                int64_t start_ns, int64_t end_ns,
                std::vector<LookupSample>& out) const {
    ledger.Adopt(phase_span);
    ScopedSpan phase(ledger, preview ? "bench.previews" : "bench.lookups");
    Rng rng(config_.seed * 7919 + (preview ? 2 : 1));
    const double rate = preview ? kPreviewsPerSecond : kLookupsPerSecond;
    const Schedule schedule{start_ns, static_cast<int64_t>(1e9 / rate)};
    const uint64_t n = schedule.CountBefore(end_ns);
    out.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      LookupSample s;
      s.due_ns = schedule.Due(i);
      {
        ScopedSpan idle(ledger, "bench.idle");
        WaitUntil(s.due_ns);
      }
      s.send_ns = NowNs();
      // The published epoch counts the live prefix of the arrival order.
      const data::EntityId ref =
          preview ? holdouts_[i % holdouts_.size()]
                  : arrival_[rng.NextBounded(service_->epoch())];
      const MatcherTally before = ThreadTally();
      {
        ScopedSpan span(ledger, preview ? "serve.preview" : "serve.lookup");
        const Result<serve::QueryResult> answer = service_->Lookup({ref});
        s.done_ns = NowNs();
        s.ok = answer.ok();
        if (answer.ok()) {
          s.live = answer->live;
          s.service_us = answer->latency_us;
          s.trace = answer->trace;
          span.set_group(answer->trace.query_id);
        }
      }
      s.matcher_ns = (ThreadTally() - before).busy_ns();
      out.push_back(s);
    }
  }

  static std::vector<double> FromDueUs(const std::vector<LookupSample>& samples) {
    std::vector<double> us;
    for (const LookupSample& s : samples) {
      us.push_back(static_cast<double>(s.done_ns - s.due_ns) / 1e3);
    }
    return us;
  }

  static std::vector<double> LatenessUs(
      const std::vector<LookupSample>& samples) {
    std::vector<double> us;
    for (const LookupSample& s : samples) {
      us.push_back(static_cast<double>(LatenessNs(s.due_ns, s.send_ns)) / 1e3);
    }
    return us;
  }

  /// Share of the last corpus's live lookups that overlapped an ingest
  /// call between their due time and their answer — those due during a
  /// drain wait for it even when the generator sends them after it ends.
  double BlockedRatio() const {
    size_t blocked = 0;
    for (const LookupSample& s : corpus_lookups_) {
      // Ingests are in time order: find the first one ending after the
      // lookup was due.
      const auto it = std::partition_point(
          corpus_ingests_.begin(), corpus_ingests_.end(),
          [&](const Ingest& in) { return in.end_ns <= s.due_ns; });
      if (it != corpus_ingests_.end() && it->start_ns < s.done_ns) ++blocked;
    }
    return Ratio(static_cast<double>(blocked),
                 static_cast<double>(corpus_lookups_.size()));
  }

  std::vector<data::EntityId> arrival_;
  std::vector<data::EntityId> holdouts_;
  size_t warm_ = 0;
  uint64_t warm_chunks_ = 0;
  std::unique_ptr<stream::StreamingMatcher> streaming_;
  std::unique_ptr<serve::MatchService> service_;
  stream::StreamingStats stats_before_;
  stream::StreamingStats stats_after_;
  // The last corpus's samples, and every corpus's pooled.
  std::vector<Ingest> corpus_ingests_, ingests_;
  std::vector<LookupSample> corpus_lookups_, lookups_;
  std::vector<LookupSample> corpus_previews_, previews_;
};

/// durable-hepth: closed-loop backfill through the WAL with periodic
/// checkpoints, then the matcher is dropped and Recover() timed.
class DurableWorkload final : public Workload {
 public:
  using Workload::Workload;

  void Check(std::vector<std::string>& failures) override {
    failures.insert(failures.end(), cycle_failures_.begin(),
                    cycle_failures_.end());
    cycle_failures_.clear();
    CompareRecovered(failures);
  }

  Work GetWork() const override {
    Work work;
    if (recovered_ == nullptr || !recovered_->started()) return work;
    work.matches = recovered_->matcher().matches();
    AddStreamCounts(recovered_->matcher().stats(), work);
    work.counts.push_back({"chunks_replayed", info_.chunks_replayed});
    work.counts.push_back({"snapshot_inserts", info_.snapshot_inserts});
    return work;
  }

 protected:
  Status SetupRest(Ledger& ledger) override {
    arrival_ = dataset_->author_refs();
    Rng(config_.seed ^ kArrivalSalt).Shuffle(arrival_);
    return StartFresh(ledger);
  }

  void TeardownRest() override {
    recovered_.reset();
    psm_.reset();
  }

  double MeasureJob(Ledger& ledger, uint64_t, bool repeat,
                    double seconds) override {
    std::vector<double> backfills;
    const int64_t start = NowNs();
    do {
      if (!backfills.empty()) {
        // A repeated cycle starts from a fresh state directory; the previous
        // cycle's recovery is checked first.
        CompareRecovered(cycle_failures_);
        recovered_.reset();
        ++attempted_;
        if (!StartFresh(ledger).ok()) {
          ++failed_;
          break;
        }
      }
      backfills.push_back(RunCycle(ledger));
    } while (AnotherRun(repeat, start, seconds, backfills));
    return Min(backfills);
  }

  const core::MatchSet& FinalMatches() const override {
    return expected_matches_;
  }

  void ReportOwn(Outcome& out) const override {
    out.notes.push_back(PerCorpus("recover_s", recover_s_));
    out.workload.insert(
        out.workload.end(),
        {{"ingest_p50_ms", PercentileOf(ingest_ms_, 0.5), "ms"},
         {"ingest_p90_ms", PercentileOf(ingest_ms_, 0.9), "ms"},
         {"ingest_refs_per_s", Median(refs_per_s_), "1/s"},
         {"recover_s", Median(recover_s_), "s"},
         {"cycles", static_cast<double>(recover_s_.size()), "count"},
         {"chunks", static_cast<double>(ingest_ms_.size()), "count"}});
    out.attempted += attempted_;
    out.failed += failed_;
  }

  void ReportOwnLayers(const std::vector<Span>& spans,
                       LayerMap& layers) const override {
    layers["blocking.pairs_considered"] =
        static_cast<double>(expected_stats_.ingest.lsh_candidates_scanned);
    if (recovered_ != nullptr && recovered_->started()) {
      ReportCoverShape(*dataset_, recovered_->matcher().cover(), layers);
    }
    ReportChunkLayers(spans, "persist.add_batch", 0, {}, expected_stats_,
                      layers);
    layers["persist.checkpoint_ms_p50"] =
        PercentileOf(SelfMs(spans, "persist.checkpoint"), 0.5);
    layers["persist.recover_self_s"] =
        Mean(SelfMs(spans, "persist.recover")) / 1e3;
    layers["persist.replayed_chunks"] =
        static_cast<double>(info_.chunks_replayed);
    layers["persist.state_mb"] = static_cast<double>(state_bytes_) / 1e6;
  }

 private:
  stream::StreamingOptions StreamOptions() const {
    stream::StreamingOptions options;
    options.context = &ctx_;
    return options;
  }

  persist::PersistOptions PersistOptions() const {
    persist::PersistOptions options;
    options.dir = dir_;
    options.snapshot_every_inserts = 0;  // Checkpoints on the chunk cadence.
    return options;
  }

  /// A new persisted run in a fresh state directory.
  Status StartFresh(Ledger& ledger) {
    dir_ = config_.work_dir + "/durable-state-" +
           std::to_string(++dir_serial_);
    std::error_code ec;
    fs::remove_all(dir_, ec);
    psm_ = std::make_unique<persist::PersistentStreamingMatcher>(
        *matcher_, StreamOptions(), PersistOptions());
    ScopedSpan span(ledger, "persist.start");
    return psm_->Start();
  }

  /// Backfills the corpus, drops the matcher and recovers it; returns the
  /// backfill's seconds.
  double RunCycle(Ledger& ledger) {
    const size_t chunks = (arrival_.size() + kDurableChunk - 1) / kDurableChunk;
    const int64_t start = NowNs();
    // Closed loop: each chunk is due when the previous one was acknowledged,
    // so a checkpoint in between lands in the next chunk's latency.
    int64_t due = start;
    for (size_t c = 0; c < chunks; ++c) {
      Status status;
      {
        ScopedSpan span(ledger, "persist.add_batch", c);
        status = psm_->AddBatch(
            Slice(arrival_, c * kDurableChunk, (c + 1) * kDurableChunk));
      }
      const int64_t ack = NowNs();
      ingest_ms_.push_back(static_cast<double>(ack - due) / 1e6);
      due = ack;
      ++attempted_;
      failed_ += status.ok() ? 0 : 1;
      if ((c + 1) % kCheckpointEvery == 0 && c + 1 < chunks) {
        ScopedSpan span(ledger, "persist.checkpoint", c);
        ++attempted_;
        failed_ += psm_->Checkpoint().ok() ? 0 : 1;
      }
    }
    const double backfill_s = SecondsSince(start);
    refs_per_s_.push_back(Ratio(static_cast<double>(arrival_.size()), backfill_s));

    // Drop the matcher without a final checkpoint: recovery loads the last
    // snapshot and replays the WAL tail past it.
    expected_matches_ = psm_->matcher().matches();
    expected_cover_ = psm_->matcher().cover().neighborhoods();
    expected_stats_ = psm_->matcher().stats();
    {
      ScopedSpan span(ledger, "persist.drop");
      psm_.reset();
    }
    const int64_t recover_start = NowNs();
    Status status;
    {
      ScopedSpan span(ledger, "persist.recover");
      recovered_ = std::make_unique<persist::PersistentStreamingMatcher>(
          *matcher_, StreamOptions(), PersistOptions());
      info_ = {};
      status = recovered_->Recover(&info_);
    }
    recover_s_.push_back(SecondsSince(recover_start));
    ++attempted_;
    failed_ += status.ok() ? 0 : 1;
    state_bytes_ = TreeBytes(dir_);
    return backfill_s;
  }

  /// Appends a failure unless the recovered matcher equals the dropped one.
  void CompareRecovered(std::vector<std::string>& failures) const {
    if (recovered_ == nullptr || !recovered_->started()) {
      failures.push_back("recovery did not complete");
      return;
    }
    const stream::StreamingMatcher& m = recovered_->matcher();
    if (!(m.matches() == expected_matches_)) {
      failures.push_back("recovered matches differ from the dropped matcher's");
    }
    const std::vector<core::Neighborhood>& cover = m.cover().neighborhoods();
    const bool same_cover = std::equal(
        cover.begin(), cover.end(), expected_cover_.begin(),
        expected_cover_.end(),
        [](const core::Neighborhood& a, const core::Neighborhood& b) {
          return a.entities == b.entities;
        });
    if (!same_cover) {
      failures.push_back("recovered cover differs from the dropped matcher's");
    }
    if (!(m.stats() == expected_stats_)) {
      failures.push_back("recovered stats() differ from the dropped matcher's");
    }
  }

  std::vector<data::EntityId> arrival_;
  std::string dir_;
  uint64_t dir_serial_ = 0;
  std::unique_ptr<persist::PersistentStreamingMatcher> psm_;
  std::unique_ptr<persist::PersistentStreamingMatcher> recovered_;
  persist::RecoveryInfo info_;
  core::MatchSet expected_matches_;
  std::vector<core::Neighborhood> expected_cover_;
  stream::StreamingStats expected_stats_;
  // Pooled over every cycle of every corpus.
  std::vector<double> refs_per_s_;
  std::vector<double> recover_s_;
  std::vector<double> ingest_ms_;
  std::vector<std::string> cycle_failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t state_bytes_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const Spec& spec,
                                       const RunConfig& config) {
  const std::string_view name(spec.name);
  if (name == "serve-dblp") return std::make_unique<ServeWorkload>(spec, config);
  if (name == "durable-hepth") {
    return std::make_unique<DurableWorkload>(spec, config);
  }
  return std::make_unique<BatchWorkload>(spec, config);
}

/// Appends a failure per work count (and the match set) that differs
/// between the untraced and the traced pass.
void CompareWork(const Work& untraced, const Work& traced,
                 std::vector<std::string>& failures) {
  if (!(untraced.matches == traced.matches)) {
    failures.push_back("traced run's matches differ from the untraced run's");
  }
  if (untraced.counts.size() != traced.counts.size()) {
    failures.push_back("traced run reports different work counts");
    return;
  }
  for (size_t i = 0; i < untraced.counts.size(); ++i) {
    if (untraced.counts[i] != traced.counts[i]) {
      failures.push_back("traced run's " + untraced.counts[i].first +
                         " differs from the untraced run's");
    }
  }
}

/// Each corpus in turn: set up (timed), measure, check. The run's seconds
/// are split evenly between the corpora's measured phases, and each metric
/// is the median over corpora.
Result<Outcome> RunUntraced(const Spec& spec, const RunConfig& config) {
  Outcome out;
  Ledger off(/*enabled=*/false);
  const std::unique_ptr<Workload> w = MakeWorkload(spec, config);
  std::vector<double> setups;
  std::vector<double> f1s;
  double peak_rss_mb = 0.0;
  for (int i = 0; i < spec.corpora; ++i) {
    std::vector<double> corpus_setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      w->Teardown();
      const int64_t start = NowNs();
      CEM_RETURN_IF_ERROR(
          w->Setup(off, /*decorate=*/false, CorpusPath(config.corpus_dir, i)));
      corpus_setups.push_back(SecondsSince(start));
    }
    setups.push_back(Min(corpus_setups));
    w->Measure(off, 0, /*repeat=*/true, config.seconds / spec.corpora);
    // Read before this corpus's checks; earlier corpora's are included.
    peak_rss_mb = PeakRssMb();
    w->Check(out.failures);
    f1s.push_back(w->F1());
  }
  w->Report(out);
  out.notes.insert(out.notes.begin(), PerCorpus("setup_s", setups));
  out.end_to_end = {{"setup_s", Median(setups), "s"},
                    {"job_s", w->JobSeconds(), "s"},
                    {"f1", Mean(f1s), "ratio"},
                    {"peak_rss_mb", peak_rss_mb, "MB"}};
  return out;
}

/// The first corpus twice: untraced (repeated like an untraced run, so its
/// median is warm), then once traced with the TimedMatcher and the span
/// ledger; both must do the same work.
Result<Outcome> RunTraced(const Spec& spec, const RunConfig& config) {
  Outcome out;
  const std::string corpus = CorpusPath(config.corpus_dir, 0);
  const double seconds = config.seconds / spec.corpora;
  Work untraced_work;
  double untraced_job_s = 0.0;
  {
    Ledger off(/*enabled=*/false);
    const std::unique_ptr<Workload> a = MakeWorkload(spec, config);
    CEM_RETURN_IF_ERROR(a->Setup(off, /*decorate=*/false, corpus));
    a->Measure(off, 0, /*repeat=*/true, seconds);
    a->Check(out.failures);
    untraced_work = a->GetWork();
    untraced_job_s = a->LastJobSeconds();
  }
  Ledger ledger(/*enabled=*/true);
  const std::unique_ptr<Workload> b = MakeWorkload(spec, config);
  {
    ScopedSpan phase(ledger, "bench.setup");
    CEM_RETURN_IF_ERROR(b->Setup(ledger, /*decorate=*/true, corpus));
  }
  {
    ScopedSpan phase(ledger, "bench.measure");
    b->Measure(ledger, phase.id(), /*repeat=*/false, seconds);
  }
  b->Check(out.failures);
  CompareWork(untraced_work, b->GetWork(), out.failures);
  Outcome traced_report;
  b->Report(traced_report);
  out.attempted = traced_report.attempted;
  out.failed = traced_report.failed;

  const std::vector<Span> spans = ledger.Spans();
  const double coverage = LayerCoverage(spans);
  if (coverage < kMinCoverage) {
    out.failures.push_back("layer spans cover only " +
                           std::to_string(coverage) +
                           " of the traced run's working time");
  }
  LayerMap layers;
  b->ReportLayers(spans, layers);
  layers["obs.trace_overhead"] =
      Ratio(b->LastJobSeconds() - untraced_job_s, untraced_job_s);
  layers["obs.coverage"] = coverage;
  for (const LayerMetricDef& def : kLayerMetrics) {
    const auto it = layers.find(def.name);
    out.layers.push_back(
        {def.name, it == layers.end() ? 0.0 : it->second, def.unit});
  }
  if (!ledger.WriteJson(config.work_dir + "/spans.json")) {
    out.failures.push_back("could not write the span dump");
  }
  return out;
}

}  // namespace

uint32_t WorkloadThreads(const std::string& workload) {
  const Spec* spec = FindSpec(workload);
  return spec == nullptr ? 0 : spec->threads;
}

Status GenerateCorpora(const std::string& workload, uint64_t seed,
                       const std::string& dir) {
  const Spec* spec = FindSpec(workload);
  if (spec == nullptr) return InvalidArgumentError("unknown workload " + workload);
  const ExecutionContext ctx(spec->threads, kShards);
  for (int i = 0; i < spec->corpora; ++i) {
    data::BibConfig config = spec->hepth
                                 ? data::BibConfig::HepthLike(spec->scale)
                                 : data::BibConfig::DblpLike(spec->scale);
    config.seed = seed * 1000 + static_cast<uint64_t>(i);
    const std::unique_ptr<data::Dataset> dataset =
        data::GenerateBibDataset(config, {}, ctx);
    CEM_RETURN_IF_ERROR(data::SaveDatasetTsv(*dataset, CorpusPath(dir, i)));
  }
  return OkStatus();
}

Result<Outcome> RunWorkload(const RunConfig& config) {
  const Spec* spec = FindSpec(config.workload);
  if (spec == nullptr) {
    return InvalidArgumentError("unknown workload " + config.workload);
  }
  return config.trace ? RunTraced(*spec, config) : RunUntraced(*spec, config);
}

}  // namespace perfbench
