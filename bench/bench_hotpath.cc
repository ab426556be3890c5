// Hot-path microbench: the per-record tokenise -> MinHash -> score chain,
// legacy layout vs the arena/SIMD overhaul, plus the per-neighborhood MMP
// loop.
//
// Four tables, one per pipeline stage, each comparing the historical
// implementation (heap token strings, per-call scalar loops, a copy of M+
// per hypothesis — replicated inline below so the baseline survives the
// refactor it measures) against the current hot path:
//  * tokenize — AuthorBlockingTokens string vectors vs arena emission
//    (tokens/s);
//  * minhash  — legacy per-token scalar loop vs the batched kernel at
//    kScalar and (when the CPU has it) kAvx2 (signatures/s, speedup);
//  * scores   — set-based vs merge-based Jaccard, per-call-allocating vs
//    scratch-reusing Jaro-Winkler, scalar vs SIMD EstimateJaccard
//    (scores/s);
//  * mmp      — sequential MMP (Algorithm 3) with the historical
//    COMPUTEMAXIMAL (one copy of M+ per hypothesis) and full-sweep step 7
//    vs core::RunMmp, same MLN matcher (seconds per run, speedup).
//
// Every comparison CEM_CHECKs bit-identical results before it reports a
// speedup — the overhaul's contract is "same answer, faster"; for MMP that
// covers the match set and every work counter. All stages
// run single-threaded (ExecutionContext(1, 1)): the speedups reported here
// are per-core layout/ISA wins, not parallelism.
//
// Counter determinism: the workload size is a pure function of
// CEM_BENCH_SCALE, every kernel level is requested explicitly (never via
// CEM_SIMD), and a host without AVX2 replays the AVX2 slot at kScalar for
// counter parity — so the folded-in counter_* values are a pure function
// of the scale and gate via bench_diff on any host. The MMP corpus is built
// with canopy blocking explicitly (never via CEM_BLOCKING), and its
// counter_mmp_* / counter_mln_* values pin the work message passing does.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "blocking/blocking_tokens.h"
#include "blocking/minhash.h"
#include "blocking/minhash_simd.h"
#include "core/cover.h"
#include "core/match_set.h"
#include "core/matcher.h"
#include "core/maximal_message.h"
#include "core/message_passing.h"
#include "core/neighbor_index.h"
#include "data/entity.h"
#include "eval/experiment.h"
#include "graph/connected_components.h"
#include "mln/mln_matcher.h"
#include "text/jaccard.h"
#include "text/jaro_winkler.h"
#include "text/token_arena.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace cem;

// --- inline replicas of the pre-overhaul implementations -------------------

/// The historical MinHasher::Signature inner loop (heap strings, per-token
/// re-walk, scalar min), verbatim from the pre-refactor minhash.cc.
std::vector<uint64_t> LegacySignature(const std::vector<std::string>& tokens,
                                      const std::vector<uint64_t>& salts) {
  std::vector<uint64_t> signature(salts.size(),
                                  blocking::MinHasher::kEmptySlot);
  for (const std::string& token : tokens) {
    uint64_t base = 0xcbf29ce484222325ULL;
    for (unsigned char c : token) {
      base ^= c;
      base *= 0x100000001b3ULL;
    }
    for (size_t i = 0; i < salts.size(); ++i) {
      const uint64_t h = Mix64(base ^ salts[i]);
      if (h < signature[i]) signature[i] = h;
    }
  }
  return signature;
}

/// The historical std::set-based JaccardSimilarity.
double LegacyJaccard(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  std::set<std::string> sa(a.begin(), a.end());
  std::set<std::string> sb(b.begin(), b.end());
  if (sa.empty() && sb.empty()) return 1.0;
  size_t intersection = 0;
  for (const std::string& t : sa) intersection += sb.count(t);
  const size_t uni = sa.size() + sb.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

/// The historical JaroSimilarity with its two per-call vector<bool> heap
/// allocations.
double LegacyJaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  const size_t len_a = a.size();
  const size_t len_b = b.size();
  const size_t window =
      std::max(len_a, len_b) / 2 == 0 ? 0 : std::max(len_a, len_b) / 2 - 1;
  std::vector<bool> matched_a(len_a, false);
  std::vector<bool> matched_b(len_b, false);
  size_t matches = 0;
  for (size_t i = 0; i < len_a; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(len_b, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (matched_b[j] || a[i] != b[j]) continue;
      matched_a[i] = true;
      matched_b[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < len_a; ++i) {
    if (!matched_a[i]) continue;
    while (!matched_b[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / len_a + m / len_b + (m - transpositions / 2.0) / m) / 3.0;
}

/// The historical COMPUTEMAXIMAL (Algorithm 2), verbatim from the
/// pre-refactor maximal_message.cc: every hypothesis copies all of M+.
std::vector<core::MaximalMessage> LegacyComputeMaximal(
    const core::Matcher& matcher, const std::vector<data::EntityId>& entities,
    const core::MatchSet& evidence, const core::MatchSet& base) {
  const std::vector<data::EntityPair> hypotheses =
      matcher.EntangledPairs(entities, evidence, base);
  std::vector<core::MatchSet> entailed(hypotheses.size());
  for (size_t i = 0; i < hypotheses.size(); ++i) {
    core::MatchSet with_p = evidence;
    with_p.Insert(hypotheses[i]);
    entailed[i] = matcher.MatchConditioned(entities, with_p, core::MatchSet());
  }
  std::unordered_map<uint64_t, uint32_t> position;
  for (uint32_t i = 0; i < hypotheses.size(); ++i) {
    position.emplace(data::PairKey(hypotheses[i]), i);
  }
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 0; i < hypotheses.size(); ++i) {
    for (uint64_t key : entailed[i].keys()) {
      auto it = position.find(key);
      if (it == position.end() || it->second <= i) continue;
      const uint32_t j = it->second;
      if (entailed[j].Contains(hypotheses[i])) edges.emplace_back(i, j);
    }
  }
  std::vector<core::MaximalMessage> out;
  for (const auto& component : graph::ConnectedComponents(
           static_cast<uint32_t>(hypotheses.size()), edges)) {
    if (component.size() < 2) continue;
    core::MaximalMessage message;
    for (uint32_t idx : component) message.push_back(hypotheses[idx]);
    out.push_back(std::move(message));
  }
  return out;
}

/// The historical sequential MMP driver (Algorithm 3), verbatim from the
/// pre-refactor message_passing.cc: a FIFO active set with set semantics,
/// LegacyComputeMaximal per evaluation, and a step 7 that re-scans all of
/// M+ for intersecting messages and re-tests every live message until
/// fixpoint.
core::MpResult LegacyRunMmp(const core::ProbabilisticMatcher& matcher,
                            const core::Cover& cover) {
  constexpr double kScoreEps = 1e-9;
  core::MpResult result;
  core::NeighborIndex index(cover);
  std::deque<uint32_t> queue;
  std::vector<bool> queued(cover.size(), false);
  const auto push = [&](uint32_t id) {
    if (!queued[id]) {
      queued[id] = true;
      queue.push_back(id);
    }
  };
  for (uint32_t id = 0; id < cover.size(); ++id) push(id);
  const size_t k = cover.MaxNeighborhoodSize();
  const size_t cap = cover.size() * std::max<size_t>(k * k, 16) + 64;

  core::MatchSet& matched = result.matches;
  core::MaximalMessageSet messages;
  const auto promote = [&](uint32_t id,
                           std::vector<data::EntityPair>& new_matches) {
    for (const data::EntityPair& p : messages.Message(id)) {
      if (matched.Insert(p)) new_matches.push_back(p);
    }
    messages.RemoveMessage(id);
    ++result.messages_promoted;
  };
  while (!queue.empty() && result.neighborhood_evaluations < cap) {
    const uint32_t c = queue.front();
    queue.pop_front();
    queued[c] = false;
    ++result.neighborhood_evaluations;
    const std::vector<data::EntityId>& entities =
        cover.neighborhood(c).entities;
    const core::MatchSet mc = matcher.Match(entities, matched);
    const std::vector<core::MaximalMessage> tc =
        LegacyComputeMaximal(matcher, entities, matched, mc);
    result.matcher_calls += 2;
    result.messages_created += tc.size();

    std::vector<data::EntityPair> new_matches = mc.Difference(matched);
    matched.InsertAll(mc);
    for (const core::MaximalMessage& m : tc) messages.Insert(m);

    bool promoted = true;
    while (promoted) {
      promoted = false;
      std::vector<uint32_t> intersecting;
      for (uint32_t id : messages.LiveIds()) {
        for (const data::EntityPair& p : messages.Message(id)) {
          if (matched.Contains(p)) {
            intersecting.push_back(id);
            break;
          }
        }
      }
      for (uint32_t id : intersecting) {
        promote(id, new_matches);
        promoted = true;
      }
      for (uint32_t id : messages.LiveIds()) {
        if (matcher.ScoreDelta(matched, messages.Message(id)) >= -kScoreEps) {
          promote(id, new_matches);
          promoted = true;
        }
      }
    }

    for (uint32_t affected : index.AffectedBy(new_matches)) {
      if (affected != c) push(affected);
    }
  }
  return result;
}

// --- synthetic workload -----------------------------------------------------

/// Author-reference-shaped entities with Zipf name popularity, so token
/// sets collide the way real references do.
std::vector<data::Entity> MakeEntities(size_t n, Rng& rng) {
  static const char* const kLast[] = {
      "smith", "johnson", "rastogi", "dalvi", "garofalakis", "chen",
      "gupta", "nakamura", "ivanov", "okafor", "muller", "kowalski"};
  static const char* const kFirst[] = {"alice", "bob", "carol", "dmitri",
                                       "eve",   "fumi", "grace", "hugo"};
  std::vector<data::Entity> entities(n);
  for (size_t i = 0; i < n; ++i) {
    data::Entity& e = entities[i];
    e.type = data::EntityType::kAuthorRef;
    e.last_name = kLast[rng.NextZipf(std::size(kLast), 1.1)];
    // Suffix some names so the token space is larger than the base list.
    if (rng.NextBernoulli(0.4)) {
      e.last_name += static_cast<char>('a' + rng.NextBounded(26));
      e.last_name += static_cast<char>('a' + rng.NextBounded(26));
    }
    e.first_name = kFirst[rng.NextBounded(std::size(kFirst))];
    if (rng.NextBernoulli(0.3)) e.first_name = e.first_name.substr(0, 1);
  }
  return entities;
}

double PerSecond(double count, double seconds) {
  return count / std::max(seconds, 1e-9);
}

/// Runs `fn` once untimed (warm-up: heap growth, first-touch page faults),
/// then `reps` timed passes, and returns the BEST single-pass time. On a
/// shared/noisy host the minimum is the standard robust estimator of the
/// true cost — scheduler preemption only ever adds time, so the fastest
/// observed pass is the closest to undisturbed execution for both the
/// legacy and the batched side.
template <typename Fn>
double TimeBest(int reps, const Fn& fn) {
  fn();
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int main() {
  const double scale = bench::Begin(
      "bench_hotpath — arena layout + SIMD kernels vs legacy scalar",
      "the per-record hot path (tokenise, MinHash, score) is memory-layout "
      "and ISA bound, not algorithm bound: a flat arena corpus with batched "
      "bit-identical SIMD kernels gives integer-factor per-core speedups "
      "with zero change in output; MMP's per-neighborhood loop is measured "
      "against its legacy driver the same way");
  bench::JsonReport report("bench_hotpath");

  // Single-threaded on purpose: per-core wins only (see header comment).
  ExecutionContext ctx(/*num_threads=*/1, /*num_shards=*/1);
  const size_t num_docs =
      std::max<size_t>(512, static_cast<size_t>(30000 * scale));
  Rng rng(0x5eedc0ffee123ULL);
  const std::vector<data::Entity> entities = MakeEntities(num_docs, rng);
  std::printf("Hot-path corpus: %zu synthetic author refs\n", num_docs);
  std::printf("SIMD: active=%s, avx2 kernels %s\n\n",
              blocking::SimdLevelName(blocking::ActiveSimdLevel()),
              blocking::SimdLevelSupported(blocking::SimdLevel::kAvx2)
                  ? "supported"
                  : "unsupported");

  // --- tokenize -------------------------------------------------------------
  // The legacy side is the full historical tokenise path: AuthorBlockingTokens
  // heap vectors plus the per-document sort+unique normalisation that
  // TokenIndex::AddDocument applied to every token set. The arena corpus
  // does the same normalisation (and additionally FNV-hashes every token
  // once) at build time.
  constexpr int kTokenizeReps = 5;
  std::vector<std::vector<std::string>> legacy_tokens;
  const double legacy_tokenize_s = TimeBest(kTokenizeReps, [&] {
    legacy_tokens.assign(num_docs, {});
    for (size_t i = 0; i < num_docs; ++i) {
      legacy_tokens[i] = blocking::AuthorBlockingTokens(entities[i]);
      std::vector<std::string>& tokens = legacy_tokens[i];
      std::sort(tokens.begin(), tokens.end());
      tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    }
  });

  text::TokenCorpus corpus;
  const double arena_tokenize_s = TimeBest(kTokenizeReps, [&] {
    corpus = text::TokenCorpus::Build(
        num_docs,
        [&](size_t i, text::TokenCorpus::DocBuilder& builder) {
          blocking::AppendAuthorBlockingTokens(entities[i], builder);
        },
        ctx);
  });

  size_t legacy_token_count = 0;
  for (const auto& tokens : legacy_tokens) legacy_token_count += tokens.size();
  TableWriter tokenize({"layout", "tokens", "tokens/s", "speedup"});
  tokenize.AddRow({"legacy string vectors",
                   std::to_string(legacy_token_count),
                   TableWriter::Num(
                       PerSecond(legacy_token_count, legacy_tokenize_s), 0),
                   "1.00"});
  tokenize.AddRow({"arena corpus", std::to_string(corpus.num_tokens()),
                   TableWriter::Num(
                       PerSecond(legacy_token_count, arena_tokenize_s), 0),
                   TableWriter::Num(legacy_tokenize_s / arena_tokenize_s, 2)});
  report.Table("tokenize", tokenize);
  report.Metric("tokens_emitted", static_cast<double>(corpus.num_tokens()));

  // --- minhash --------------------------------------------------------------
  const blocking::MinHasher hasher;
  constexpr int kMinHashReps = 5;

  std::vector<std::vector<uint64_t>> legacy_sigs(num_docs);
  const double legacy_minhash_s = TimeBest(kMinHashReps, [&] {
    for (size_t i = 0; i < num_docs; ++i) {
      legacy_sigs[i] = LegacySignature(legacy_tokens[i], hasher.salts());
    }
  });

  blocking::SignatureMatrix scalar_sigs;
  const double scalar_minhash_s = TimeBest(kMinHashReps, [&] {
    scalar_sigs = blocking::ComputeSignatures(hasher, corpus, ctx,
                                              blocking::SimdLevel::kScalar);
  });

  const bool has_avx2 =
      blocking::SimdLevelSupported(blocking::SimdLevel::kAvx2);
  double avx2_minhash_s = 0;
  blocking::SignatureMatrix avx2_sigs;
  if (has_avx2) {
    avx2_minhash_s = TimeBest(kMinHashReps, [&] {
      avx2_sigs = blocking::ComputeSignatures(hasher, corpus, ctx,
                                              blocking::SimdLevel::kAvx2);
    });
  } else {
    // Counter parity: the blessed counter baseline expects both kernel
    // variants to have run. Replaying the AVX2 slot at kScalar (same call
    // count as TimeBest: one warm-up plus kMinHashReps) keeps
    // blocking_simd_batches a pure function of the workload, so one
    // committed baseline gates every host.
    for (int rep = 0; rep < kMinHashReps + 1; ++rep) {
      blocking::ComputeSignatures(hasher, corpus, ctx,
                                  blocking::SimdLevel::kScalar);
    }
  }

  // Bit-identity gate: every layout/ISA variant must produce the legacy
  // signature exactly (token dedup in the corpus is invisible to MinHash).
  for (size_t i = 0; i < num_docs; ++i) {
    CEM_CHECK(std::memcmp(legacy_sigs[i].data(), scalar_sigs.row(i),
                          hasher.num_hashes() * sizeof(uint64_t)) == 0)
        << "scalar kernel diverged from the legacy signature at doc " << i;
    if (has_avx2) {
      CEM_CHECK(std::memcmp(legacy_sigs[i].data(), avx2_sigs.row(i),
                            hasher.num_hashes() * sizeof(uint64_t)) == 0)
          << "AVX2 kernel diverged from the legacy signature at doc " << i;
    }
  }

  TableWriter minhash({"kernel", "signatures/s", "speedup vs legacy"});
  minhash.AddRow({"legacy per-token scalar",
                  TableWriter::Num(PerSecond(num_docs, legacy_minhash_s), 0),
                  "1.00"});
  minhash.AddRow({"batched scalar",
                  TableWriter::Num(PerSecond(num_docs, scalar_minhash_s), 0),
                  TableWriter::Num(legacy_minhash_s / scalar_minhash_s, 2)});
  if (has_avx2) {
    minhash.AddRow({"batched avx2",
                    TableWriter::Num(PerSecond(num_docs, avx2_minhash_s), 0),
                    TableWriter::Num(legacy_minhash_s / avx2_minhash_s, 2)});
  }
  report.Table("minhash", minhash);
  report.Metric("speedup_minhash_scalar",
                legacy_minhash_s / scalar_minhash_s);
  if (has_avx2) {
    report.Metric("speedup_minhash_avx2", legacy_minhash_s / avx2_minhash_s);
  }

  // --- scores ---------------------------------------------------------------
  // Deterministic candidate-ish pairs: stride pairs keep some overlap.
  const size_t num_pairs = std::min<size_t>(num_docs, 20000);
  const auto pair_of = [&](size_t p) {
    return std::pair<size_t, size_t>{p % num_docs, (p * 7 + 1) % num_docs};
  };

  constexpr int kScoreReps = 5;
  double legacy_jaccard_sum = 0;
  const double legacy_jaccard_s = TimeBest(kScoreReps, [&] {
    legacy_jaccard_sum = 0;
    for (size_t p = 0; p < num_pairs; ++p) {
      const auto [a, b] = pair_of(p);
      legacy_jaccard_sum += LegacyJaccard(legacy_tokens[a], legacy_tokens[b]);
    }
  });

  double merge_jaccard_sum = 0;
  const double merge_jaccard_s = TimeBest(kScoreReps, [&] {
    merge_jaccard_sum = 0;
    for (size_t p = 0; p < num_pairs; ++p) {
      const auto [a, b] = pair_of(p);
      merge_jaccard_sum += text::HashedJaccard(corpus.doc(a), corpus.doc(b));
    }
  });
  CEM_CHECK(legacy_jaccard_sum == merge_jaccard_sum)
      << "merge Jaccard diverged from the set-based result";

  size_t estimate_agree = 0;
  const double estimate_scalar_s = TimeBest(kScoreReps, [&] {
    estimate_agree = 0;
    for (size_t p = 0; p < num_pairs; ++p) {
      const auto [a, b] = pair_of(p);
      estimate_agree += blocking::simd::CountEqual(
          scalar_sigs.row(a), scalar_sigs.row(b), hasher.num_hashes(),
          blocking::SimdLevel::kScalar);
    }
  });

  double estimate_avx2_s = 0;
  if (has_avx2) {
    size_t avx2_agree = 0;
    estimate_avx2_s = TimeBest(kScoreReps, [&] {
      avx2_agree = 0;
      for (size_t p = 0; p < num_pairs; ++p) {
        const auto [a, b] = pair_of(p);
        avx2_agree += blocking::simd::CountEqual(
            scalar_sigs.row(a), scalar_sigs.row(b), hasher.num_hashes(),
            blocking::SimdLevel::kAvx2);
      }
    });
    CEM_CHECK(avx2_agree == estimate_agree)
        << "AVX2 CountEqual diverged from scalar";
  }

  double legacy_jw_sum = 0;
  const double legacy_jw_s = TimeBest(kScoreReps, [&] {
    legacy_jw_sum = 0;
    for (size_t p = 0; p < num_pairs; ++p) {
      const auto [a, b] = pair_of(p);
      legacy_jw_sum += LegacyJaro(entities[a].last_name,
                                  entities[b].last_name);
    }
  });

  double scratch_jw_sum = 0;
  const double scratch_jw_s = TimeBest(kScoreReps, [&] {
    scratch_jw_sum = 0;
    for (size_t p = 0; p < num_pairs; ++p) {
      const auto [a, b] = pair_of(p);
      scratch_jw_sum += text::JaroSimilarity(entities[a].last_name,
                                             entities[b].last_name);
    }
  });
  CEM_CHECK(legacy_jw_sum == scratch_jw_sum)
      << "scratch-reusing Jaro diverged from the allocating version";

  TableWriter scores({"scorer", "scores/s", "speedup"});
  scores.AddRow({"jaccard: std::set",
                 TableWriter::Num(PerSecond(num_pairs, legacy_jaccard_s), 0),
                 "1.00"});
  scores.AddRow({"jaccard: arena merge",
                 TableWriter::Num(PerSecond(num_pairs, merge_jaccard_s), 0),
                 TableWriter::Num(legacy_jaccard_s / merge_jaccard_s, 2)});
  scores.AddRow({"estimate: scalar",
                 TableWriter::Num(PerSecond(num_pairs, estimate_scalar_s), 0),
                 "1.00"});
  if (has_avx2) {
    scores.AddRow({"estimate: avx2",
                   TableWriter::Num(PerSecond(num_pairs, estimate_avx2_s), 0),
                   TableWriter::Num(estimate_scalar_s / estimate_avx2_s, 2)});
  }
  scores.AddRow({"jaro: per-call alloc",
                 TableWriter::Num(PerSecond(num_pairs, legacy_jw_s), 0),
                 "1.00"});
  scores.AddRow({"jaro: scratch reuse",
                 TableWriter::Num(PerSecond(num_pairs, scratch_jw_s), 0),
                 TableWriter::Num(legacy_jw_s / scratch_jw_s, 2)});
  report.Table("scores", scores);
  report.Metric("speedup_jaccard_merge", legacy_jaccard_s / merge_jaccard_s);

  // --- mmp ------------------------------------------------------------------
  // Sequential MMP on a HEPTH-like corpus (large, ambiguous neighborhoods:
  // many hypotheses per evaluation and many live messages). Both drivers
  // share one MLN matcher; its run counters are reset before every pass, so
  // after TimeBest they describe the last pass of each driver.
  constexpr int kMmpReps = 3;
  const eval::Workload hepth = eval::MakeHepthWorkload(
      std::max(0.3, scale), core::BlockingStrategy::kCanopy, ctx);
  const mln::MlnMatcher mln_matcher(*hepth.dataset);
  core::MpResult legacy_mmp;
  uint64_t legacy_runs = 0;
  uint64_t legacy_free_vars = 0;
  const double legacy_mmp_s = TimeBest(kMmpReps, [&] {
    mln_matcher.ResetCounters();
    legacy_mmp = LegacyRunMmp(mln_matcher, hepth.cover);
    legacy_runs = mln_matcher.num_runs();
    legacy_free_vars = mln_matcher.total_free_variables();
  });
  core::MpResult mmp;
  const double mmp_s = TimeBest(kMmpReps, [&] {
    mln_matcher.ResetCounters();
    mmp = core::RunMmp(mln_matcher, hepth.cover);
  });
  CEM_CHECK(mmp.matches == legacy_mmp.matches)
      << "RunMmp diverged from the legacy driver's matches";
  CEM_CHECK(mmp.neighborhood_evaluations ==
                legacy_mmp.neighborhood_evaluations &&
            mmp.messages_created == legacy_mmp.messages_created &&
            mmp.messages_promoted == legacy_mmp.messages_promoted)
      << "RunMmp diverged from the legacy driver's work counters";
  CEM_CHECK(mln_matcher.num_runs() == legacy_runs &&
            mln_matcher.total_free_variables() == legacy_free_vars)
      << "RunMmp diverged from the legacy driver's matcher work";

  TableWriter mmp_table({"driver", "evaluations", "messages", "promoted",
                         "matches", "s/run", "speedup"});
  const auto mmp_row = [&](const std::string& name, const core::MpResult& r,
                           double seconds) {
    mmp_table.AddRow({name, std::to_string(r.neighborhood_evaluations),
                      std::to_string(r.messages_created),
                      std::to_string(r.messages_promoted),
                      std::to_string(r.matches.size()),
                      TableWriter::Num(seconds, 4),
                      TableWriter::Num(legacy_mmp_s / seconds, 2)});
  };
  std::printf("\nMMP corpus: %zu entities, %zu candidate pairs, %zu "
              "neighborhoods\n",
              hepth.dataset->num_entities(),
              hepth.dataset->candidate_pairs().size(), hepth.cover.size());
  mmp_row("legacy: M+ copy per hypothesis", legacy_mmp, legacy_mmp_s);
  mmp_row("RunMmp", mmp, mmp_s);
  report.Table("mmp", mmp_table);
  report.Metric("speedup_mmp", legacy_mmp_s / mmp_s);
  report.Metric("counter_mmp_evaluations",
                static_cast<double>(mmp.neighborhood_evaluations));
  report.Metric("counter_mmp_messages_created",
                static_cast<double>(mmp.messages_created));
  report.Metric("counter_mmp_messages_promoted",
                static_cast<double>(mmp.messages_promoted));
  report.Metric("counter_mmp_matches",
                static_cast<double>(mmp.matches.size()));
  report.Metric("counter_mln_runs",
                static_cast<double>(mln_matcher.num_runs()));
  report.Metric("counter_mln_free_variables",
                static_cast<double>(mln_matcher.total_free_variables()));

  std::printf(
      "\nNote: every row above was checked bit-identical to the legacy\n"
      "implementation before timing was reported; the speedups are pure\n"
      "layout + ISA wins with zero output change.\n");
  report.Write();
  return 0;
}
