// Hot-path microbench: the per-record tokenise -> MinHash -> score chain,
// legacy layout vs the arena/SIMD overhaul, plus the per-neighborhood MMP
// loop, the MLN model build and matcher call of a streamed neighborhood
// and the set-up stages before the first evaluation.
//
// Seven of the eight tables, one per pipeline stage, compare the historical
// implementation (heap token strings, per-call scalar loops, a copy of M+
// per hypothesis — replicated inline below so the baseline survives the
// refactor it measures) against the current hot path:
//  * tokenize — AuthorBlockingTokens string vectors vs arena emission
//    (tokens/s);
//  * minhash  — legacy per-token scalar loop vs the batched kernel at
//    kScalar and (when the CPU has it) kAvx2 (signatures/s, speedup);
//  * scores   — scalar vs SIMD EstimateJaccard, per-call-allocating vs
//    scratch-reusing Jaro-Winkler (scores/s);
//  * mmp      — sequential MMP (Algorithm 3) with the historical
//    COMPUTEMAXIMAL (one copy of M+ per hypothesis) and full-sweep step 7
//    vs core::RunMmp, same MLN matcher (seconds per run, speedup);
//  * schemes  — no legacy side: RunSmp, RunMmpWithoutMerge and RunGrid
//    (SMP and MMP, 4 simulated machines) on the mmp corpus, each grid run
//    checked against its sequential driver's matches (rounds, evaluations,
//    seconds per run);
//  * induced_model — the binary-search model builder vs the bitmap
//    mln::BuildInducedModel over every neighborhood of a streamed cover
//    (seconds per sweep, speedup);
//  * match    — the hash-set, sort-and-search MlnMatcher::Match path vs
//    the flat MatchSet and scan-only model build over the same
//    neighborhoods (seconds per sweep, speedup);
//  * setup    — hash-container replicas vs the dense-mark set-up stages on a
//    DBLP-like corpus: the trigram self-join of BuildCandidatePairs,
//    ExpandCoauthorBoundary on an unexpanded LSH cover, and
//    mln::PairGraph::Build (seconds per pass, speedup).
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
// counter_mmp_* / counter_mln_* values pin the work message passing does;
// counter_smp_*, counter_mmp_nomerge_* and counter_grid_* pin the work of
// the other drivers on it.
// The streamed cover comes from a fixed arrival order, so the
// counter_mln_induced_* and counter_mln_match_* sums are a pure function
// of the scale too. The set-up corpus is built with LSH blocking
// explicitly, and its counter_data_candidate_pairs,
// counter_core_boundary_members (neighborhood sizes summed after
// expansion) and counter_mln_graph_links pin what the set-up stages
// produce.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "blocking/blocking_tokens.h"
#include "blocking/lsh_cover.h"
#include "blocking/minhash.h"
#include "blocking/minhash_simd.h"
#include "core/cover.h"
#include "core/grid_executor.h"
#include "core/match_set.h"
#include "core/matcher.h"
#include "core/maximal_message.h"
#include "core/message_passing.h"
#include "data/dataset.h"
#include "data/entity.h"
#include "eval/experiment.h"
#include "graph/connected_components.h"
#include "graph/max_flow.h"
#include "mln/grounding.h"
#include "mln/map_inference.h"
#include "mln/mln_matcher.h"
#include "stream/incremental_cover.h"
#include "text/jaro_winkler.h"
#include "text/similarity_level.h"
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
  const core::CoverMembership membership(cover);
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

    for (uint32_t affected : core::AffectedBy(membership, new_matches)) {
      if (affected != c) push(affected);
    }
  }
  return result;
}

/// The historical mln::BuildInducedModel, verbatim from the pre-bitmap
/// map_inference.cc: every membership test is a std::binary_search over
/// the sorted members, and every link is looked up in the variables.
mln::InducedModel LegacyBuildInducedModel(
    const data::Dataset& dataset, const mln::PairGraph& graph,
    const mln::MlnWeights& weights,
    const std::vector<data::EntityId>& members) {
  const auto in_members = [&](data::EntityId e) {
    return std::binary_search(members.begin(), members.end(), e);
  };
  mln::InducedModel model;
  for (data::EntityId e : members) {
    for (data::PairId id : dataset.PairsOfEntity(e)) {
      const data::EntityPair p = graph.node(id).pair;
      if (p.a == e && in_members(p.b)) model.vars.push_back(id);
    }
  }
  std::sort(model.vars.begin(), model.vars.end());
  model.theta.reserve(model.vars.size());
  for (size_t i = 0; i < model.vars.size(); ++i) {
    const mln::PairGraph::Node& node = graph.node(model.vars[i]);
    double theta = weights.SimWeight(node.level);
    for (data::EntityId c : node.shared_coauthors) {
      if (in_members(c)) theta += weights.w_coauthor;
    }
    model.theta.push_back(theta);
    for (data::PairId q : node.links) {
      if (q <= model.vars[i]) continue;
      const auto it = std::lower_bound(model.vars.begin(), model.vars.end(), q);
      if (it != model.vars.end() && *it == q) {
        model.links.emplace_back(static_cast<int>(i),
                                 static_cast<int>(it - model.vars.begin()));
      }
    }
  }
  return model;
}

/// mln::MlnMatcher::Match before the flat MatchSet, inline: the model
/// cache's copy, sort and dedupe of the entity list; the bitmap model
/// build that reads each member's pairs through their PairGraph nodes,
/// sorts the variables, and finds each inside link's partner from its
/// endpoints and a lower_bound; then the clamped min-cut, with
/// std::unordered_set evidence and output sets.
class LegacyMatchPath {
 public:
  using KeySet = std::unordered_set<uint64_t>;

  LegacyMatchPath(const data::Dataset& dataset, const mln::PairGraph& graph,
                  const mln::MlnWeights& weights)
      : dataset_(dataset),
        graph_(graph),
        weights_(weights),
        member_bits_((dataset.num_entities() + 63) / 64, 0) {}

  /// The output's keys; adds the number of unclamped variables to
  /// `free_variables`.
  KeySet Match(const std::vector<data::EntityId>& entities,
               const KeySet& positive, const KeySet& negative,
               size_t& free_variables) {
    const mln::InducedModel model = BuildModel(entities);
    const size_t n = model.vars.size();
    enum Clamp : uint8_t { kFree, kOne, kZero };
    std::vector<Clamp> clamp(n, kFree);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = data::PairKey(graph_.node(model.vars[i]).pair);
      if (negative.count(key) != 0) {
        clamp[i] = kZero;
      } else if (positive.count(key) != 0) {
        clamp[i] = kOne;
      }
    }
    std::vector<int> free_index(n, -1);
    int num_free = 0;
    for (size_t i = 0; i < n; ++i) {
      if (clamp[i] == kFree) free_index[i] = num_free++;
    }
    std::vector<double> theta(num_free);
    for (size_t i = 0; i < n; ++i) {
      if (free_index[i] >= 0) theta[free_index[i]] = model.theta[i];
    }
    const double w = weights_.w_coauthor;
    std::vector<std::pair<int, int>> free_links;
    for (const auto& [i, j] : model.links) {
      if (clamp[i] == kFree && clamp[j] == kFree) {
        free_links.emplace_back(free_index[i], free_index[j]);
      } else if (clamp[i] == kFree && clamp[j] == kOne) {
        theta[free_index[i]] += w;
      } else if (clamp[j] == kFree && clamp[i] == kOne) {
        theta[free_index[j]] += w;
      }
    }
    free_variables += static_cast<size_t>(num_free);
    std::vector<bool> x(num_free, false);
    if (num_free > 0) {
      std::vector<double> c(num_free);
      for (int i = 0; i < num_free; ++i) c[i] = -theta[i];
      for (const auto& [i, j] : free_links) {
        c[i] -= w / 2.0;
        c[j] -= w / 2.0;
      }
      graph::MaxFlow flow(num_free + 2);
      const int source = num_free;
      const int sink = num_free + 1;
      for (int i = 0; i < num_free; ++i) {
        if (c[i] > 0) {
          flow.AddEdge(i, sink, c[i]);
        } else if (c[i] < 0) {
          flow.AddEdge(source, i, -c[i]);
        }
      }
      for (const auto& [i, j] : free_links) {
        flow.AddEdge(i, j, w / 2.0, w / 2.0);
      }
      flow.Solve(source, sink);
      const std::vector<bool> on_source_side = flow.SinkUnreachableSet();
      for (int i = 0; i < num_free; ++i) x[i] = on_source_side[i];
    }
    KeySet out;
    for (size_t i = 0; i < n; ++i) {
      if (clamp[i] == kOne || (free_index[i] >= 0 && x[free_index[i]])) {
        out.insert(data::PairKey(graph_.node(model.vars[i]).pair));
      }
    }
    return out;
  }

 private:
  mln::InducedModel BuildModel(const std::vector<data::EntityId>& entities) {
    std::vector<data::EntityId> members = entities;
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    for (data::EntityId e : members) {
      member_bits_[e / 64] |= uint64_t{1} << (e % 64);
    }
    const auto in_members = [&](data::EntityId e) {
      return ((member_bits_[e / 64] >> (e % 64)) & 1) != 0;
    };
    mln::InducedModel model;
    for (data::EntityId e : members) {
      for (data::PairId id : dataset_.PairsOfEntity(e)) {
        const data::EntityPair p = graph_.node(id).pair;
        if (p.a == e && in_members(p.b)) model.vars.push_back(id);
      }
    }
    std::sort(model.vars.begin(), model.vars.end());
    model.theta.reserve(model.vars.size());
    for (size_t i = 0; i < model.vars.size(); ++i) {
      const mln::PairGraph::Node& node = graph_.node(model.vars[i]);
      double theta = weights_.SimWeight(node.level);
      for (data::EntityId c : node.shared_coauthors) {
        if (in_members(c)) theta += weights_.w_coauthor;
      }
      model.theta.push_back(theta);
      for (data::PairId q : node.links) {
        if (q <= model.vars[i]) continue;
        const data::EntityPair qp = graph_.node(q).pair;
        if (!in_members(qp.a) || !in_members(qp.b)) continue;
        const auto it =
            std::lower_bound(model.vars.begin() + i + 1, model.vars.end(), q);
        model.links.emplace_back(static_cast<int>(i),
                                 static_cast<int>(it - model.vars.begin()));
      }
    }
    for (data::EntityId e : members) member_bits_[e / 64] = 0;
    return model;
  }

  const data::Dataset& dataset_;
  const mln::PairGraph& graph_;
  const mln::MlnWeights& weights_;
  std::vector<uint64_t> member_bits_;
};

/// The historical trigram self-join of data::Dataset::BuildCandidatePairs:
/// one postings map keyed by each token's precomputed hash, and per
/// reference a hash-map overlap scan over every doc sharing a token
/// (text::TokenIndex::Candidates), filtered to docs after it, then the
/// name scoring. Registers the pairs on `fresh`, a finalized dataset
/// without candidate pairs.
void LegacyBuildCandidatePairs(data::Dataset& fresh,
                               const data::CandidateOptions& options,
                               const ExecutionContext& ctx) {
  struct HashedToken {
    std::string_view view;
    uint64_t hash;
    bool operator==(const HashedToken& other) const {
      return view == other.view;
    }
  };
  struct HashedTokenHash {
    size_t operator()(const HashedToken& t) const { return t.hash; }
  };
  const std::vector<data::EntityId>& refs = fresh.author_refs();
  const size_t n = refs.size();
  const text::TokenCorpus corpus = text::TokenCorpus::Build(
      n,
      [&](size_t i, text::TokenCorpus::DocBuilder& builder) {
        blocking::AppendAuthorBlockingTokens(fresh.entity(refs[i]), builder);
      },
      ctx);
  std::unordered_map<HashedToken, std::vector<uint32_t>, HashedTokenHash>
      postings;
  for (uint32_t doc = 0; doc < n; ++doc) {
    for (const text::TokenRef& ref : corpus.doc(doc)) {
      postings[{ref.view(), ref.hash}].push_back(doc);
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    const std::span<const text::TokenRef> my_tokens = corpus.doc(i);
    size_t postings_total = 0;
    std::vector<const std::vector<uint32_t>*> lists;
    for (const text::TokenRef& ref : my_tokens) {
      auto it = postings.find({ref.view(), ref.hash});
      if (it == postings.end()) continue;
      lists.push_back(&it->second);
      postings_total += it->second.size();
    }
    std::unordered_map<uint32_t, uint32_t> overlap;
    overlap.reserve(std::min(postings_total, n));
    for (const std::vector<uint32_t>* list : lists) {
      for (uint32_t other : *list) {
        if (other != i) ++overlap[other];
      }
    }
    std::vector<uint32_t> block;
    const double my_count = static_cast<double>(my_tokens.size());
    for (const auto& [other, shared] : overlap) {
      const double denom =
          std::max<double>(my_count, corpus.doc(other).size());
      const double score = denom == 0 ? 0.0 : shared / denom;
      if (score >= options.min_ngram_overlap && other > i) {
        block.push_back(other);
      }
    }
    std::sort(block.begin(), block.end());
    const data::Entity& a = fresh.entity(refs[i]);
    for (uint32_t other : block) {
      const data::Entity& b = fresh.entity(refs[other]);
      const text::SimilarityLevel level = text::NameSimilarityLevel(
          a.first_name, a.last_name, b.first_name, b.last_name,
          options.thresholds);
      if (level != text::SimilarityLevel::kNone) {
        fresh.AddCandidatePair(a.id, b.id, level);
      }
    }
  }
  fresh.FinalizeCandidatePairs();
}

/// The historical core::ExpandCoauthorBoundary: per neighborhood, the
/// members' coauthors gathered in an unordered_set, then inserted one at a
/// time into the sorted member vector.
void LegacyExpandCoauthorBoundary(const data::Dataset& dataset,
                                  core::Cover& cover) {
  for (size_t i = 0; i < cover.size(); ++i) {
    std::unordered_set<data::EntityId> boundary;
    for (data::EntityId e : cover.neighborhood(i).entities) {
      for (data::EntityId c : dataset.Coauthors(e)) boundary.insert(c);
    }
    for (data::EntityId c : boundary) cover.AddEntityTo(i, c);
  }
}

/// The historical mln::PairGraph::Build: shared coauthors by intersection,
/// links by one FindCandidatePair probe per (coauthor of e1, coauthor of
/// e2).
struct LegacyGroundNode {
  std::vector<data::EntityId> shared_coauthors;
  std::vector<data::PairId> links;
};
std::vector<LegacyGroundNode> LegacyGroundPairGraph(
    const data::Dataset& dataset) {
  std::vector<LegacyGroundNode> nodes(dataset.num_candidate_pairs());
  for (data::PairId id = 0; id < nodes.size(); ++id) {
    LegacyGroundNode& node = nodes[id];
    const data::EntityPair pair = dataset.candidate_pair(id).pair;
    const std::vector<data::EntityId>& co_a = dataset.Coauthors(pair.a);
    const std::vector<data::EntityId>& co_b = dataset.Coauthors(pair.b);
    std::set_intersection(co_a.begin(), co_a.end(), co_b.begin(), co_b.end(),
                          std::back_inserter(node.shared_coauthors));
    for (data::EntityId c : co_a) {
      for (data::EntityId d : co_b) {
        if (c == d) continue;
        const auto q = dataset.FindCandidatePair(c, d);
        if (!q.has_value() || *q == id) continue;
        node.links.push_back(*q);
      }
    }
    std::sort(node.links.begin(), node.links.end());
    node.links.erase(std::unique(node.links.begin(), node.links.end()),
                     node.links.end());
  }
  return nodes;
}

/// A finalized dataset with `source`'s entities under the same ids and no
/// relations or candidate pairs: all BuildCandidatePairs reads.
std::unique_ptr<data::Dataset> WithoutCandidatePairs(
    const data::Dataset& source) {
  auto out = std::make_unique<data::Dataset>();
  for (const data::Entity& e : source.entities()) {
    if (e.type == data::EntityType::kAuthorRef) {
      out->AddAuthorRef(e.first_name, e.last_name, e.truth);
    } else {
      out->AddPaper(e.title, e.year, e.truth);
    }
  }
  out->Finalize();
  return out;
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
  CEM_CHECK(mmp.matcher_calls == mln_matcher.num_runs())
      << "RunMmp's matcher_calls diverged from the matcher's own run count";

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

  // --- schemes --------------------------------------------------------------
  // The other message-passing drivers on the same corpus: sequential SMP,
  // MMP without message merging, and the round-parallel grid (Section 6.3)
  // under SMP and MMP at 4 simulated machines on the bench's one-thread
  // pool. Each grid run must reach its sequential driver's match set. They
  // share a second MLN matcher, so counter_mln_* keep describing RunMmp.
  const mln::MlnMatcher scheme_matcher(*hepth.dataset);
  core::MpResult smp;
  const double smp_s = TimeBest(
      kMmpReps, [&] { smp = core::RunSmp(scheme_matcher, hepth.cover); });
  core::MpResult nomerge;
  const double nomerge_s = TimeBest(kMmpReps, [&] {
    nomerge = core::RunMmpWithoutMerge(scheme_matcher, hepth.cover);
  });
  const auto time_grid = [&](core::MpScheme scheme, core::GridResult& out) {
    core::GridOptions options;
    options.scheme = scheme;
    options.num_machines = 4;
    options.context = &ctx;
    return TimeBest(kMmpReps, [&] {
      out = core::RunGrid(scheme_matcher, hepth.cover, options);
    });
  };
  core::GridResult grid_smp;
  core::GridResult grid_mmp;
  const double grid_smp_s = time_grid(core::MpScheme::kSmp, grid_smp);
  const double grid_mmp_s = time_grid(core::MpScheme::kMmp, grid_mmp);
  CEM_CHECK(grid_smp.matches == smp.matches)
      << "RunGrid SMP diverged from RunSmp's matches";
  CEM_CHECK(grid_mmp.matches == mmp.matches)
      << "RunGrid MMP diverged from RunMmp's matches";

  TableWriter schemes_table(
      {"driver", "rounds", "evaluations", "matches", "s/run"});
  const auto scheme_row = [&](const std::string& name,
                              const std::string& rounds, size_t evaluations,
                              const core::MatchSet& matches, double seconds) {
    schemes_table.AddRow({name, rounds, std::to_string(evaluations),
                          std::to_string(matches.size()),
                          TableWriter::Num(seconds, 4)});
  };
  scheme_row("RunSmp", "-", smp.neighborhood_evaluations, smp.matches, smp_s);
  scheme_row("RunMmpWithoutMerge", "-", nomerge.neighborhood_evaluations,
             nomerge.matches, nomerge_s);
  scheme_row("RunGrid SMP, 4 machines", std::to_string(grid_smp.rounds),
             grid_smp.neighborhood_evaluations, grid_smp.matches, grid_smp_s);
  scheme_row("RunGrid MMP, 4 machines", std::to_string(grid_mmp.rounds),
             grid_mmp.neighborhood_evaluations, grid_mmp.matches, grid_mmp_s);
  report.Table("schemes", schemes_table);
  report.Metric("counter_smp_evaluations",
                static_cast<double>(smp.neighborhood_evaluations));
  report.Metric("counter_mmp_nomerge_evaluations",
                static_cast<double>(nomerge.neighborhood_evaluations));
  report.Metric("counter_grid_smp_rounds",
                static_cast<double>(grid_smp.rounds));
  report.Metric("counter_grid_smp_evaluations",
                static_cast<double>(grid_smp.neighborhood_evaluations));
  report.Metric("counter_grid_mmp_rounds",
                static_cast<double>(grid_mmp.rounds));
  report.Metric("counter_grid_mmp_evaluations",
                static_cast<double>(grid_mmp.neighborhood_evaluations));

  // --- induced_model --------------------------------------------------------
  // The model build of a streaming drain evaluation: the same HEPTH-like
  // corpus streams through stream::IncrementalCover in a fixed shuffled
  // arrival order, then every neighborhood of the streamed cover gets its
  // induced model from both builders. The last pass's models are compared,
  // and each variable count must equal the cover's maintained inside-pair
  // count, which the drain reports as pairs rescored.
  constexpr int kInducedReps = 5;
  stream::IncrementalCover icover(*hepth.dataset, {}, ctx);
  std::vector<data::EntityId> arrival = hepth.dataset->author_refs();
  Rng arrival_rng(0x1dcedb0117ULL);
  arrival_rng.Shuffle(arrival);
  for (data::EntityId ref : arrival) icover.Insert(ref);
  const core::Cover& streamed = icover.cover();
  const mln::PairGraph& graph = mln_matcher.pair_graph();
  const mln::MlnWeights& weights = mln_matcher.weights();
  std::vector<mln::InducedModel> legacy_models(streamed.size());
  const double legacy_build_s = TimeBest(kInducedReps, [&] {
    for (size_t n = 0; n < streamed.size(); ++n) {
      legacy_models[n] = LegacyBuildInducedModel(
          *hepth.dataset, graph, weights, streamed.neighborhood(n).entities);
    }
  });
  std::vector<mln::InducedModel> models(streamed.size());
  const double build_s = TimeBest(kInducedReps, [&] {
    for (size_t n = 0; n < streamed.size(); ++n) {
      models[n] = mln::BuildInducedModel(*hepth.dataset, graph, weights,
                                         streamed.neighborhood(n).entities);
    }
  });
  size_t induced_vars = 0;
  size_t induced_links = 0;
  for (size_t n = 0; n < streamed.size(); ++n) {
    CEM_CHECK(models[n].vars == legacy_models[n].vars &&
              models[n].theta == legacy_models[n].theta &&
              models[n].links == legacy_models[n].links)
        << "BuildInducedModel diverged from the binary-search builder on "
           "neighborhood "
        << n;
    CEM_CHECK(icover.inside_pairs(static_cast<uint32_t>(n)) ==
              legacy_models[n].vars.size())
        << "IncrementalCover::inside_pairs diverged from the model on "
           "neighborhood "
        << n;
    induced_vars += models[n].vars.size();
    induced_links += models[n].links.size();
  }

  TableWriter induced_table(
      {"builder", "neighborhoods", "vars", "links", "s/sweep", "speedup"});
  const auto induced_row = [&](const std::string& name, double seconds) {
    induced_table.AddRow({name, std::to_string(streamed.size()),
                          std::to_string(induced_vars),
                          std::to_string(induced_links),
                          TableWriter::Num(seconds, 5),
                          TableWriter::Num(legacy_build_s / seconds, 2)});
  };
  std::printf("\nStreamed cover: %zu live refs, %zu neighborhoods, max size "
              "%zu\n",
              icover.num_live(), streamed.size(),
              icover.max_neighborhood_size());
  induced_row("legacy: binary search", legacy_build_s);
  induced_row("BuildInducedModel", build_s);
  report.Table("induced_model", induced_table);
  report.Metric("speedup_induced_model", legacy_build_s / build_s);
  report.Metric("counter_mln_induced_vars", static_cast<double>(induced_vars));
  report.Metric("counter_mln_induced_links",
                static_cast<double>(induced_links));

  // --- match ----------------------------------------------------------------
  // A drain evaluation's matcher call: MlnMatcher::Match on every
  // neighborhood of the streamed cover, against the inline replica of the
  // path before the flat MatchSet. The positive evidence is every second
  // pair of RunMmp's sorted matches and the negative evidence is empty, as
  // in the drain. Every output and the free-variable total must agree.
  constexpr int kMatchReps = 5;
  const std::vector<data::EntityPair> mmp_pairs = mmp.matches.SortedPairs();
  core::MatchSet evidence;
  LegacyMatchPath::KeySet legacy_evidence;
  for (size_t i = 0; i < mmp_pairs.size(); i += 2) {
    evidence.Insert(mmp_pairs[i]);
    legacy_evidence.insert(data::PairKey(mmp_pairs[i]));
  }
  const core::MatchSet no_evidence;
  const LegacyMatchPath::KeySet legacy_no_evidence;
  LegacyMatchPath legacy_path(*hepth.dataset, graph, weights);
  std::vector<LegacyMatchPath::KeySet> legacy_outputs(streamed.size());
  size_t legacy_match_free_vars = 0;
  const double legacy_match_s = TimeBest(kMatchReps, [&] {
    legacy_match_free_vars = 0;
    for (size_t n = 0; n < streamed.size(); ++n) {
      legacy_outputs[n] = legacy_path.Match(
          streamed.neighborhood(n).entities, legacy_evidence,
          legacy_no_evidence, legacy_match_free_vars);
    }
  });
  const mln::MlnMatcher match_matcher(*hepth.dataset);
  std::vector<core::MatchSet> outputs(streamed.size());
  const double match_s = TimeBest(kMatchReps, [&] {
    match_matcher.ResetCounters();
    for (size_t n = 0; n < streamed.size(); ++n) {
      outputs[n] = match_matcher.Match(streamed.neighborhood(n).entities,
                                       evidence, no_evidence);
    }
  });
  size_t match_outputs = 0;
  for (size_t n = 0; n < streamed.size(); ++n) {
    std::vector<uint64_t> want(legacy_outputs[n].begin(),
                               legacy_outputs[n].end());
    std::sort(want.begin(), want.end());
    std::vector<uint64_t> got;
    for (const data::EntityPair& p : outputs[n].SortedPairs()) {
      got.push_back(data::PairKey(p));
    }
    CEM_CHECK(got == want)
        << "MlnMatcher::Match diverged from the legacy path on neighborhood "
        << n;
    match_outputs += got.size();
  }
  CEM_CHECK(match_matcher.num_runs() == streamed.size() &&
            match_matcher.total_free_variables() == legacy_match_free_vars)
      << "MlnMatcher::Match diverged from the legacy path's free variables";

  TableWriter match_table({"path", "neighborhoods", "outputs", "free vars",
                           "s/sweep", "speedup"});
  const auto match_row = [&](const std::string& name, double seconds) {
    match_table.AddRow({name, std::to_string(streamed.size()),
                        std::to_string(match_outputs),
                        std::to_string(legacy_match_free_vars),
                        TableWriter::Num(seconds, 5),
                        TableWriter::Num(legacy_match_s / seconds, 2)});
  };
  std::printf("\nMatch evidence: %zu positive pairs\n", evidence.size());
  match_row("legacy: unordered_set, sorted scan", legacy_match_s);
  match_row("MlnMatcher::Match", match_s);
  report.Table("match", match_table);
  report.Metric("speedup_match", legacy_match_s / match_s);
  report.Metric("counter_mln_match_outputs",
                static_cast<double>(match_outputs));
  report.Metric("counter_mln_match_free_variables",
                static_cast<double>(legacy_match_free_vars));

  // --- setup ----------------------------------------------------------------
  // The set-up every workload pays before its first evaluation, on a
  // DBLP-like corpus: the trigram self-join behind candidate pairs, the
  // coauthor boundary expansion of an LSH cover, and MLN link grounding.
  // Each pass gets its own input — a dataset without candidate pairs, a
  // copy of the unexpanded cover — prepared before timing starts.
  constexpr int kSetupReps = 5;
  const eval::Workload dblp = eval::MakeDblpWorkload(
      std::max(1.0, 4 * scale), core::BlockingStrategy::kLsh, ctx);
  const data::Dataset& setup_data = *dblp.dataset;
  const data::CandidateOptions candidate_options;
  const auto fresh_datasets = [&] {
    std::vector<std::unique_ptr<data::Dataset>> out;
    for (int rep = 0; rep <= kSetupReps; ++rep) {
      out.push_back(WithoutCandidatePairs(setup_data));
    }
    return out;
  };
  std::vector<std::unique_ptr<data::Dataset>> legacy_fresh = fresh_datasets();
  size_t next_fresh = 0;
  const double legacy_pairs_s = TimeBest(kSetupReps, [&] {
    LegacyBuildCandidatePairs(*legacy_fresh[next_fresh++], candidate_options,
                              ctx);
  });
  std::vector<std::unique_ptr<data::Dataset>> fresh = fresh_datasets();
  next_fresh = 0;
  const double pairs_s = TimeBest(kSetupReps, [&] {
    fresh[next_fresh++]->BuildCandidatePairs(candidate_options, ctx);
  });
  const auto same_pairs = [&](const data::Dataset& other) {
    const std::vector<data::CandidatePair>& want =
        setup_data.candidate_pairs();
    const std::vector<data::CandidatePair>& got = other.candidate_pairs();
    if (got.size() != want.size()) return false;
    for (size_t p = 0; p < want.size(); ++p) {
      if (got[p].pair != want[p].pair || got[p].level != want[p].level) {
        return false;
      }
    }
    return true;
  };
  CEM_CHECK(same_pairs(*legacy_fresh.back()))
      << "the legacy overlap scan diverged from the workload's pairs";
  CEM_CHECK(same_pairs(*fresh.back()))
      << "BuildCandidatePairs diverged from the legacy overlap scan";
  legacy_fresh.clear();
  fresh.clear();

  blocking::LshCoverOptions unexpanded;
  unexpanded.expand_boundary = false;
  unexpanded.context = &ctx;
  const core::Cover base_cover = blocking::BuildLshCover(setup_data, unexpanded);
  std::vector<core::Cover> legacy_covers(kSetupReps + 1, base_cover);
  size_t next_cover = 0;
  const double legacy_boundary_s = TimeBest(kSetupReps, [&] {
    LegacyExpandCoauthorBoundary(setup_data, legacy_covers[next_cover++]);
  });
  std::vector<core::Cover> covers(kSetupReps + 1, base_cover);
  next_cover = 0;
  const double boundary_s = TimeBest(kSetupReps, [&] {
    core::ExpandCoauthorBoundary(setup_data, covers[next_cover++], ctx);
  });
  CEM_CHECK(covers.back().neighborhoods().size() == base_cover.size());
  size_t boundary_members = 0;
  for (size_t n = 0; n < base_cover.size(); ++n) {
    CEM_CHECK(covers.back().neighborhood(n).entities ==
              legacy_covers.back().neighborhood(n).entities)
        << "ExpandCoauthorBoundary diverged from the legacy loop on "
           "neighborhood "
        << n;
    boundary_members += covers.back().neighborhood(n).entities.size();
  }

  std::vector<LegacyGroundNode> legacy_nodes;
  const double legacy_ground_s = TimeBest(
      kSetupReps, [&] { legacy_nodes = LegacyGroundPairGraph(setup_data); });
  mln::PairGraph setup_graph;
  const double ground_s = TimeBest(
      kSetupReps, [&] { setup_graph = mln::PairGraph::Build(setup_data); });
  CEM_CHECK(setup_graph.num_nodes() == legacy_nodes.size());
  for (data::PairId id = 0; id < legacy_nodes.size(); ++id) {
    CEM_CHECK(setup_graph.node(id).shared_coauthors ==
                  legacy_nodes[id].shared_coauthors &&
              setup_graph.node(id).links == legacy_nodes[id].links)
        << "PairGraph::Build diverged from the legacy grounding on pair "
        << id;
  }

  TableWriter setup_table({"stage", "output", "legacy s", "s", "speedup"});
  const auto setup_row = [&](const std::string& name, size_t output,
                             double legacy_s, double seconds) {
    setup_table.AddRow({name, std::to_string(output),
                        TableWriter::Num(legacy_s, 5),
                        TableWriter::Num(seconds, 5),
                        TableWriter::Num(legacy_s / seconds, 2)});
  };
  std::printf("\nSet-up corpus: %zu author refs, %zu candidate pairs, %zu "
              "LSH neighborhoods\n",
              setup_data.author_refs().size(),
              setup_data.num_candidate_pairs(), base_cover.size());
  setup_row("candidate pairs", setup_data.num_candidate_pairs(),
            legacy_pairs_s, pairs_s);
  setup_row("boundary expansion", boundary_members, legacy_boundary_s,
            boundary_s);
  setup_row("grounding", setup_graph.num_links(), legacy_ground_s, ground_s);
  report.Table("setup", setup_table);
  report.Metric("speedup_setup_candidate_pairs", legacy_pairs_s / pairs_s);
  report.Metric("speedup_setup_boundary", legacy_boundary_s / boundary_s);
  report.Metric("speedup_setup_grounding", legacy_ground_s / ground_s);
  report.Metric("counter_data_candidate_pairs",
                static_cast<double>(setup_data.num_candidate_pairs()));
  report.Metric("counter_core_boundary_members",
                static_cast<double>(boundary_members));
  report.Metric("counter_mln_graph_links",
                static_cast<double>(setup_graph.num_links()));

  std::printf(
      "\nNote: every row above was checked bit-identical to the legacy\n"
      "implementation before timing was reported; the speedups are pure\n"
      "layout + ISA wins with zero output change.\n");
  report.Write();
  return 0;
}
