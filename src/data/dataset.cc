#include "data/dataset.h"

#include <algorithm>

#include "blocking/blocking_tokens.h"
#include "blocking/lsh_index.h"
#include "blocking/minhash.h"
#include "text/similarity_level.h"
#include "text/token_index.h"
#include "util/logging.h"

namespace cem::data {

const std::vector<PairId> Dataset::kNoPairs;

Dataset::Dataset()
    : authored_("Authored", /*symmetric=*/false),
      cites_("Cites", /*symmetric=*/false),
      coauthor_("Coauthor", /*symmetric=*/true) {}

EntityId Dataset::AddEntity(Entity entity) {
  CEM_CHECK(!finalized_) << "AddEntity after Finalize";
  entity.id = static_cast<EntityId>(entities_.size());
  entities_.push_back(std::move(entity));
  return entities_.back().id;
}

EntityId Dataset::AddAuthorRef(std::string first_name, std::string last_name,
                               uint32_t truth) {
  Entity e;
  e.type = EntityType::kAuthorRef;
  e.first_name = std::move(first_name);
  e.last_name = std::move(last_name);
  e.truth = truth;
  EntityId id = AddEntity(std::move(e));
  author_refs_.push_back(id);
  return id;
}

EntityId Dataset::AddPaper(std::string title, int year, uint32_t truth) {
  Entity e;
  e.type = EntityType::kPaper;
  e.title = std::move(title);
  e.year = year;
  e.truth = truth;
  return AddEntity(std::move(e));
}

void Dataset::AddAuthored(EntityId ref, EntityId paper) {
  CEM_CHECK(entity(ref).type == EntityType::kAuthorRef);
  CEM_CHECK(entity(paper).type == EntityType::kPaper);
  authored_.Add(ref, paper);
}

void Dataset::AddCites(EntityId from, EntityId to) {
  CEM_CHECK(entity(from).type == EntityType::kPaper);
  CEM_CHECK(entity(to).type == EntityType::kPaper);
  cites_.Add(from, to);
}

void Dataset::Finalize() {
  CEM_CHECK(!finalized_);
  authored_.Finalize();
  // Coauthor = self-join of Authored on the paper attribute.
  std::vector<std::vector<EntityId>> refs_of_paper(entities_.size());
  for (EntityId ref : author_refs_) {
    for (EntityId paper : authored_.Neighbors(ref)) {
      refs_of_paper[paper].push_back(ref);
    }
  }
  for (const auto& refs : refs_of_paper) {
    for (size_t i = 0; i < refs.size(); ++i) {
      for (size_t j = i + 1; j < refs.size(); ++j) {
        coauthor_.Add(refs[i], refs[j]);
      }
    }
  }
  coauthor_.Finalize();
  cites_.Finalize();
  finalized_ = true;
}

void Dataset::BuildCandidatePairs(const CandidateOptions& options,
                                  const ExecutionContext& ctx) {
  CEM_CHECK(finalized_) << "BuildCandidatePairs before Finalize";
  CEM_CHECK(candidate_pairs_.empty()) << "candidate pairs already built";
  const size_t n = author_refs_.size();

  // Blocking tokens per reference — the shared definition every blocking
  // structure uses (see blocking/blocking_tokens.h), so candidate pairs,
  // canopies and LSH signatures agree on what "nearby" means. Tokens are
  // emitted straight into a flat arena corpus, hashed once at emit time.
  text::TokenCorpus corpus = text::TokenCorpus::Build(
      n,
      [&](size_t i, text::TokenCorpus::DocBuilder& builder) {
        blocking::AppendAuthorBlockingTokens(entities_[author_refs_[i]],
                                             builder);
      },
      ctx);

  // Blocking prefilter: per reference i, the doc ids > i worth scoring.
  // The LSH structures are only constructed (and their knobs validated) on
  // the use_lsh path.
  std::function<std::vector<uint32_t>(uint32_t)> block_fn;
  std::optional<text::TokenIndex> index;
  std::optional<blocking::LshIndex> lsh;
  if (options.use_lsh) {
    // Sub-quadratic path: batched signatures over the corpus, sharded
    // banded index, parallel insert.
    const blocking::MinHasher hasher({options.lsh_num_hashes});
    lsh.emplace(blocking::LshParams{options.lsh_bands, options.lsh_rows},
                hasher.num_hashes(), ctx.num_shards());
    lsh->AddDocuments(blocking::ComputeSignatures(hasher, corpus, ctx), ctx);
    block_fn = [&lsh](uint32_t i) {
      std::vector<uint32_t> out;
      for (uint32_t other : lsh->Candidates(i)) {
        if (other > i) out.push_back(other);
      }
      return out;
    };
  } else {
    // Exact path: sharded trigram inverted index (parallel build), scans
    // of the postings past i.
    index.emplace(ctx.num_token_shards());
    index->AddDocuments(std::move(corpus), ctx);
    block_fn = [&](uint32_t i) {
      std::vector<uint32_t> out;
      for (const auto& cand :
           index->CandidatesAfter(i, options.min_ngram_overlap)) {
        out.push_back(cand.doc_id);
      }
      return out;
    };
  }

  // Score each reference's candidate block in parallel; per-reference
  // result slots keep the merge order-independent, and the sort in
  // FinalizeCandidatePairs makes the final index identical for any thread
  // count either way.
  std::vector<std::vector<CandidatePair>> found(n);
  ParallelFor(ctx.pool(), n, [&](size_t i) {
    const Entity& a = entities_[author_refs_[i]];
    for (uint32_t other : block_fn(static_cast<uint32_t>(i))) {
      const Entity& b = entities_[author_refs_[other]];
      const text::SimilarityLevel level = text::NameSimilarityLevel(
          a.first_name, a.last_name, b.first_name, b.last_name,
          options.thresholds);
      if (level == text::SimilarityLevel::kNone) continue;
      found[i].push_back({EntityPair(a.id, b.id), level});
    }
  });
  for (const std::vector<CandidatePair>& pairs : found) {
    candidate_pairs_.insert(candidate_pairs_.end(), pairs.begin(),
                            pairs.end());
  }
  FinalizeCandidatePairs();
}

void Dataset::AddCandidatePair(EntityId a, EntityId b,
                               text::SimilarityLevel level) {
  CEM_CHECK(level != text::SimilarityLevel::kNone);
  CEM_CHECK(a != b);
  candidate_pairs_.push_back({EntityPair(a, b), level});
}

void Dataset::FinalizeCandidatePairs() {
  std::sort(candidate_pairs_.begin(), candidate_pairs_.end(),
            [](const CandidatePair& x, const CandidatePair& y) {
              return x.pair < y.pair;
            });
  candidate_pairs_.erase(
      std::unique(candidate_pairs_.begin(), candidate_pairs_.end(),
                  [](const CandidatePair& x, const CandidatePair& y) {
                    return x.pair == y.pair;
                  }),
      candidate_pairs_.end());
  pair_index_.clear();
  pair_index_.reserve(candidate_pairs_.size() * 2);
  pairs_of_entity_.assign(entities_.size(), {});
  first_pair_from_.assign(entities_.size() + 1, 0);
  for (PairId id = 0; id < candidate_pairs_.size(); ++id) {
    const EntityPair p = candidate_pairs_[id].pair;
    pair_index_.emplace(PairKey(p), id);
    pairs_of_entity_[p.a].push_back(id);
    pairs_of_entity_[p.b].push_back(id);
    ++first_pair_from_[p.a + 1];
  }
  for (size_t e = 0; e < entities_.size(); ++e) {
    first_pair_from_[e + 1] += first_pair_from_[e];
  }
}

std::optional<PairId> Dataset::FindCandidatePair(EntityId a,
                                                 EntityId b) const {
  auto it = pair_index_.find(PairKey(EntityPair(a, b)));
  if (it == pair_index_.end()) return std::nullopt;
  return it->second;
}

const std::vector<PairId>& Dataset::PairsOfEntity(EntityId e) const {
  if (e >= pairs_of_entity_.size()) return kNoPairs;
  return pairs_of_entity_[e];
}

bool Dataset::IsTrueMatch(EntityPair p) const {
  const Entity& a = entities_[p.a];
  const Entity& b = entities_[p.b];
  return a.truth != kNoTruth && b.truth != kNoTruth && a.truth == b.truth &&
         a.type == b.type;
}

size_t Dataset::CountTrueMatches() const {
  // True matches among labelled author refs: sum over clusters of C(n,2).
  std::unordered_map<uint32_t, size_t> cluster_sizes;
  for (EntityId ref : author_refs_) {
    uint32_t t = entities_[ref].truth;
    if (t != kNoTruth) ++cluster_sizes[t];
  }
  size_t total = 0;
  for (const auto& [label, n] : cluster_sizes) total += n * (n - 1) / 2;
  return total;
}

}  // namespace cem::data
