#include "text/token_index.h"

#include <algorithm>

#include "util/logging.h"

namespace cem::text {

TokenIndex::TokenIndex(uint32_t num_shards)
    : shards_(std::max(num_shards, 1u)) {}

void TokenIndex::AddDocument(uint32_t doc_id,
                             const std::vector<std::string>& tokens) {
  CEM_CHECK(doc_id == corpus_.num_docs())
      << "documents must be appended densely in increasing id order";
  corpus_.AppendDoc([&](TokenCorpus::DocBuilder& builder) {
    for (const std::string& t : tokens) builder.EmitLower(t);
  });
  for (const TokenRef& ref : corpus_.doc(doc_id)) {
    shards_[ShardOf(ref)].postings[KeyOf(ref)].push_back(doc_id);
  }
}

void TokenIndex::AddDocuments(
    const std::vector<std::vector<std::string>>& token_sets,
    const ExecutionContext& ctx) {
  CEM_CHECK(empty()) << "AddDocuments on a non-empty index";
  corpus_ = TokenCorpus::Build(
      token_sets.size(),
      [&](size_t doc, TokenCorpus::DocBuilder& builder) {
        for (const std::string& t : token_sets[doc]) builder.EmitLower(t);
      },
      ctx);
  InsertPostings(0, ctx);
}

void TokenIndex::AddDocuments(TokenCorpus corpus, const ExecutionContext& ctx) {
  CEM_CHECK(empty()) << "AddDocuments on a non-empty index";
  corpus_ = std::move(corpus);
  InsertPostings(0, ctx);
}

void TokenIndex::InsertPostings(size_t first_doc, const ExecutionContext& ctx) {
  // Partition the (token, doc) stream by owning shard — one cheap linear
  // append pass, in doc order, so each shard's list replays serial
  // AddDocument order exactly.
  struct Entry {
    const TokenRef* token;
    uint32_t doc;
  };
  const size_t num_docs = corpus_.num_docs();
  std::vector<std::vector<Entry>> per_shard(shards_.size());
  for (auto& list : per_shard) {
    list.reserve(corpus_.num_tokens() / shards_.size() + 1);
  }
  for (size_t doc = first_doc; doc < num_docs; ++doc) {
    for (const TokenRef& ref : corpus_.doc(doc)) {
      per_shard[ShardOf(ref)].push_back({&ref, static_cast<uint32_t>(doc)});
    }
  }
  // Parallel insertion: each worker owns whole shards, so the (expensive)
  // postings-map building needs no synchronisation.
  ParallelFor(ctx.pool(), shards_.size(), [&](size_t s) {
    Shard& shard = shards_[s];
    for (const Entry& entry : per_shard[s]) {
      shard.postings[KeyOf(*entry.token)].push_back(entry.doc);
    }
  });
}

std::vector<TokenIndex::Neighbor> TokenIndex::Candidates(
    uint32_t doc_id, double min_score, size_t* num_scored) const {
  return Overlaps(doc_id, 0, min_score, num_scored);
}

std::vector<TokenIndex::Neighbor> TokenIndex::CandidatesAfter(
    uint32_t doc_id, double min_score, size_t* num_scored) const {
  return Overlaps(doc_id, doc_id + 1, min_score, num_scored);
}

std::vector<TokenIndex::Neighbor> TokenIndex::Overlaps(
    uint32_t doc_id, uint32_t first, double min_score,
    size_t* num_scored) const {
  CEM_CHECK(doc_id < corpus_.num_docs());
  // Shared-token counts indexed by doc id, plus the docs touched. The
  // guard resets every touched count on every way out, so the thread's
  // counts are all-zero between calls, whatever index the next call
  // brings.
  thread_local std::vector<uint32_t> overlap;
  thread_local std::vector<uint32_t> touched;
  if (overlap.size() < corpus_.num_docs()) {
    overlap.resize(corpus_.num_docs(), 0);
  }
  struct ResetOnExit {
    ~ResetOnExit() {
      for (uint32_t other : touched) overlap[other] = 0;
      touched.clear();
    }
  } reset_on_exit;
  // Postings lists are in doc id order, so each is entered at `first`.
  const std::span<const TokenRef> my_tokens = corpus_.doc(doc_id);
  for (const TokenRef& ref : my_tokens) {
    const Shard& shard = shards_[ShardOf(ref)];
    auto it = shard.postings.find(KeyOf(ref));
    if (it == shard.postings.end()) continue;
    const std::vector<uint32_t>& list = it->second;
    for (auto other = std::lower_bound(list.begin(), list.end(), first);
         other != list.end(); ++other) {
      if (*other != doc_id && overlap[*other]++ == 0) {
        touched.push_back(*other);
      }
    }
  }
  if (num_scored != nullptr) *num_scored = touched.size();
  std::vector<Neighbor> out;
  const double my_count = static_cast<double>(my_tokens.size());
  for (uint32_t other : touched) {
    const double denom =
        std::max<double>(my_count, corpus_.doc(other).size());
    const double score = denom == 0 ? 0.0 : overlap[other] / denom;
    if (score >= min_score) out.push_back({other, score});
  }
  std::sort(out.begin(), out.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.doc_id < b.doc_id;
            });
  return out;
}

size_t TokenIndex::num_tokens() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.postings.size();
  return total;
}

size_t TokenIndex::num_postings() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    for (const auto& [token, docs] : shard.postings) total += docs.size();
  }
  return total;
}

}  // namespace cem::text
