#ifndef CEM_TEXT_TOKEN_INDEX_H_
#define CEM_TEXT_TOKEN_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/token_arena.h"
#include "util/execution_context.h"

namespace cem::text {

/// Inverted index from token -> document ids, used as the "cheap distance"
/// of the Canopies algorithm [McCallum et al., KDD 2000]: candidate
/// neighbours of a document are the documents sharing at least one token,
/// scored by overlap.
///
/// Documents live in a flat arena-backed TokenCorpus (see token_arena.h):
/// postings keys are (view, hash) slices into the corpus storage, so the
/// index holds no per-token heap strings and lookups reuse each token's
/// precomputed FNV hash instead of re-hashing bytes.
///
/// Postings are partitioned into `num_shards` shards by token hash, so bulk
/// insertion (AddDocuments) parallelises with each shard owned by exactly
/// one worker — no locks — and concurrent read-only Candidates() calls are
/// always safe. The shard count never changes what the index contains:
/// postings membership, Candidates() and the `num_scored` counters are
/// bit-identical for any shard count.
class TokenIndex {
 public:
  /// `num_shards` partitions the token space (clamped to at least 1).
  explicit TokenIndex(uint32_t num_shards = 1);

  /// Adds a document; `doc_id` must equal num_documents() — documents are
  /// appended densely in increasing id order. Tokens are lower-cased;
  /// duplicate tokens within a document are collapsed.
  void AddDocument(uint32_t doc_id, const std::vector<std::string>& tokens);

  /// Bulk-adds documents 0..token_sets.size()-1 in parallel on `ctx`:
  /// token sets are normalised per document, then each shard inserts the
  /// postings it owns in document order. The index must be empty.
  /// Equivalent to calling AddDocument for each document in increasing id
  /// order.
  void AddDocuments(const std::vector<std::vector<std::string>>& token_sets,
                    const ExecutionContext& ctx);

  /// Takes ownership of a pre-built corpus (the arena hot path — callers
  /// tokenise straight into a TokenCorpus, no string vectors) and builds
  /// postings over it in parallel on `ctx`. The index must be empty.
  void AddDocuments(TokenCorpus corpus, const ExecutionContext& ctx);

  /// Number of documents added.
  size_t num_documents() const { return corpus_.num_docs(); }
  /// Alias of num_documents(): the corpus size as this index sees it, O(1),
  /// mirroring blocking::LshIndex — callers should never have to infer it
  /// from postings contents.
  size_t size() const { return num_documents(); }
  bool empty() const { return corpus_.num_docs() == 0; }

  struct Neighbor {
    uint32_t doc_id;
    /// Token-overlap score: |tokens(a) ∩ tokens(b)| / max(|a|,|b|).
    double score;
  };

  /// Returns documents sharing >= 1 token with `doc_id` whose overlap score
  /// is at least `min_score`, excluding `doc_id` itself. Order is by doc id.
  /// When `num_scored` is non-null it receives the number of distinct
  /// documents scored (the blocking work done, before the min_score filter).
  std::vector<Neighbor> Candidates(uint32_t doc_id, double min_score,
                                   size_t* num_scored = nullptr) const;

  /// Candidates() restricted to documents with ids above `doc_id`: a
  /// self-join asking this of every document sees each overlapping pair
  /// once, and scans only the tail of each postings list.
  std::vector<Neighbor> CandidatesAfter(uint32_t doc_id, double min_score,
                                        size_t* num_scored = nullptr) const;

  /// Tokens shared between index entry construction calls are interned; this
  /// returns the number of distinct tokens seen.
  size_t num_tokens() const;

  /// Total postings entries (sum of postings-list lengths): the work the
  /// index build does, independent of thread and shard count.
  size_t num_postings() const;

  size_t num_shards() const { return shards_.size(); }

  /// The normalised (lower-cased, sorted, unique) tokens of document `doc`
  /// — the authoritative state the snapshot format persists (one string
  /// per TokenRef, byte-identical to the historical string-vector form).
  /// Postings are a pure function of these: the loader rebuilds them with
  /// AddDocuments, which also re-derives the shard partition instead of
  /// trusting a saved hash assignment.
  std::span<const TokenRef> doc_tokens(size_t doc) const {
    return corpus_.doc(doc);
  }

  /// The backing corpus (for footprint reporting).
  const TokenCorpus& corpus() const { return corpus_; }

 private:
  /// Postings key: a token's corpus slice plus its precomputed hash, so
  /// map operations never re-walk token bytes to hash them.
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
  using PostingsMap =
      std::unordered_map<HashedToken, std::vector<uint32_t>, HashedTokenHash>;

  static HashedToken KeyOf(const TokenRef& ref) {
    return {ref.view(), ref.hash};
  }

  /// Shard owning a token (by its precomputed FNV hash; the shard
  /// assignment never leaks into any query result).
  size_t ShardOf(const TokenRef& ref) const {
    return ref.hash % shards_.size();
  }

  /// The overlap scan behind Candidates() and CandidatesAfter(): documents
  /// other than `doc_id` with ids >= `first`.
  std::vector<Neighbor> Overlaps(uint32_t doc_id, uint32_t first,
                                 double min_score, size_t* num_scored) const;

  /// Inserts postings for documents [first_doc, num_docs) of corpus_ —
  /// the bulk path partitions the (token, doc) stream by owning shard and
  /// builds shards in parallel on `ctx`.
  void InsertPostings(size_t first_doc, const ExecutionContext& ctx);

  struct Shard {
    /// Token -> member doc ids, in insertion (= doc id) order.
    PostingsMap postings;
  };

  std::vector<Shard> shards_;
  TokenCorpus corpus_;
};

}  // namespace cem::text

#endif  // CEM_TEXT_TOKEN_INDEX_H_
