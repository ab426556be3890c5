#ifndef CEM_BLOCKING_LSH_INDEX_H_
#define CEM_BLOCKING_LSH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "blocking/minhash_simd.h"
#include "util/execution_context.h"

namespace cem::blocking {

/// Banding parameters: a signature of >= bands*rows components is split
/// into `bands` bands of `rows` components each; two documents become
/// candidates iff they agree on every component of at least one band.
/// P(candidate | Jaccard s) = 1 - (1 - s^rows)^bands — the S-curve whose
/// knee the caller places at the similarity worth keeping.
struct LshParams {
  uint32_t bands = 32;
  uint32_t rows = 2;
};

/// Banded LSH buckets over MinHash signatures: sub-quadratic candidate
/// generation. Documents are hashed into one bucket per band; candidate
/// pairs are pairs sharing a bucket. Deterministic: bucket keys depend only
/// on the signature components and the band index.
///
/// Buckets are partitioned into `num_shards` shards by bucket key, so bulk
/// insertion (AddDocuments) parallelises with each shard owned by exactly
/// one worker — no locks — and concurrent read-only candidate lookups are
/// always safe. The shard count never changes what the index contains:
/// bucket membership, Candidates() and the work counters are bit-identical
/// for any shard count.
class LshIndex {
 public:
  /// `num_hashes` is the signature length documents will be added with;
  /// bands*rows must fit inside it (excess components are ignored).
  /// `num_shards` partitions the bucket space (clamped to at least 1).
  LshIndex(const LshParams& params, uint32_t num_hashes,
           uint32_t num_shards = 1);

  /// Adds a document; `doc_id` values should be dense (0..n-1) and each id
  /// added once. The signature must have `num_hashes` components.
  void AddDocument(uint32_t doc_id, const std::vector<uint64_t>& signature);

  /// Bulk-adds documents 0..signatures.size()-1 in parallel on `ctx`:
  /// band keys are computed per document, then each shard inserts the keys
  /// it owns in document order. The index must be empty. Equivalent to
  /// calling AddDocument for each document in increasing id order.
  void AddDocuments(const std::vector<std::vector<uint64_t>>& signatures,
                    const ExecutionContext& ctx);

  /// Flat-layout overload over a batched SignatureMatrix — the hot path
  /// the cover builders use. Identical results to the vector form.
  void AddDocuments(const SignatureMatrix& signatures,
                    const ExecutionContext& ctx);

  size_t num_documents() const { return doc_added_.size(); }
  /// Alias of num_documents(): the corpus size as this index sees it, O(1).
  /// stream::IncrementalCover assigns arrival slots from this — callers
  /// should never have to infer the live count from bucket contents.
  size_t size() const { return num_documents(); }
  bool empty() const { return doc_added_.empty(); }
  size_t num_shards() const { return shards_.size(); }

  /// Number of distinct non-empty buckets across all bands.
  size_t num_buckets() const;

  /// Documents sharing at least one band bucket with `doc_id`, sorted by
  /// doc id, deduplicated, excluding `doc_id` itself. Thread-safe against
  /// concurrent Candidates() calls (read-only).
  std::vector<uint32_t> Candidates(uint32_t doc_id) const;

  /// Documents sharing at least one band bucket with `signature` (which
  /// need not belong to any indexed document), sorted by doc id,
  /// deduplicated. The point-query probe of the serving layer: purely
  /// read-only, so any number of concurrent probes is safe as long as no
  /// AddDocument runs. If the signature's document IS indexed, its own id
  /// appears in the result — callers filter. Deterministic for any shard
  /// count, like Candidates().
  std::vector<uint32_t> CandidatesOfSignature(
      const std::vector<uint64_t>& signature) const;

  /// Sum over buckets of C(size, 2): the candidate pairs the banding pass
  /// generates, counted with multiplicity — the blocking-work metric the
  /// ablation compares against full postings scans.
  size_t TotalBucketPairs() const;

  const LshParams& params() const { return params_; }
  uint32_t num_hashes() const { return num_hashes_; }

  /// The banding S-curve: probability a pair at Jaccard `jaccard` becomes a
  /// candidate under (bands, rows). Monotonically increasing in `jaccard`.
  static double CollisionProbability(double jaccard, uint32_t bands,
                                     uint32_t rows);

  /// The `bands` bucket keys of one signature. Pure; public so tests can
  /// brute-force candidate sets. Key values are not persisted: a snapshot
  /// stores the signatures and a restore recomputes the keys, so this chain
  /// may change without a snapshot format bump.
  std::vector<uint64_t> BandKeys(const std::vector<uint64_t>& signature) const;

 private:
  /// Shard owning bucket `key`; keys are already avalanche-mixed, so the
  /// low bits partition uniformly.
  size_t ShardOf(uint64_t key) const { return key % shards_.size(); }

  /// Writes the `bands` bucket keys of `signature` (>= num_hashes_
  /// components) into `out`: per band, a Mix64 chain over the band's rows,
  /// seeded from the hoisted band_seeds_ table. Bit-identical to the
  /// historical per-band `Mix(band+1)` re-derivation.
  void BandKeysInto(const uint64_t* signature, uint64_t* out) const;

  /// The flat band-key row of one document (bands entries).
  std::span<const uint64_t> doc_keys(size_t doc) const {
    return {doc_band_keys_.data() + doc * params_.bands, params_.bands};
  }

  /// Grows the per-document tables to hold `doc_id` and marks it added
  /// (CHECK-fails on a duplicate add).
  void ReserveDoc(uint32_t doc_id);

  /// Bulk-insert backend shared by both AddDocuments overloads: partitions
  /// the already-computed doc_band_keys_ stream by owning shard (in doc
  /// order), then each worker builds the buckets of the shards it owns.
  void InsertBandKeys(const ExecutionContext& ctx);

  struct Shard {
    /// Bucket key -> member doc ids, in insertion (= doc id) order.
    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
  };

  LshParams params_;
  uint32_t num_hashes_;
  /// Mix64(band+1) per band, hoisted out of the per-document key chain.
  std::vector<uint64_t> band_seeds_;
  std::vector<Shard> shards_;
  /// Flat row-major per-document band keys: doc * bands + band. Docs never
  /// added (id gaps) hold zeros and are flagged off in doc_added_.
  std::vector<uint64_t> doc_band_keys_;
  std::vector<uint8_t> doc_added_;
};

}  // namespace cem::blocking

#endif  // CEM_BLOCKING_LSH_INDEX_H_
