#ifndef CEM_BLOCKING_MINHASH_H_
#define CEM_BLOCKING_MINHASH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cem::blocking {

/// Options of the MinHash signature scheme.
struct MinHashOptions {
  /// Signature length k: number of hash permutations. More hashes tighten
  /// the Jaccard estimate (stddev ~= sqrt(s(1-s)/k)) at linear cost.
  uint32_t num_hashes = 64;
  /// Seed deriving the per-permutation salts; equal seeds give equal
  /// signatures for equal token sets, across processes and runs.
  uint64_t seed = 0x1234abcd9e3779b9ULL;
};

/// k-permutation MinHash over string token sets [Broder 1997]: component i
/// of a signature is the minimum of a salted 64-bit hash over the tokens.
/// Two sets agree on component i with probability equal to their Jaccard
/// similarity, which is what banded LSH exploits. Deterministic: signatures
/// depend only on (tokens, options), never on global state.
///
/// The inner loop runs on the dispatched hot-path kernels (see
/// minhash_simd.h): tokens are FNV-hashed once, then the k salted
/// min-reductions execute at ActiveSimdLevel(). Every level is
/// bit-identical to the historical scalar definition, so signatures (and
/// the persisted LSH band keys derived from them) never depend on the
/// CPU or the CEM_SIMD knob.
class MinHasher {
 public:
  explicit MinHasher(const MinHashOptions& options = {});

  uint32_t num_hashes() const {
    return static_cast<uint32_t>(salts_.size());
  }

  /// The per-permutation salts (length num_hashes) — input to the batched
  /// kernels in minhash_simd.h.
  const std::vector<uint64_t>& salts() const { return salts_; }

  /// Signature component used for the empty token set (no token can beat
  /// it, so empty sets collide only with empty sets).
  static constexpr uint64_t kEmptySlot = ~0ULL;

  /// Returns the k-component signature of `tokens` (duplicates are harmless
  /// — MinHash has set semantics). Callers pass the shared lower-cased
  /// blocking tokens so signatures agree with the token-overlap index.
  std::vector<uint64_t> Signature(const std::vector<std::string>& tokens) const;

  /// Signature of a pre-hashed token set (each element a Fnv1a64 token
  /// hash — e.g. text::TokenRef::hash or AppendAuthorBlockingTokenHashes
  /// output). `out` must hold num_hashes() components. Equals
  /// Signature(tokens) whenever `token_hashes` holds the tokens' hashes.
  void SignatureFromHashes(const uint64_t* token_hashes, size_t num_tokens,
                           uint64_t* out) const;

  /// Unbiased Jaccard estimate: the fraction of agreeing components.
  /// Signatures must come from the same MinHasher configuration.
  static double EstimateJaccard(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b);

  /// Flat-array overload for matrix rows (see SignatureMatrix).
  static double EstimateJaccard(const uint64_t* a, const uint64_t* b,
                                size_t num_hashes);

 private:
  std::vector<uint64_t> salts_;
};

}  // namespace cem::blocking

#endif  // CEM_BLOCKING_MINHASH_H_
