#ifndef CEM_UTIL_HASH_H_
#define CEM_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace cem {

/// The canonical 64-bit hashes of the per-record hot path. Every structure
/// that hashes token bytes (MinHash salting, LSH band keys, token-index
/// sharding) uses exactly these two functions, so a token hashed once —
/// e.g. at tokenisation time into a text::TokenCorpus — can be reused by
/// all of them without re-walking the bytes.

/// FNV-1a offset basis: the running-hash seed for incremental hashing
/// (Fnv1a64Byte), equal to Fnv1a64("").
inline constexpr uint64_t kFnv1a64Seed = 0xcbf29ce484222325ULL;

/// One FNV-1a step: folds byte `c` into running hash `h`.
inline constexpr uint64_t Fnv1a64Byte(uint64_t h, unsigned char c) {
  return (h ^ c) * 0x100000001b3ULL;
}

/// Extends running hash `h` over `bytes`; Fnv1a64Append(kFnv1a64Seed, s)
/// equals Fnv1a64(s).
inline constexpr uint64_t Fnv1a64Append(uint64_t h, std::string_view bytes) {
  for (char c : bytes) h = Fnv1a64Byte(h, static_cast<unsigned char>(c));
  return h;
}

/// FNV-1a over the token bytes: the base hash each MinHash permutation
/// salts, and the shard/bucket router for token-keyed structures.
inline constexpr uint64_t Fnv1a64(std::string_view bytes) {
  return Fnv1a64Append(kFnv1a64Seed, bytes);
}

/// SplitMix64 finalizer: full-avalanche mix of a salted base hash. Shared
/// by the MinHash kernel and the LSH band-key chain; its exact constants
/// are pinned by the MinHash signatures snapshots persist (`sig_*.bin`;
/// band keys are rebuilt on load, not stored) and by the golden snapshot
/// fixtures under tests/data/ — never change them.
inline constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace cem

#endif  // CEM_UTIL_HASH_H_
