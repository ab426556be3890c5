#include "blocking/lsh_index.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"
#include "util/logging.h"

namespace cem::blocking {

LshIndex::LshIndex(const LshParams& params, uint32_t num_hashes,
                   uint32_t num_shards)
    : params_(params),
      num_hashes_(num_hashes),
      shards_(std::max(num_shards, 1u)) {
  CEM_CHECK(params.bands > 0 && params.rows > 0);
  CEM_CHECK(params.bands * params.rows <= num_hashes)
      << "bands*rows must fit in the signature length";
  band_seeds_.reserve(params_.bands);
  for (uint32_t band = 0; band < params_.bands; ++band) {
    band_seeds_.push_back(Mix64(band + 1));
  }
}

void LshIndex::BandKeysInto(const uint64_t* signature, uint64_t* out) const {
  // Pointer walk over the band slices: the signature components of band b
  // are the `rows` entries after b*rows, consumed in order — no per-row
  // index arithmetic, and the per-band seed comes from the hoisted table.
  const uint64_t* component = signature;
  for (uint32_t band = 0; band < params_.bands; ++band) {
    uint64_t key = band_seeds_[band];
    for (uint32_t row = 0; row < params_.rows; ++row) {
      key = Mix64(key ^ *component++);
    }
    out[band] = key;
  }
}

std::vector<uint64_t> LshIndex::BandKeys(
    const std::vector<uint64_t>& signature) const {
  CEM_CHECK(signature.size() >= params_.bands * params_.rows);
  std::vector<uint64_t> keys(params_.bands);
  BandKeysInto(signature.data(), keys.data());
  return keys;
}

void LshIndex::ReserveDoc(uint32_t doc_id) {
  if (doc_id >= doc_added_.size()) {
    doc_added_.resize(doc_id + 1, 0);
    doc_band_keys_.resize(static_cast<size_t>(doc_id + 1) * params_.bands, 0);
  }
  CEM_CHECK(doc_added_[doc_id] == 0) << "document added twice";
  doc_added_[doc_id] = 1;
}

void LshIndex::AddDocument(uint32_t doc_id,
                           const std::vector<uint64_t>& signature) {
  CEM_CHECK(signature.size() == num_hashes_)
      << "signature length mismatch with the index configuration";
  ReserveDoc(doc_id);
  uint64_t* keys = doc_band_keys_.data() + doc_id * params_.bands;
  BandKeysInto(signature.data(), keys);
  for (uint32_t band = 0; band < params_.bands; ++band) {
    const uint64_t key = keys[band];
    shards_[ShardOf(key)].buckets[key].push_back(doc_id);
  }
}

namespace {

/// One (bucket key, doc) insertion, grouped per owning shard.
struct ShardEntry {
  uint64_t key;
  uint32_t doc;
};

}  // namespace

void LshIndex::AddDocuments(
    const std::vector<std::vector<uint64_t>>& signatures,
    const ExecutionContext& ctx) {
  CEM_CHECK(doc_added_.empty()) << "AddDocuments on a non-empty index";
  const size_t n = signatures.size();
  doc_added_.assign(n, 1);
  doc_band_keys_.resize(n * params_.bands);
  ParallelFor(ctx.pool(), n, [&](size_t doc) {
    CEM_CHECK(signatures[doc].size() == num_hashes_)
        << "signature length mismatch with the index configuration";
    BandKeysInto(signatures[doc].data(),
                 doc_band_keys_.data() + doc * params_.bands);
  });
  InsertBandKeys(ctx);
}

void LshIndex::AddDocuments(const SignatureMatrix& signatures,
                            const ExecutionContext& ctx) {
  CEM_CHECK(doc_added_.empty()) << "AddDocuments on a non-empty index";
  CEM_CHECK(signatures.num_hashes() == num_hashes_ ||
            signatures.num_docs() == 0)
      << "signature length mismatch with the index configuration";
  const size_t n = signatures.num_docs();
  doc_added_.assign(n, 1);
  doc_band_keys_.resize(n * params_.bands);
  ParallelFor(ctx.pool(), n, [&](size_t doc) {
    BandKeysInto(signatures.row(doc),
                 doc_band_keys_.data() + doc * params_.bands);
  });
  InsertBandKeys(ctx);
}

void LshIndex::InsertBandKeys(const ExecutionContext& ctx) {
  // Partition the (key, doc) stream by owning shard — one cheap linear
  // append pass, in doc order, so each shard's list replays serial
  // AddDocument order exactly.
  const size_t n = doc_added_.size();
  std::vector<std::vector<ShardEntry>> per_shard(shards_.size());
  for (auto& list : per_shard) {
    list.reserve(n * params_.bands / shards_.size() + 1);
  }
  for (uint32_t doc = 0; doc < n; ++doc) {
    for (uint64_t key : doc_keys(doc)) {
      per_shard[ShardOf(key)].push_back({key, doc});
    }
  }
  // Parallel insertion: each worker owns whole shards, so the (expensive)
  // hash-map building needs no synchronisation.
  ParallelFor(ctx.pool(), shards_.size(), [&](size_t s) {
    Shard& shard = shards_[s];
    for (const ShardEntry& entry : per_shard[s]) {
      shard.buckets[entry.key].push_back(entry.doc);
    }
  });
}

std::vector<uint32_t> LshIndex::Candidates(uint32_t doc_id) const {
  CEM_CHECK(doc_id < doc_added_.size());
  std::vector<uint32_t> out;
  if (doc_added_[doc_id] == 0) return out;  // Id gap: never added.
  for (uint64_t key : doc_keys(doc_id)) {
    const Shard& shard = shards_[ShardOf(key)];
    const auto it = shard.buckets.find(key);
    CEM_CHECK(it != shard.buckets.end());
    for (uint32_t other : it->second) {
      if (other != doc_id) out.push_back(other);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<uint32_t> LshIndex::CandidatesOfSignature(
    const std::vector<uint64_t>& signature) const {
  CEM_CHECK(signature.size() >= num_hashes_)
      << "signature too short for this index";
  std::vector<uint64_t> keys(params_.bands);
  BandKeysInto(signature.data(), keys.data());
  std::vector<uint32_t> out;
  for (uint64_t key : keys) {
    const Shard& shard = shards_[ShardOf(key)];
    const auto it = shard.buckets.find(key);
    if (it == shard.buckets.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t LshIndex::num_buckets() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.buckets.size();
  return total;
}

size_t LshIndex::TotalBucketPairs() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    for (const auto& [key, members] : shard.buckets) {
      total += members.size() * (members.size() - 1) / 2;
    }
  }
  return total;
}

double LshIndex::CollisionProbability(double jaccard, uint32_t bands,
                                      uint32_t rows) {
  const double band_match = std::pow(jaccard, static_cast<double>(rows));
  return 1.0 - std::pow(1.0 - band_match, static_cast<double>(bands));
}

}  // namespace cem::blocking
