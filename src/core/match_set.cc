#include "core/match_set.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/logging.h"
#include "util/union_find.h"

namespace cem::core {

namespace {

/// Capacity of the first table a set allocates.
constexpr size_t kMinCapacity = 16;

}  // namespace

MatchSet::MatchSet(MatchSet&& other) noexcept
    : slots_(std::move(other.slots_)),
      size_(std::exchange(other.size_, 0)),
      shift_(std::exchange(other.shift_, 64)) {
  other.slots_.clear();
}

MatchSet& MatchSet::operator=(MatchSet&& other) noexcept {
  if (this != &other) {
    slots_ = std::move(other.slots_);
    size_ = std::exchange(other.size_, 0);
    shift_ = std::exchange(other.shift_, 64);
    other.slots_.clear();
  }
  return *this;
}

MatchSet::MatchSet(const std::vector<data::EntityPair>& pairs) {
  reserve(pairs.size());
  for (const data::EntityPair& p : pairs) Insert(p);
}

bool MatchSet::ContainsKey(uint64_t key) const {
  if (slots_.empty()) return false;
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeOf(key);; i = (i + 1) & mask) {
    if (slots_[i] == key) return true;
    if (slots_[i] == kEmptyKey) return false;
  }
}

bool MatchSet::InsertKey(uint64_t key) {
  CEM_CHECK(key != kEmptyKey)
      << "the pair (0xffffffff, 0) is not normalised; its key marks empty "
         "slots";
  if (!slots_.empty()) {
    const size_t mask = slots_.size() - 1;
    size_t i = HomeOf(key);
    for (; slots_[i] != kEmptyKey; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
    }
    if ((size_ + 1) * 2 <= slots_.size()) {
      slots_[i] = key;
      ++size_;
      return true;
    }
  }
  Rehash(std::max(kMinCapacity, slots_.size() * 2));
  const size_t mask = slots_.size() - 1;
  size_t i = HomeOf(key);
  while (slots_[i] != kEmptyKey) i = (i + 1) & mask;
  slots_[i] = key;
  ++size_;
  return true;
}

void MatchSet::Rehash(size_t capacity) {
  const std::vector<uint64_t> old =
      std::exchange(slots_, std::vector<uint64_t>(capacity, kEmptyKey));
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (uint64_t key : old) {
    if (key == kEmptyKey) continue;
    size_t i = HomeOf(key);
    while (slots_[i] != kEmptyKey) i = (i + 1) & mask;
    slots_[i] = key;
  }
}

void MatchSet::reserve(size_t n) {
  if (n * 2 <= slots_.size()) return;
  Rehash(std::max(kMinCapacity, std::bit_ceil(n * 2)));
}

size_t MatchSet::InsertAll(const MatchSet& other) {
  size_t added = 0;
  for (uint64_t key : other.keys()) added += InsertKey(key) ? 1 : 0;
  return added;
}

bool MatchSet::Erase(data::EntityPair pair) {
  if (slots_.empty()) return false;
  const uint64_t key = data::PairKey(pair);
  const size_t mask = slots_.size() - 1;
  size_t hole = HomeOf(key);
  for (; slots_[hole] != key; hole = (hole + 1) & mask) {
    if (slots_[hole] == kEmptyKey) return false;
  }
  // Backward-shift deletion: pull back every later key of the probe run
  // whose home does not lie in (hole, slot], so each key stays reachable
  // from its home without crossing an empty slot.
  for (size_t slot = (hole + 1) & mask; slots_[slot] != kEmptyKey;
       slot = (slot + 1) & mask) {
    const size_t home = HomeOf(slots_[slot]);
    if (((slot - home) & mask) >= ((slot - hole) & mask)) {
      slots_[hole] = slots_[slot];
      hole = slot;
    }
  }
  slots_[hole] = kEmptyKey;
  --size_;
  return true;
}

void MatchSet::clear() {
  std::fill(slots_.begin(), slots_.end(), kEmptyKey);
  size_ = 0;
}

size_t MatchSet::IntersectionSize(const MatchSet& other) const {
  const MatchSet& small = size() <= other.size() ? *this : other;
  const MatchSet& large = size() <= other.size() ? other : *this;
  size_t count = 0;
  for (uint64_t key : small.keys()) count += large.ContainsKey(key) ? 1 : 0;
  return count;
}

bool MatchSet::IsSubsetOf(const MatchSet& other) const {
  if (size() > other.size()) return false;
  for (uint64_t key : keys()) {
    if (!other.ContainsKey(key)) return false;
  }
  return true;
}

namespace {

/// `keys` sorted, as pairs: PairKey order is (a, b) order.
std::vector<data::EntityPair> SortedPairsOf(std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  std::vector<data::EntityPair> out;
  out.reserve(keys.size());
  for (uint64_t key : keys) out.push_back(data::PairFromKey(key));
  return out;
}

}  // namespace

std::vector<data::EntityPair> MatchSet::Difference(
    const MatchSet& other) const {
  std::vector<uint64_t> missing;
  for (uint64_t key : keys()) {
    if (!other.ContainsKey(key)) missing.push_back(key);
  }
  return SortedPairsOf(std::move(missing));
}

std::vector<data::EntityPair> MatchSet::SortedPairs() const {
  return SortedPairsOf(std::vector<uint64_t>(keys().begin(), keys().end()));
}

MatchSet TransitiveClosure(const MatchSet& matches) {
  // Compact the mentioned entities, union them, emit all within-component
  // pairs.
  std::unordered_map<data::EntityId, uint32_t> dense;
  std::vector<data::EntityId> ids;
  auto intern = [&](data::EntityId e) {
    auto [it, inserted] = dense.emplace(e, static_cast<uint32_t>(ids.size()));
    if (inserted) ids.push_back(e);
    return it->second;
  };
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint64_t key : matches.keys()) {
    const data::EntityPair p = data::PairFromKey(key);
    edges.emplace_back(intern(p.a), intern(p.b));
  }
  UnionFind uf(ids.size());
  for (const auto& [u, v] : edges) uf.Union(u, v);
  std::vector<std::vector<uint32_t>> groups = uf.Groups();
  MatchSet out;
  for (const auto& group : groups) {
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        out.Insert(data::EntityPair(ids[group[i]], ids[group[j]]));
      }
    }
  }
  return out;
}

std::vector<data::EntityId> ClusterOf(const data::Dataset& dataset,
                                      const MatchSet& matches,
                                      data::EntityId ref) {
  std::vector<data::EntityId> cluster = {ref};
  std::unordered_set<data::EntityId> seen = {ref};
  // BFS over matched candidate pairs. Every match the pipeline produces is
  // a candidate pair (the MLN only grounds candidates), so the dataset's
  // pair adjacency is a complete edge list for the match graph.
  for (size_t head = 0; head < cluster.size(); ++head) {
    const data::EntityId e = cluster[head];
    for (data::PairId pid : dataset.PairsOfEntity(e)) {
      const data::EntityPair p = dataset.candidate_pair(pid).pair;
      if (!matches.Contains(p)) continue;
      const data::EntityId other = p.a == e ? p.b : p.a;
      if (seen.insert(other).second) cluster.push_back(other);
    }
  }
  std::sort(cluster.begin(), cluster.end());
  return cluster;
}

}  // namespace cem::core
