#ifndef CEM_CORE_MATCH_SET_H_
#define CEM_CORE_MATCH_SET_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "data/dataset.h"
#include "data/entity.h"

namespace cem::core {

/// A set of entity pairs declared (or assumed) to be matches — the currency
/// of the whole framework: matcher outputs, evidence sets V+ / V−, and
/// messages are all MatchSets.
///
/// One flat open-addressing table of PairKeys: linear probing over a
/// power-of-two capacity with a multiplicative hash, at most half full so
/// that misses (most evidence probes) stop within a few slots, and
/// backward-shift erase, so there are no tombstones. An empty slot holds
/// kEmptyKey, whose high half exceeds its low half: no normalised
/// EntityPair (a <= b) has that key.
class MatchSet {
 public:
  /// The empty-slot sentinel: PairKey of the unnormalised (0xffffffff, 0).
  static constexpr uint64_t kEmptyKey = 0xffffffff00000000ULL;

  /// Forward iterator over the keys, in table order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint64_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint64_t*;
    using reference = const uint64_t&;

    const_iterator() = default;
    reference operator*() const { return *slot_; }
    const_iterator& operator++() {
      ++slot_;
      SkipEmpty();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& x, const const_iterator& y) {
      return x.slot_ == y.slot_;
    }

   private:
    friend class MatchSet;
    const_iterator(const uint64_t* slot, const uint64_t* end)
        : slot_(slot), end_(end) {
      SkipEmpty();
    }
    void SkipEmpty() {
      while (slot_ != end_ && *slot_ == kEmptyKey) ++slot_;
    }

    const uint64_t* slot_ = nullptr;
    const uint64_t* end_ = nullptr;
  };

  /// Read-only view of the set's PairKeys (unsorted).
  class KeyView {
   public:
    const_iterator begin() const {
      return const_iterator(set_->slots_.data(), end_slot());
    }
    const_iterator end() const {
      return const_iterator(end_slot(), end_slot());
    }
    /// 1 if `key` is in the set, else 0.
    size_t count(uint64_t key) const { return set_->ContainsKey(key); }

   private:
    friend class MatchSet;
    explicit KeyView(const MatchSet* set) : set_(set) {}
    const uint64_t* end_slot() const {
      return set_->slots_.data() + set_->slots_.size();
    }
    const MatchSet* set_;
  };

  MatchSet() = default;
  MatchSet(const MatchSet&) = default;
  MatchSet& operator=(const MatchSet&) = default;
  MatchSet(MatchSet&& other) noexcept;
  MatchSet& operator=(MatchSet&& other) noexcept;

  /// Builds a set from a list of pairs.
  explicit MatchSet(const std::vector<data::EntityPair>& pairs);

  /// Inserts `pair`; returns true if it was new.
  bool Insert(data::EntityPair pair) { return InsertKey(data::PairKey(pair)); }

  /// Inserts every pair of `other`; returns the number of new pairs.
  size_t InsertAll(const MatchSet& other);

  /// Removes `pair`; returns true if it was present.
  bool Erase(data::EntityPair pair);

  bool Contains(data::EntityPair pair) const {
    return ContainsKey(data::PairKey(pair));
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Removes every pair; the capacity stays.
  void clear();
  /// Makes room for `n` pairs without a rehash.
  void reserve(size_t n);

  /// Number of pairs present in both sets.
  size_t IntersectionSize(const MatchSet& other) const;

  /// True if every pair of this set is in `other`.
  bool IsSubsetOf(const MatchSet& other) const;

  /// Pairs in this set that are missing from `other`.
  std::vector<data::EntityPair> Difference(const MatchSet& other) const;

  /// All pairs, sorted (deterministic iteration for tests and output).
  std::vector<data::EntityPair> SortedPairs() const;

  /// Unsorted raw iteration.
  KeyView keys() const { return KeyView(this); }

  friend bool operator==(const MatchSet& a, const MatchSet& b) {
    return a.size() == b.size() && a.IsSubsetOf(b);
  }

 private:
  /// Home slot of `key`: the top log2(capacity) bits of a Fibonacci
  /// multiplication. Requires a non-empty table.
  size_t HomeOf(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  bool ContainsKey(uint64_t key) const;
  bool InsertKey(uint64_t key);
  /// Moves every key into a table of `capacity` slots (a power of two).
  void Rehash(size_t capacity);

  std::vector<uint64_t> slots_;  // Empty, or a power-of-two capacity.
  size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity).
};

/// Transitive closure of `matches` over the entities they mention: pairs
/// within each connected component. Appendix A: the transitive closure of a
/// monotone matcher is monotone, so this is a valid post-pass.
MatchSet TransitiveClosure(const MatchSet& matches);

/// The cluster of `ref` under `matches`: every entity reachable from `ref`
/// through matched candidate pairs (BFS over the dataset's candidate-pair
/// adjacency restricted to `matches`), sorted, `ref` included. Equals the
/// connected component TransitiveClosure(matches) would place `ref` in,
/// computed in O(cluster size × pairs per entity) instead of
/// O(|matches|) — the point-query read path of the serving layer. Purely
/// const: safe to call concurrently with other reads, never with
/// MatchSet::Insert.
std::vector<data::EntityId> ClusterOf(const data::Dataset& dataset,
                                      const MatchSet& matches,
                                      data::EntityId ref);

}  // namespace cem::core

#endif  // CEM_CORE_MATCH_SET_H_
