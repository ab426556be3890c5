#ifndef CEM_CORE_COVER_H_
#define CEM_CORE_COVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/entity.h"
#include "util/execution_context.h"

namespace cem::core {

class Cover;

/// A neighborhood: a small subset of the entities (Section 4). Kept sorted
/// and duplicate-free.
struct Neighborhood {
  std::vector<data::EntityId> entities;
};

/// Instrumentation of a cover-construction pass, for the blocking ablation:
/// how much work the candidate-generation stage did.
struct BlockingStats {
  /// Number of (doc, doc) pairs the blocking pass scored or bucketed
  /// together — the dominant cost of candidate generation.
  size_t pairs_considered = 0;
};

/// One entity's row of a CoverMembership, in serializable form: the
/// persistence layer saves and restores memberships through these (the
/// first-home repair target is real state — it is not derivable from the
/// sorted homes once later neighborhoods have grown around the entity).
struct MembershipEntry {
  data::EntityId entity = 0;
  uint32_t first_home = 0;
  std::vector<uint32_t> homes;  // Sorted, unique.

  friend bool operator==(const MembershipEntry&,
                         const MembershipEntry&) = default;
};

/// Entity -> neighborhood membership of a cover: the one index behind
/// Neighbor(·) of Algorithms 1 and 3, the totality patches and the cover
/// checks of Definition 7 — all of which ask whether some neighborhood
/// holds both entities. A dense table indexed by entity id, each row the
/// entity's sorted neighborhood ids plus its *first* home: the repair
/// target of PatchPairCoverage, which is the first neighborhood recorded,
/// not the lowest one, once an entity joins a lower neighborhood later.
///
/// Every Cover owns one (Cover::membership()) and keeps it current. The
/// streaming layer also keeps a second one by hand: the core membership of
/// its incremental cover. Read methods are safe to call concurrently as
/// long as no Add() runs (the speculative patch scans rely on this). Add()
/// may grow the table, which invalidates references returned by HomesOf.
class CoverMembership {
 public:
  /// Empty membership (streaming: the cover grows from nothing).
  CoverMembership() = default;

  /// Membership of `cover`, counted from its neighborhoods. They are
  /// recorded in index order, so FirstHome is each entity's lowest
  /// containing neighborhood.
  explicit CoverMembership(const Cover& cover);

  /// True if `e` belongs to at least one neighborhood.
  bool Contains(data::EntityId e) const { return !HomesOf(e).empty(); }

  /// True if some neighborhood contains both `a` and `b`.
  bool Together(data::EntityId a, data::EntityId b) const;

  /// The first neighborhood `e` was ever recorded in (the patch passes'
  /// repair target). `e` must be contained.
  uint32_t FirstHome(data::EntityId e) const;

  /// Sorted ids of the neighborhoods containing `e` (empty if none).
  const std::vector<uint32_t>& HomesOf(data::EntityId e) const {
    return e < rows_.size() ? rows_[e].homes : kEmptyHomes;
  }

  /// Records `e` in neighborhood `n`; returns true if the pair was new.
  bool Add(data::EntityId e, uint32_t n);

  /// Number of entities with at least one home.
  size_t num_entities() const { return num_entities_; }

  /// Every entity's row, sorted by entity id — the serializable view of
  /// the whole membership (deterministic bytes for the snapshot format).
  std::vector<MembershipEntry> SortedEntries() const;

  /// Rebuilds a membership from SortedEntries() output. Entries must name
  /// ascending, unique entities, each with sorted unique homes containing
  /// first_home. The largest entity sizes the table, so ids read from a
  /// file must be range-checked first.
  static CoverMembership FromEntries(std::vector<MembershipEntry> entries);

 private:
  struct Entry {
    uint32_t first_home = 0;
    std::vector<uint32_t> homes;  // Sorted, unique; empty: no home.
  };
  /// Indexed by entity id.
  std::vector<Entry> rows_;
  size_t num_entities_ = 0;
  static const std::vector<uint32_t> kEmptyHomes;
};

/// A cover: a set of (potentially overlapping) neighborhoods whose union is
/// the set of entities under consideration (here: the author references —
/// papers participate through relations only). It owns its membership, and
/// every mutator keeps it current.
class Cover {
 public:
  Cover() = default;
  explicit Cover(std::vector<Neighborhood> neighborhoods);

  size_t size() const { return neighborhoods_.size(); }
  bool empty() const { return neighborhoods_.empty(); }
  const Neighborhood& neighborhood(size_t i) const { return neighborhoods_[i]; }
  const std::vector<Neighborhood>& neighborhoods() const {
    return neighborhoods_;
  }

  /// Entity -> neighborhood index of this cover. An entity's first home is
  /// the first neighborhood it joined through Add or AddEntityTo; a cover
  /// built from a neighborhood list records the lowest one.
  const CoverMembership& membership() const { return membership_; }

  /// Adds a neighborhood (sorted/deduplicated on insert); returns its index.
  size_t Add(std::vector<data::EntityId> entities);

  /// Adds `entity` to neighborhood `i`; returns false if it was there.
  bool AddEntityTo(size_t i, data::EntityId entity);

  /// Largest neighborhood size (the paper's k).
  size_t MaxNeighborhoodSize() const;

  /// Mean neighborhood size.
  double MeanNeighborhoodSize() const;

  /// Candidate pairs with both endpoints in neighborhood `i`.
  size_t ContainedPairs(const data::Dataset& dataset, size_t i) const;

  /// Total candidate pairs contained in some neighborhood, counted with
  /// multiplicity (the paper reports e.g. "13K neighborhoods containing a
  /// total of 1.3M entity pairs").
  size_t TotalContainedPairs(const data::Dataset& dataset) const;

  /// True if every author reference appears in some neighborhood.
  bool CoversAllAuthorRefs(const data::Dataset& dataset) const;

  /// True if this is a *total cover* w.r.t. Coauthor (Definition 7): every
  /// Coauthor tuple lies inside some neighborhood.
  bool IsTotalForCoauthor(const data::Dataset& dataset) const;

  /// Fraction of candidate pairs contained in at least one neighborhood
  /// (1.0 means total w.r.t. the Similar relation).
  double CandidatePairCoverage(const data::Dataset& dataset) const;

  /// One-line summary for logs and bench output.
  std::string Summary(const data::Dataset& dataset) const;

 private:
  /// Grows neighborhoods in parallel, then rebuilds membership_ once.
  friend void ExpandCoauthorBoundary(const data::Dataset& dataset,
                                     Cover& cover,
                                     const ExecutionContext& ctx);

  std::vector<Neighborhood> neighborhoods_;
  CoverMembership membership_;
};

// --- totality patches -------------------------------------------------------
// Shared by every cover builder (canopy, LSH, future strategies): a raw
// blocking pass rarely produces a cover satisfying Definition 7 on its own,
// so builders run these two patches as a post-pass.

/// Instrumentation of a PatchPairCoverage pass. Both counters are
/// deterministic for any thread count (the speculative batches are a fixed
/// size, so the same pairs are rechecked no matter how the scans were
/// scheduled).
struct PatchStats {
  /// Split pairs repaired into a neighborhood of their first endpoint.
  size_t pairs_patched = 0;
  /// Speculatively-split pairs re-verified serially because an earlier
  /// repair in the same batch had already mutated the cover.
  size_t pairs_rechecked = 0;
};

/// Makes `cover` total w.r.t. Similar: every candidate pair ends up inside
/// some neighborhood (any pair the blocking pass split is patched into a
/// neighborhood of its first endpoint). Every author ref must already be
/// covered.
///
/// Parallel *and* bit-identical to the serial pass for any thread count:
/// split-pair detection runs in fixed-size batches on `ctx`'s pool against
/// the cover's membership as of the previous batch, while the repairs
/// themselves replay serially in candidate-pair order. Neighborhood
/// membership only ever grows, so a speculative "together" verdict is
/// final; a speculative "split" verdict is re-verified serially when an
/// earlier repair in the same batch touched the map.
void PatchPairCoverage(
    const data::Dataset& dataset, Cover& cover,
    const ExecutionContext& ctx = ExecutionContext::Default(),
    PatchStats* stats = nullptr);

/// Boundary expansion (Section 4): adds each member's coauthors to its
/// neighborhoods, making `cover` total w.r.t. Coauthor (Definition 7). This
/// is what brings dissimilar entities — and in general entities of other
/// types — into a neighborhood. Neighborhoods are expanded in parallel on
/// `ctx` (each worker owns whole neighborhoods, so the result is identical
/// for any thread count); the cover's membership is rebuilt once at the
/// end, so every entity's first home becomes its lowest one.
void ExpandCoauthorBoundary(
    const data::Dataset& dataset, Cover& cover,
    const ExecutionContext& ctx = ExecutionContext::Default());

}  // namespace cem::core

#endif  // CEM_CORE_COVER_H_
