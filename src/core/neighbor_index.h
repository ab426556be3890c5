#ifndef CEM_CORE_NEIGHBOR_INDEX_H_
#define CEM_CORE_NEIGHBOR_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/cover.h"
#include "core/match_set.h"
#include "data/entity.h"

namespace cem::core {

/// Index from entities to the neighborhoods containing them — the
/// Neighbor(·) function of Algorithms 1 and 3: given newly found matches,
/// which neighborhoods are affected and must be re-activated?
///
/// A neighborhood is affected by a match (u, v) iff it contains *both*
/// endpoints: evidence is conditioned on C x C, so a pair with an endpoint
/// outside C cannot change C's inference.
class NeighborIndex {
 public:
  explicit NeighborIndex(const Cover& cover);

  /// Neighborhood ids containing entity `e` (sorted).
  const std::vector<uint32_t>& NeighborhoodsOf(data::EntityId e) const;

  /// Neighborhood ids affected by any of `pairs` (sorted, unique):
  /// core::AffectedBy over this index.
  std::vector<uint32_t> AffectedBy(
      const std::vector<data::EntityPair>& pairs) const;

 private:
  std::vector<std::vector<uint32_t>> by_entity_;
  static const std::vector<uint32_t> kEmpty;
};

}  // namespace cem::core

#endif  // CEM_CORE_NEIGHBOR_INDEX_H_
