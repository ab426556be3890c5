#include "core/neighbor_index.h"

#include "core/message_passing.h"

namespace cem::core {

const std::vector<uint32_t> NeighborIndex::kEmpty;

NeighborIndex::NeighborIndex(const Cover& cover) {
  for (uint32_t i = 0; i < cover.size(); ++i) {
    for (data::EntityId e : cover.neighborhood(i).entities) {
      if (e >= by_entity_.size()) by_entity_.resize(e + 1);
      by_entity_[e].push_back(i);
    }
  }
  // Insertion order is already ascending in i; nothing to sort.
}

const std::vector<uint32_t>& NeighborIndex::NeighborhoodsOf(
    data::EntityId e) const {
  if (e >= by_entity_.size()) return kEmpty;
  return by_entity_[e];
}

std::vector<uint32_t> NeighborIndex::AffectedBy(
    const std::vector<data::EntityPair>& pairs) const {
  return core::AffectedBy(
      [this](data::EntityId e) -> const std::vector<uint32_t>& {
        return NeighborhoodsOf(e);
      },
      pairs);
}

}  // namespace cem::core
