#ifndef CEM_TESTS_TEST_UTIL_H_
#define CEM_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cover.h"
#include "data/dataset.h"
#include "mln/mln_program.h"
#include "stream/incremental_cover.h"
#include "util/random.h"

namespace cem::testing_util {

/// A randomly generated small EM instance (entities, coauthor graph via
/// random papers, random candidate pairs and random attractive MLN
/// weights), for property tests. Deterministic per seed.
class RandomInstance {
 public:
  explicit RandomInstance(uint64_t seed, int min_refs = 6, int max_refs = 10)
      : rng_(seed) {
    dataset_ = std::make_unique<data::Dataset>();
    const int num_refs =
        min_refs + static_cast<int>(rng_.NextBounded(max_refs - min_refs + 1));
    for (int i = 0; i < num_refs; ++i) {
      dataset_->AddAuthorRef("f" + std::to_string(i), "l",
                             static_cast<uint32_t>(rng_.NextBounded(3)));
    }
    const int num_papers = 3 + static_cast<int>(rng_.NextBounded(4));
    for (int p = 0; p < num_papers; ++p) {
      const data::EntityId paper = dataset_->AddPaper("p" + std::to_string(p));
      const int k = 2 + static_cast<int>(rng_.NextBounded(2));
      for (int j = 0; j < k; ++j) {
        dataset_->AddAuthored(
            static_cast<data::EntityId>(rng_.NextBounded(num_refs)), paper);
      }
    }
    dataset_->Finalize();
    for (int a = 0; a < num_refs; ++a) {
      for (int b = a + 1; b < num_refs; ++b) {
        if (rng_.NextBernoulli(0.4)) {
          dataset_->AddCandidatePair(
              a, b,
              static_cast<text::SimilarityLevel>(1 + rng_.NextBounded(3)));
        }
      }
    }
    dataset_->FinalizeCandidatePairs();
    weights_.w_sim[1] = -6.0 + rng_.NextDouble() * 8.0;
    weights_.w_sim[2] = -6.0 + rng_.NextDouble() * 10.0;
    weights_.w_sim[3] = -2.0 + rng_.NextDouble() * 10.0;
    weights_.w_coauthor = rng_.NextDouble() * 6.0;
  }

  data::Dataset& dataset() { return *dataset_; }
  const mln::MlnWeights& weights() const { return weights_; }
  Rng& rng() { return rng_; }

  /// All entity ids (refs and papers).
  std::vector<data::EntityId> AllEntities() const {
    std::vector<data::EntityId> out(dataset_->num_entities());
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<data::EntityId>(i);
    }
    return out;
  }

  /// A random cover of the author refs: random overlapping neighborhoods,
  /// patched so every ref (plus its coauthors) is covered.
  core::Cover RandomCover() {
    core::Cover cover;
    const auto& refs = dataset_->author_refs();
    const int num_neighborhoods = 2 + static_cast<int>(rng_.NextBounded(3));
    for (int i = 0; i < num_neighborhoods; ++i) {
      std::vector<data::EntityId> members;
      for (data::EntityId r : refs) {
        if (rng_.NextBernoulli(0.5)) members.push_back(r);
      }
      if (members.empty()) members.push_back(refs[0]);
      cover.Add(std::move(members));
    }
    // Ensure coverage of every ref: one catch-all neighborhood of leftovers.
    std::vector<data::EntityId> leftovers;
    for (data::EntityId r : refs) {
      bool covered = false;
      for (const auto& n : cover.neighborhoods()) {
        if (std::binary_search(n.entities.begin(), n.entities.end(), r)) {
          covered = true;
          break;
        }
      }
      if (!covered) leftovers.push_back(r);
    }
    if (!leftovers.empty()) cover.Add(std::move(leftovers));
    return cover;
  }

 private:
  Rng rng_;
  std::unique_ptr<data::Dataset> dataset_;
  mln::MlnWeights weights_;
};

/// Entities below `num_entities` whose homes in cover.membership() differ
/// from a fresh counting-pass build over the same neighborhoods: empty
/// exactly when the cover's own membership is current.
inline std::vector<data::EntityId> StaleMembershipRows(
    const core::Cover& cover, size_t num_entities) {
  const core::CoverMembership fresh(cover);
  std::vector<data::EntityId> stale;
  for (data::EntityId e = 0; e < num_entities; ++e) {
    if (cover.membership().HomesOf(e) != fresh.HomesOf(e)) stale.push_back(e);
  }
  return stale;
}

/// Neighborhoods of `icover` whose maintained inside_pairs() differs from
/// a brute-force count of the dataset's candidate pairs with both
/// endpoints inside (empty when every count is exact).
inline std::vector<uint32_t> InsidePairMismatches(
    const stream::IncrementalCover& icover, const data::Dataset& dataset) {
  std::vector<uint32_t> mismatches;
  for (uint32_t n = 0; n < icover.cover().size(); ++n) {
    const std::vector<data::EntityId>& members =
        icover.cover().neighborhood(n).entities;
    const auto inside = [&](data::EntityId e) {
      return std::binary_search(members.begin(), members.end(), e);
    };
    size_t count = 0;
    for (const data::CandidatePair& cp : dataset.candidate_pairs()) {
      if (inside(cp.pair.a) && inside(cp.pair.b)) ++count;
    }
    if (icover.inside_pairs(n) != count) mismatches.push_back(n);
  }
  return mismatches;
}

}  // namespace cem::testing_util

#endif  // CEM_TESTS_TEST_UTIL_H_
