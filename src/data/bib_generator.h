#ifndef CEM_DATA_BIB_GENERATOR_H_
#define CEM_DATA_BIB_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "data/dataset.h"
#include "util/random.h"

namespace cem::data {

/// Configuration of the synthetic bibliography generator.
///
/// The paper's corpora are not redistributable, so we synthesise corpora
/// that reproduce their relevant *structure*:
///  * HEPTH-like — first names abbreviated to initials with high
///    probability, producing many name clashes → fewer, larger canopies;
///  * DBLP-like — full names with small random character mutations (the
///    paper itself injected this noise into DBLP) → many small canopies.
struct BibConfig {
  /// Number of distinct real-world authors.
  uint32_t num_authors = 500;
  /// Number of papers; each paper yields one author reference per author.
  uint32_t num_papers = 800;
  /// Mean number of authors per paper (geometric-ish, >= 1).
  double mean_authors_per_paper = 2.5;
  /// Number of communities; papers draw authors mostly from one community,
  /// giving the coauthor graph its cluster structure.
  uint32_t num_communities = 25;
  /// Probability an author slot is filled from outside the community.
  double cross_community_prob = 0.05;
  /// Zipf exponent for author productivity (0 = uniform).
  double productivity_skew = 0.8;

  /// Probability a reference abbreviates the first name to an initial
  /// ("John" -> "J."). HEPTH-like corpora set this high.
  double abbreviate_prob = 0.0;
  /// Probability a rendered name receives one random character mutation
  /// (substitution/insertion/deletion). DBLP-like corpora set this high.
  double mutate_prob = 0.0;
  /// Probability that a mutated name receives a second edit. Two edits
  /// push a variant from "near-identical" (level 3, matchable by the
  /// similarity rule alone) down to "ambiguous" (level 1-2, needing
  /// collective coauthor evidence) — the regime the paper's message
  /// passing exists for.
  double second_mutation_prob = 0.0;
  /// Probability an author's rendering *drifts* over time: the author uses
  /// one rendering in an early era and different ones later (name changes,
  /// venue conventions). Drift makes coauthor support form chain-like
  /// structures across era boundaries instead of dense parallel cliques —
  /// the cross-neighborhood inference chains of Section 2. Applied twice
  /// (an author can have up to three eras).
  double variant_drift = 0.0;
  /// Probability a single occurrence gets a one-off extra typo on top of
  /// its era rendering.
  double slot_typo_prob = 0.05;
  /// Mean citations per paper (to earlier papers).
  double mean_cites_per_paper = 2.0;
  /// Size of the last-name pool; smaller pools create more name collisions
  /// between *distinct* authors (the disambiguation challenge).
  uint32_t last_name_pool = 120;
  /// RNG seed; equal configs + seeds produce identical datasets.
  uint64_t seed = 42;

  /// Paper-faithful presets, sized by `scale` (1.0 = laptop-friendly
  /// defaults; larger values approach the paper's corpus sizes).
  static BibConfig HepthLike(double scale = 1.0);
  static BibConfig DblpLike(double scale = 1.0);
};

/// A rendered (possibly noisy) author name.
struct RenderedName {
  std::string first;
  std::string last;
};

/// Applies the config's noise model (abbreviation, character mutation) to a
/// clean name. Exposed for tests of the noise model.
RenderedName RenderNoisyName(const BibConfig& config, const std::string& first,
                             const std::string& last, Rng& rng);

/// Generates a labelled synthetic bibliography dataset: papers, author
/// references (noisy names, ground truth = generating author id),
/// Authored/Cites tuples and the derived Coauthor relation. The result is
/// Finalize()d and candidate pairs are built with `candidate_options` on
/// `ctx` (generation itself is serial — it is one seeded random stream —
/// but candidate scoring parallelises).
std::unique_ptr<Dataset> GenerateBibDataset(
    const BibConfig& config, const CandidateOptions& candidate_options = {},
    const ExecutionContext& ctx = ExecutionContext::Default());

}  // namespace cem::data

#endif  // CEM_DATA_BIB_GENERATOR_H_
