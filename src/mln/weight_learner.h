#ifndef CEM_MLN_WEIGHT_LEARNER_H_
#define CEM_MLN_WEIGHT_LEARNER_H_

#include "data/dataset.h"
#include "mln/grounding.h"
#include "mln/mln_program.h"

namespace cem::mln {

/// Options for weight learning.
struct LearnOptions {
  /// Additive smoothing for match-rate estimates.
  double smoothing = 1.0;
  /// Floor/ceiling for learned log-odds weights.
  double max_abs_weight = 15.0;
};

/// Learns MLN rule weights from a labelled dataset: a closed-form stand-in
/// for the paper's Alchemy training run, whose learned weights are
/// MlnWeights::PaperLearned().
///
/// Estimator: the similarity-rule weight at level s is the smoothed
/// log-odds of a candidate pair at that level being a true match; the
/// coauthor-rule weight is the average log-odds *lift* of having at least
/// one true-matching coauthor support (reflexive or link), controlling for
/// similarity level. A pseudo-likelihood-style estimator — simple, closed
/// form, and on the synthetic corpora it recovers the qualitative shape of
/// the paper's learned weights (negative for levels 1-2, strongly positive
/// for level 3, moderately positive for the coauthor rule).
MlnWeights LearnWeights(const data::Dataset& dataset,
                        const LearnOptions& options = {});

}  // namespace cem::mln

#endif  // CEM_MLN_WEIGHT_LEARNER_H_
