#ifndef CEM_MLN_MLN_PROGRAM_H_
#define CEM_MLN_MLN_PROGRAM_H_

#include <string>

#include "text/similarity_level.h"

namespace cem::mln {

/// The Markov Logic Network of Appendix B, specialised to the entity
/// matching schema. The program has four first-order rules:
///
///   1..3:  similar(e1, e2, s)                             => equals(e1, e2)
///      4:  coauthor(e1, c1) ∧ coauthor(e2, c2)
///           ∧ equals(c1, c2)                              => equals(e1, e2)
///
/// plus the implicit reflexivity rule equals(e, e).
///
/// Grounding semantics (every number of the paper's Section 2.1 worked
/// example follows from it; tests/mln_test.cc checks them in
/// PairGraphTest.GlobalThetaFigure1Demo and
/// MlnMatcherTest.ScoreMatchesPaperArithmetic): the score of a match set S
/// is, up to an additive constant,
///
///   Score(S) =  Σ_p  w_sim[level(p)] · x_p
///            +  Σ_p  w_coauthor · shared_coauthors(p) · x_p     (reflexive)
///            +  Σ_{unordered links {p,q}}  w_coauthor · x_p · x_q
///
/// where a *link* {p, q} between candidate pairs p = (e1,e2), q = (c1,c2)
/// exists iff coauthor(e1,c1) ∧ coauthor(e2,c2) (possibly crossed). Every
/// rule has a single `equals` literal in its implicant, so by the paper's
/// Proposition 4 the induced matcher is monotone and supermodular — and the
/// MAP problem is an s-t min-cut (exact inference).
struct MlnWeights {
  /// w_sim[s] is the weight of the similarity rule at level s ∈ {1,2,3};
  /// index 0 is unused (level-0 pairs are non-candidates).
  double w_sim[4] = {0.0, -2.28, -3.84, 12.75};

  /// Weight of the coauthor rule.
  double w_coauthor = 2.46;

  /// The learned weights the paper reports (Appendix B): -2.28 / -3.84 /
  /// 12.75 for similarity levels 1..3 and 2.46 for the coauthor rule.
  static MlnWeights PaperLearned() { return MlnWeights(); }

  /// The pedagogical weights of Section 2.1: R1 = -5 (any similarity
  /// level), R2 = +8. Reproduces the Figure 1/2 walkthrough exactly.
  static MlnWeights Figure1Demo() {
    MlnWeights w;
    w.w_sim[1] = w.w_sim[2] = w.w_sim[3] = -5.0;
    w.w_coauthor = 8.0;
    return w;
  }

  double SimWeight(text::SimilarityLevel level) const {
    return w_sim[static_cast<int>(level)];
  }

  std::string ToString() const;
};

}  // namespace cem::mln

#endif  // CEM_MLN_MLN_PROGRAM_H_
