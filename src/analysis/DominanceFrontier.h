//===- analysis/DominanceFrontier.h - DF and iterated DF -------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominance frontiers (Cytron et al. 1991) and the iterated dominance
/// frontier (DF+), used for phi insertion during SSA construction and for
/// the Phi-Insertion step of SSAPRE/MC-SSAPRE.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_ANALYSIS_DOMINANCEFRONTIER_H
#define SPECPRE_ANALYSIS_DOMINANCEFRONTIER_H

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"

#include <vector>

namespace specpre {

/// Per-block dominance frontiers.
class DominanceFrontier {
public:
  DominanceFrontier(const Cfg &C, const DomTree &DT);

  /// Dominance frontier of block \p B (sorted, no duplicates).
  const std::vector<BlockId> &frontier(BlockId B) const { return Df[B]; }

  /// Iterated dominance frontier DF+ of the given seed set (sorted). Its
  /// cost follows the frontiers it visits, not the function: membership
  /// marks persist between calls, so one object must not be queried from
  /// two threads at once.
  std::vector<BlockId> iterated(const std::vector<BlockId> &Seeds) const;

private:
  std::vector<std::vector<BlockId>> Df;
  /// Per block, the iterated() call that last reached it (0 = none yet).
  mutable std::vector<unsigned> ReachedBy;
  mutable unsigned Calls = 0;
};

} // namespace specpre

#endif // SPECPRE_ANALYSIS_DOMINANCEFRONTIER_H
