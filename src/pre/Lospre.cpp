//===- pre/Lospre.cpp - Linear-time lospre (leg D) ----------------------------===//

#include "pre/Lospre.h"

#include "mincut/TreewidthCut.h"
#include "support/Budget.h"
#include "support/FaultInjector.h"
#include "support/PassTimer.h"

#include <algorithm>

using namespace specpre;

EfgStats specpre::computeLosprePlacement(Frg &G, const Profile &Prof,
                                         CutObjective Objective,
                                         unsigned MaxWidth) {
  EfgStats Stats;

  // Same reuse as the max-flow leg: one build per worker thread,
  // refilled per expression.
  static thread_local EfgBuild B;

  // Steps 3-6 are shared verbatim with MC-SSAPRE: leg D solves the very
  // same network, which is what makes cross-leg cost equality exact.
  buildEfgNetwork(G, Prof, Objective, B);
  Stats.Saturated = B.Saturated;
  Stats.SprWeight = B.SprWeight;
  if (B.Empty) {
    computeWillBeAvailFromInserts(G);
    return Stats;
  }

  Stats.Empty = false;
  Stats.NumNodes = static_cast<unsigned>(B.Net.numNodes());
  Stats.NumEdges = B.NumEdges;

  PassTimer MinCutTimer(PipelineStep::MinCut, Stats.NumNodes + B.NumEdges);
  if (BudgetTracker *Bt = currentBudget()) {
    throwIfError(Bt->checkGraphNodes(Stats.NumNodes, "EFG treewidth cut"));
    throwIfError(Bt->checkDeadline("EFG treewidth cut"));
  }
  maybeInject(FaultSite::MinCut, "EFG treewidth minimum cut");
  maybeInject(FaultSite::Budget, "EFG treewidth cut boundary");

  // Step 7, leg-D flavor: exact minimum cut by DP over a width-bounded
  // tree decomposition. A width bailout is the leg refusing an input
  // outside its linear-time domain, not a failure of the input — the
  // ladder retries the whole function on MC-SSAPRE.
  TreewidthCutStats Tw;
  Expected<MinCutResult> CutOr =
      computeTreewidthMinCut(B.Net, B.Source, B.Sink, MaxWidth, &Tw);
  if (!CutOr) {
    if (PipelineMetrics *M = currentMetricsSink())
      ++M->lospre().Bailouts;
    throw StatusException(CutOr.status());
  }
  Stats.TdWidth = Tw.Width;
  Stats.TdBags = Tw.NumBags;
  Stats.DpEntries = Tw.DpEntries;
  if (PipelineMetrics *M = currentMetricsSink()) {
    LospreCounters &L = M->lospre();
    ++L.Solved;
    L.WidthPeak = std::max(L.WidthPeak, static_cast<uint64_t>(Tw.Width));
    L.DpEntries += Tw.DpEntries;
  }

  // Steps 7b-8: the shared validation + cut application + Figure 7.
  applyEfgCut(G, B, *CutOr, "LOSPRE", Stats);
  return Stats;
}
