//===- pre/McSsaPre.h - MC-SSAPRE speculative placement --------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Steps 3-8 of MC-SSAPRE (paper Figure 4): sparse data-flow on the FRG
/// (full availability, partial anticipability), graph reduction, the
/// essential flow graph (EFG) with artificial source and sink, the
/// minimum cut (Reverse Labeling for later/lifetime-optimal cuts), and
/// the derivation of the insert / will_be_avail attributes (Figure 7) so
/// SSAPRE's Finalize and CodeMotion can be reused unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_MCSSAPRE_H
#define SPECPRE_PRE_MCSSAPRE_H

#include "mincut/MinCut.h"
#include "pre/Frg.h"
#include "profile/Profile.h"

#include <vector>

namespace specpre {

/// What the minimum cut minimizes (paper Section 6 sketches the
/// code-size direction, following Scholz et al.): every EFG edge gets
/// weight `freq * SpeedWeight + SizeWeight`, so the cut cost blends the
/// dynamic computation count with the static occurrence count.
struct CutObjective {
  uint64_t SpeedWeight = 1; ///< Cost per dynamic execution.
  uint64_t SizeWeight = 0;  ///< Cost per static occurrence.

  /// The paper's objective: minimize dynamic computations (Theorem 7).
  static CutObjective speed() { return CutObjective{1, 0}; }
  /// Section-6 extension: minimize static occurrences of the expression.
  static CutObjective size() { return CutObjective{0, 1}; }
  /// Speed first, code size as the tie-breaker.
  static CutObjective speedThenSize() {
    return CutObjective{1u << 16, 1};
  }
};

/// Problem-size and outcome statistics of one MC-SSAPRE run, feeding the
/// Figure 11 reproduction (EFG size distribution).
struct EfgStats {
  bool Empty = true;        ///< No strictly partial redundancy: no cut run.
  unsigned NumNodes = 0;    ///< Including artificial source and sink.
  unsigned NumEdges = 0;
  int64_t CutWeight = 0;    ///< Min-cut capacity (== max flow).
  unsigned NumCutEdges = 0;
  unsigned NumInsertions = 0;
  unsigned NumComputeInPlace = 0; ///< Type-2 edges in the cut.

  // Reconciliation numbers (all in weight units of the cut objective;
  // with CutObjective::speed() a weight is exactly a frequency). They tie
  // the cut capacity to the dynamic evaluations the placement commits to
  // pay for the strictly-partially-redundant occurrences:
  //   CutWeight == InsertedWeight + InPlaceWeight  and
  //   CutWeight <= SprWeight (the trivial everything-in-place cut).
  // The fuzzing oracles check both (see workload/FuzzOracles.h).
  int64_t SprWeight = 0;      ///< Sum of all type-2 edge weights.
  int64_t InsertedWeight = 0; ///< Type-1 (insertion) cut-edge weights.
  int64_t InPlaceWeight = 0;  ///< Type-2 (in-place) cut-edge weights.
  bool Saturated = false;     ///< Some finite weight hit MaxFiniteCapacity;
                              ///< exact reconciliation no longer holds.

  // Leg D (pre/Lospre.h) observations; zero when the max-flow leg ran.
  unsigned TdWidth = 0;    ///< Tree-decomposition width of the EFG core.
  unsigned TdBags = 0;     ///< Bags in the decomposition.
  uint64_t DpEntries = 0;  ///< Total DP table entries evaluated.
};

/// The essential flow graph of one candidate expression, together with
/// the mapping from finite edges back to placement actions. Produced by
/// buildEfgNetwork (steps 3-6) and solved by computeSpeculativePlacement
/// (steps 7-8); exposed so the equivalence tests and the fuzzer can run
/// every max-flow algorithm over the very networks the placement step
/// forms. buildEfgNetwork refills a build in place, so a build reused
/// across expressions keeps the storage of its vectors.
struct EfgBuild {
  FlowNetwork Net;
  int Source = -1, Sink = -1;
  bool Empty = true;     ///< No strictly partial redundancy: Net unused.
  unsigned NumEdges = 0; ///< Original (non-residual) edges added.

  /// What cutting a finite edge means, indexed by the edge's UserTag.
  struct Action {
    enum class Kind { InsertAtOperand, ComputeInPlace };
    Kind K = Kind::InsertAtOperand;
    int PhiIdx = -1, OpIdx = -1; ///< InsertAtOperand
    int RealIdx = -1;            ///< ComputeInPlace
  };
  std::vector<Action> Actions;

  /// Strictly-partially-redundant real occurrences (their type-2 edges
  /// are the network's compute-in-place options).
  std::vector<int> SprReals;

  int64_t SprWeight = 0; ///< Sum of all type-2 edge weights.
  bool Saturated = false; ///< Some finite weight hit MaxFiniteCapacity.

  /// The build's scratch: the network node of each Φ and each real
  /// occurrence of the FRG, -1 when it is not in the network.
  std::vector<int> PhiNode, RealNode;
};

/// Steps 3-6 on \p G: the sparse data flow (full availability, partial
/// anticipability), graph reduction, and — over the same network, built
/// once — the single-source step (type-1 edges from the artificial
/// source) and the single-sink step (infinite edges into the artificial
/// sink). Resets the Insert/WillBeAvail flags of \p G. Refills \p B,
/// whatever it held before, and keeps its storage.
void buildEfgNetwork(Frg &G, const Profile &Prof, CutObjective Objective,
                     EfgBuild &B);

/// Runs steps 3-8 on \p G under \p Prof (node frequencies only — the
/// paper's point in Section 4). Sets WillBeAvail and operand Insert flags.
EfgStats computeSpeculativePlacement(
    Frg &G, const Profile &Prof,
    CutPlacement Placement = CutPlacement::Latest,
    MaxFlowAlgorithm Algo = MaxFlowAlgorithm::Dinic,
    CutObjective Objective = CutObjective::speed());

/// Step 8 alone (paper Figure 7): recomputes WillBeAvail for all Φs of
/// \p G from the current Insert flags by forward propagation of full
/// availability. Exposed for tests (Lemma 8).
void computeWillBeAvailFromInserts(Frg &G);

/// Steps 7b-8, shared by the max-flow leg and the treewidth leg
/// (pre/Lospre.h): validates \p Cut against \p B's network (throwing a
/// recoverable InternalError on an invalid or infinite-crossing cut),
/// applies the cut's placement actions to \p G's operand Insert flags,
/// tallies CutWeight / insertion / in-place statistics into \p Stats,
/// and recomputes WillBeAvail (Figure 7). \p LegName labels diagnostics.
void applyEfgCut(Frg &G, EfgBuild &B, const MinCutResult &Cut,
                 const char *LegName, EfgStats &Stats);

} // namespace specpre

#endif // SPECPRE_PRE_MCSSAPRE_H
