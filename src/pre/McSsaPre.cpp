//===- pre/McSsaPre.cpp - MC-SSAPRE speculative placement --------------------===//

#include "pre/McSsaPre.h"

#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "support/PassTimer.h"

#include <cassert>
#include <optional>
#include <vector>

using namespace specpre;

namespace {

/// Step 3a: full availability on the FRG. A Φ is fully available iff
/// every operand carries the value: non-⊥ and either crossed a real
/// occurrence or is defined by a fully available Φ. Optimistic
/// initialization + falseness propagation over def-use edges.
void computeFullAvailability(Frg &G) {
  std::vector<std::vector<int>> Uses(G.phis().size());
  for (unsigned GI = 0; GI != G.phis().size(); ++GI)
    for (const PhiOperand &Op : G.phis()[GI].Operands)
      if (!Op.isBottom() && !Op.HasRealUse && Op.Def.isPhi())
        Uses[Op.Def.Index].push_back(static_cast<int>(GI));

  for (PhiOcc &P : G.phis())
    P.FullyAvail = true;

  std::vector<int> Work;
  for (unsigned I = 0; I != G.phis().size(); ++I) {
    for (const PhiOperand &Op : G.phis()[I].Operands) {
      if (Op.isBottom()) {
        G.phis()[I].FullyAvail = false;
        Work.push_back(static_cast<int>(I));
        break;
      }
    }
  }
  while (!Work.empty()) {
    int F = Work.back();
    Work.pop_back();
    for (int User : Uses[F]) {
      if (!G.phis()[User].FullyAvail)
        continue;
      G.phis()[User].FullyAvail = false;
      Work.push_back(User);
    }
  }
}

/// Step 3b: partial anticipability on the FRG. A Φ is partially
/// anticipated iff its value reaches some real occurrence, directly (a
/// real occurrence in its class) or through downstream Φs. Pessimistic
/// initialization + trueness propagation backwards over def-use edges.
void computePartialAnticipability(Frg &G) {
  for (PhiOcc &P : G.phis())
    P.PartAnt = false;

  std::vector<int> Work;
  for (const RealOcc &R : G.reals()) {
    OccRef Def = G.classDef(R.Class);
    if (!Def.isPhi())
      continue;
    PhiOcc &P = G.phiOf(Def);
    if (!P.PartAnt) {
      P.PartAnt = true;
      Work.push_back(Def.Index);
    }
  }
  while (!Work.empty()) {
    int GI = Work.back();
    Work.pop_back();
    for (const PhiOperand &Op : G.phis()[GI].Operands) {
      if (Op.isBottom() || Op.HasRealUse || !Op.Def.isPhi())
        continue;
      PhiOcc &P = G.phis()[Op.Def.Index];
      if (!P.PartAnt) {
        P.PartAnt = true;
        Work.push_back(Op.Def.Index);
      }
    }
  }
}

} // namespace

void specpre::computeWillBeAvailFromInserts(Frg &G) {
  // Paper Figure 7: will_be_avail == full availability after performing
  // the insertions recorded in the Insert flags.
  std::vector<std::vector<std::pair<int, int>>> Uses(G.phis().size());
  for (unsigned GI = 0; GI != G.phis().size(); ++GI) {
    const PhiOcc &P = G.phis()[GI];
    for (unsigned OI = 0; OI != P.Operands.size(); ++OI) {
      const PhiOperand &Op = P.Operands[OI];
      if (!Op.isBottom() && !Op.HasRealUse && Op.Def.isPhi())
        Uses[Op.Def.Index].emplace_back(static_cast<int>(GI),
                                        static_cast<int>(OI));
    }
  }

  for (PhiOcc &P : G.phis())
    P.WillBeAvail = true;

  std::vector<int> Work;
  auto Reset = [&](int F) {
    G.phis()[F].WillBeAvail = false;
    Work.push_back(F);
  };
  for (unsigned I = 0; I != G.phis().size(); ++I) {
    for (const PhiOperand &Op : G.phis()[I].Operands) {
      if (Op.isBottom() && !Op.Insert && G.phis()[I].WillBeAvail) {
        Reset(static_cast<int>(I));
        break;
      }
    }
  }
  while (!Work.empty()) {
    int F = Work.back();
    Work.pop_back();
    for (auto [User, OpIdx] : Uses[F]) {
      PhiOcc &P = G.phis()[User];
      if (!P.WillBeAvail || P.Operands[OpIdx].Insert)
        continue;
      Reset(User);
    }
  }
}

void specpre::buildEfgNetwork(Frg &G, const Profile &Prof,
                              CutObjective Objective, EfgBuild &B) {
  B.Net.clear();
  B.Source = B.Sink = -1;
  B.Empty = true;
  B.NumEdges = 0;
  B.Actions.clear();
  B.SprReals.clear();
  B.SprWeight = 0;
  B.Saturated = false;

  auto EdgeWeight = [&](uint64_t Freq) {
    int64_t W =
        saturatedEdgeWeight(Freq, Objective.SpeedWeight, Objective.SizeWeight);
    B.Saturated |= W == MaxFiniteCapacity;
    return W;
  };
  // Frequency of a Φ operand edge. The flow network models an insertion
  // on the CFG edge Pred -> Φ block, so the weight is that edge's
  // frequency when the profile carries edge counts. With only node
  // counts, blockFreq(Pred) is used instead — exact whenever critical
  // edges are split (Pred then has a single successor), which is the
  // paper's node-profiles-suffice argument; on an unsplit critical edge
  // the block count overstates the edge count and would misprice the
  // insertion.
  auto OperandFreq = [&](const PhiOperand &Op, BlockId PhiBlock) {
    return Prof.HasEdgeFreqs ? Prof.edgeFreq(Op.Pred, PhiBlock)
                             : Prof.blockFreq(Op.Pred);
  };
  // Type-2 edges always pay the occurrence block's frequency; the NDEBUG
  // consistency check below must use the same weighting.
  auto Type2Weight = [&](const RealOcc &R) {
    return EdgeWeight(Prof.blockFreq(R.Block));
  };

  for (PhiOcc &P : G.phis()) {
    P.WillBeAvail = false;
    for (PhiOperand &Op : P.Operands)
      Op.Insert = false;
  }

  {
    // Step 3: sparse data flow on the SSA graph.
    PassTimer T(PipelineStep::DataFlow,
                G.phis().size() + G.reals().size());
    maybeInject(FaultSite::DataFlow, "availability/anticipability");
    computeFullAvailability(G);
    computePartialAnticipability(G);
  }

  std::optional<PassTimer> ReductionTimer(std::in_place,
                                          PipelineStep::Reduction);
  maybeInject(FaultSite::Reduction, "reduced SSA graph");

  // Step 4: the reduced SSA graph.
  for (PhiOcc &P : G.phis())
    P.InReducedGraph = !P.FullyAvail && P.PartAnt;

  // The strictly-partially-redundant occurrences: uses of included Φs
  // that are not rg_excluded.
  std::vector<int> &SprReals = B.SprReals;
  for (unsigned RI = 0; RI != G.reals().size(); ++RI) {
    const RealOcc &R = G.reals()[RI];
    if (R.RgExcluded || !R.Def.isPhi())
      continue;
    const PhiOcc &DefPhi = G.phiOf(R.Def);
    if (DefPhi.InReducedGraph)
      SprReals.push_back(static_cast<int>(RI));
    else
      // The defining Φ can only be excluded because the expression is
      // fully available there (a use keeps it partially anticipated), in
      // which case this occurrence is fully redundant.
      assert(DefPhi.FullyAvail &&
             "use of an excluded Φ that is not fully available");
  }

  if (SprReals.empty()) {
    // No strictly partial redundancy: no flow network is formed (the
    // paper's empty-EFG case).
    ReductionTimer->setProblemSize(0);
    return;
  }

  // One network serves the remaining build steps: graph reduction chose
  // its nodes, the single-source step adds the type-1 edges, the
  // single-sink step the infinite sink edges.
  B.Source = B.Net.addNode();
  B.Sink = B.Net.addNode();
  std::vector<int> &PhiNode = B.PhiNode, &RealNode = B.RealNode;
  PhiNode.assign(G.phis().size(), -1);
  for (unsigned I = 0; I != G.phis().size(); ++I)
    if (G.phis()[I].InReducedGraph)
      PhiNode[I] = B.Net.addNode();
  RealNode.assign(G.reals().size(), -1);
  for (int RI : SprReals)
    RealNode[RI] = B.Net.addNode();

  auto AddEdge = [&](int From, int To, int64_t Weight, EfgBuild::Action A) {
    B.Net.addEdge(From, To, Weight, static_cast<int>(B.Actions.size()));
    B.Actions.push_back(A);
  };

  for (unsigned GI = 0; GI != G.phis().size(); ++GI) {
    PhiOcc &P = G.phis()[GI];
    if (!P.InReducedGraph)
      continue;
    for (unsigned OI = 0; OI != P.Operands.size(); ++OI) {
      const PhiOperand &Op = P.Operands[OI];
      EfgBuild::Action A;
      A.K = EfgBuild::Action::Kind::InsertAtOperand;
      A.PhiIdx = static_cast<int>(GI);
      A.OpIdx = static_cast<int>(OI);
      int64_t Weight = EdgeWeight(OperandFreq(Op, P.Block));
      if (Op.isBottom()) {
        // Step 5: type-1 edge from the artificial source, weighted with
        // the frequency of the Pred -> Φ block edge. Insert-blocked
        // operands (no lexical insertion can supply the value there) get
        // infinite weight: the Φ stays unavailable and its uses pay
        // their type-2 edges instead.
        AddEdge(B.Source, PhiNode[GI],
                Op.InsertBlocked ? InfiniteCapacity : Weight, A);
        ++B.NumEdges;
        continue;
      }
      if (Op.HasRealUse)
        continue; // value computed on this path: never an insertion point
      assert(Op.Def.isPhi() && "non-real-use operand defined by a real");
      if (PhiNode[Op.Def.Index] < 0) {
        assert(G.phis()[Op.Def.Index].FullyAvail &&
               "excluded def Φ must be fully available");
        continue; // value arrives for free
      }
      AddEdge(PhiNode[Op.Def.Index], PhiNode[GI], Weight, A);
      ++B.NumEdges;
    }
  }
  for (int RI : SprReals) {
    const RealOcc &R = G.reals()[RI];
    EfgBuild::Action A;
    A.K = EfgBuild::Action::Kind::ComputeInPlace;
    A.RealIdx = RI;
    // Type-2 edge: cutting it means computing in place at the occurrence.
    int64_t W = Type2Weight(R);
    B.SprWeight += W;
    AddEdge(PhiNode[R.Def.Index], RealNode[RI], W, A);
    // Step 6: infinite edge to the artificial sink (tag -1: never cut).
    B.Net.addEdge(RealNode[RI], B.Sink, InfiniteCapacity, -1);
    B.NumEdges += 2;
  }

  B.Empty = false;
  ReductionTimer->setProblemSize(B.Net.numNodes() + B.NumEdges);
}

EfgStats specpre::computeSpeculativePlacement(Frg &G, const Profile &Prof,
                                              CutPlacement Placement,
                                              MaxFlowAlgorithm Algo,
                                              CutObjective Objective) {
  EfgStats Stats;

  // One build per worker thread, refilled per expression: its vectors
  // keep their storage, so in steady state the build makes no heap
  // allocation at all.
  static thread_local EfgBuild B;
  buildEfgNetwork(G, Prof, Objective, B);
  Stats.Saturated = B.Saturated;
  Stats.SprWeight = B.SprWeight;
  if (B.Empty) {
    // Full redundancies are still harvested by Finalize through
    // will_be_avail.
    computeWillBeAvailFromInserts(G);
    return Stats;
  }

  Stats.Empty = false;
  Stats.NumNodes = static_cast<unsigned>(B.Net.numNodes());
  Stats.NumEdges = B.NumEdges;
  FlowNetwork &Net = B.Net;

  PassTimer MinCutTimer(PipelineStep::MinCut, Stats.NumNodes + B.NumEdges);
  if (BudgetTracker *Bt = currentBudget()) {
    throwIfError(Bt->checkGraphNodes(Stats.NumNodes, "EFG min-cut"));
    throwIfError(Bt->checkDeadline("EFG min-cut"));
  }
  maybeInject(FaultSite::MinCut, "EFG minimum cut");
  maybeInject(FaultSite::Budget, "EFG min-cut boundary");

  // Step 7: minimum cut, picking later cuts on ties via reverse labeling.
  MinCutResult Cut = computeMinCut(Net, B.Source, B.Sink, Placement, Algo);

  // Steps 7b-8: validation, cut application, Figure-7 propagation.
  applyEfgCut(G, B, Cut, "MC-SSAPRE", Stats);
  return Stats;
}

void specpre::applyEfgCut(Frg &G, EfgBuild &B, const MinCutResult &Cut,
                          const char *LegName, EfgStats &Stats) {
  FlowNetwork &Net = B.Net;
  Stats.CutWeight = Cut.Capacity;
  Stats.NumCutEdges = static_cast<unsigned>(Cut.CutEdgeIds.size());

  // Always-on cut validation: an invalid cut here would silently produce
  // a wrong (though still verifier-clean) placement, so a failure is
  // recoverable — the degradation ladder retries on a conservative
  // strategy rather than aborting the process.
  {
    std::string CutError;
    maybeInject(FaultSite::Verify, "min-cut validation");
    Net.freeze();
    if (!verifyMinCut(Net, B.Source, B.Sink, Cut, CutError))
      throw StatusException(ErrorCode::InternalError,
                            std::string(LegName) +
                                " minimum cut failed validation: " +
                                CutError);
  }

  for (int EdgeId : Cut.CutEdgeIds) {
    int Tag = Net.edgeTag(EdgeId);
    if (Tag < 0)
      // An infinite sink edge in the cut means a finite weight aliased
      // InfiniteCapacity — impossible since weights saturate at
      // MaxFiniteCapacity. Recoverable: the ladder falls back to a
      // strategy that does not price edges at all.
      throw StatusException(
          ErrorCode::InternalError,
          "infinite sink edge in the " + std::string(LegName) +
              " minimum cut (finite capacity aliased the infinite edges)");
    const EfgBuild::Action &A = B.Actions[Tag];
    if (A.K == EfgBuild::Action::Kind::InsertAtOperand) {
      assert(!G.phis()[A.PhiIdx].Operands[A.OpIdx].InsertBlocked &&
             "minimum cut crossed an insert-blocked operand");
      G.phis()[A.PhiIdx].Operands[A.OpIdx].Insert = true;
      ++Stats.NumInsertions;
      Stats.InsertedWeight += Net.edgeCapacity(EdgeId);
    } else {
      // Compute in place: no insertion; the defining Φ simply does not
      // become available, which Figure 7 derives below.
      ++Stats.NumComputeInPlace;
      Stats.InPlaceWeight += Net.edgeCapacity(EdgeId);
    }
  }

  // Step 8.
  computeWillBeAvailFromInserts(G);

#ifndef NDEBUG
  // Consistency of the cut with the Figure-7 propagation: an SPR
  // occurrence whose type-2 edge is in the cut computes in place (its Φ
  // must not be available), every other SPR occurrence reloads (its Φ
  // must be available). The one legitimate exception: a zero-frequency
  // occurrence (its block never ran in training) may have its free
  // type-2 edge in the cut even though the Φ is available — computing in
  // place and reloading both cost nothing, so either is optimal; Figure 7
  // (availability) then wins and the occurrence reloads.
  {
    std::vector<bool> InPlace(G.reals().size(), false);
    std::vector<int64_t> Type2Weight(G.reals().size(), -1);
    for (int E = 0; E != Net.numOriginalEdges(); ++E) {
      int Tag = Net.edgeTag(E);
      if (Tag >= 0 &&
          B.Actions[Tag].K == EfgBuild::Action::Kind::ComputeInPlace)
        Type2Weight[B.Actions[Tag].RealIdx] = Net.edgeCapacity(E);
    }
    for (int EdgeId : Cut.CutEdgeIds) {
      int Tag = Net.edgeTag(EdgeId);
      if (Tag >= 0 &&
          B.Actions[Tag].K == EfgBuild::Action::Kind::ComputeInPlace)
        InPlace[B.Actions[Tag].RealIdx] = true;
    }
    for (int RI : B.SprReals) {
      const PhiOcc &DefPhi = G.phiOf(G.reals()[RI].Def);
      if (Type2Weight[RI] == 0)
        continue;
      assert(DefPhi.WillBeAvail != InPlace[RI] &&
             "cut and will_be_avail disagree on an SPR occurrence");
    }
  }
#endif
}
