//===- pre/McPre.cpp - MC-PRE baseline (Xue & Cai) -----------------------------===//

#include "pre/McPre.h"

#include "analysis/Cfg.h"
#include "pre/EdgeTransform.h"
#include "pre/ExprKey.h"
#include "pre/LexicalDataFlow.h"
#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"

#include <cassert>
#include <deque>
#include <map>
#include <optional>
#include <vector>

using namespace specpre;

namespace {

/// The flow network MC-PRE forms for one expression on the CFG.
struct McPreNetwork {
  FlowNetwork Net;
  int Source = -1, Sink = -1;

  /// Finite-edge actions, indexed by edge tag.
  struct Action {
    enum class Kind { InsertOnEdge, ComputeInPlace };
    Kind K = Kind::InsertOnEdge;
    BlockId From = InvalidBlock, To = InvalidBlock; ///< InsertOnEdge.
  };
  std::vector<Action> Actions;

  /// Pruned problem size: nodes/edges lying on some source-sink path.
  unsigned PrunedNodes = 0, PrunedEdges = 0;
};

/// Builds the network for expression \p E over \p F. Blocks are split
/// into in/out nodes; kill blocks source unavailability; ANTLOC blocks
/// are computation points.
McPreNetwork buildNetwork(const Function &F, const Cfg &C,
                          const LocalExprProps &Local, unsigned EIdx,
                          const Profile &Prof) {
  McPreNetwork M;
  M.Source = M.Net.addNode();
  M.Sink = M.Net.addNode();

  unsigned NB = F.numBlocks();
  std::vector<int> InNode(NB, -1), OutNode(NB, -1);
  for (unsigned B = 0; B != NB; ++B) {
    if (!C.isReachable(static_cast<BlockId>(B)))
      continue;
    InNode[B] = M.Net.addNode();
    OutNode[B] = M.Net.addNode();
  }

  auto AddAction = [&](McPreNetwork::Action A) {
    M.Actions.push_back(A);
    return static_cast<int>(M.Actions.size()) - 1;
  };

  // Unavailability enters at the function entry...
  M.Net.addEdge(M.Source, InNode[0], InfiniteCapacity, -1);
  for (unsigned B = 0; B != NB; ++B) {
    if (InNode[B] < 0)
      continue;
    bool Comp = Local.CompAtExit[B].test(EIdx);
    bool Transp = Local.Transp[B].test(EIdx);
    if (!Comp) {
      if (Transp) {
        // ...flows through transparent blocks...
        M.Net.addEdge(InNode[B], OutNode[B], InfiniteCapacity, -1);
      } else {
        // ...and is regenerated by kills.
        M.Net.addEdge(M.Source, OutNode[B], InfiniteCapacity, -1);
      }
    }
    // Blocks that compute at their exit stop unavailability: no in->out
    // edge and no source edge.

    if (Local.AntLoc[B].test(EIdx)) {
      // A computation point: pay freq(B) to keep computing in place.
      int Use = M.Net.addNode();
      McPreNetwork::Action A;
      A.K = McPreNetwork::Action::Kind::ComputeInPlace;
      M.Net.addEdge(InNode[B], Use,
                    saturatedEdgeWeight(
                        Prof.blockFreq(static_cast<BlockId>(B)), 1, 0),
                    AddAction(A));
      M.Net.addEdge(Use, M.Sink, InfiniteCapacity, -1);
    }
  }
  // CFG edges are the insertion points, weighted by edge frequency.
  for (auto [U, V] : C.edges()) {
    McPreNetwork::Action A;
    A.K = McPreNetwork::Action::Kind::InsertOnEdge;
    A.From = U;
    A.To = V;
    M.Net.addEdge(OutNode[U], InNode[V],
                  saturatedEdgeWeight(Prof.edgeFreq(U, V), 1, 0),
                  AddAction(A));
  }

  // Pruned problem size: nodes reachable from the source and co-reachable
  // to the sink through positive-capacity edges — the equivalent of
  // Xue & Cai's non-essential edge removal. The walks need the CSR
  // layout, and the solver reuses the frozen network as-is.
  M.Net.freeze();
  int N = M.Net.numNodes();
  std::vector<bool> FromS(N, false), ToT(N, false);
  {
    std::deque<int> Q{M.Source};
    FromS[M.Source] = true;
    while (!Q.empty()) {
      int U = Q.front();
      Q.pop_front();
      for (const FlowNetwork::Edge &Ed : M.Net.edgesFrom(U))
        if (Ed.IsForward && Ed.Cap > 0 && !FromS[Ed.To]) {
          FromS[Ed.To] = true;
          Q.push_back(Ed.To);
        }
    }
    // Backward reachability to the sink over forward edges: a forward
    // edge U->V is seen from V as its paired reverse slot, whose partner
    // at U holds the capacity.
    std::deque<int> Q2{M.Sink};
    ToT[M.Sink] = true;
    while (!Q2.empty()) {
      int V = Q2.front();
      Q2.pop_front();
      for (const FlowNetwork::Edge &Ed : M.Net.edgesFrom(V)) {
        if (Ed.IsForward)
          continue;
        int U = Ed.To;
        const FlowNetwork::Edge &Paired =
            M.Net.edgesFrom(U)[Ed.RevIndex];
        if (Paired.Cap > 0 && !ToT[U]) {
          ToT[U] = true;
          Q2.push_back(U);
        }
      }
    }
  }
  for (int U = 0; U != N; ++U)
    if (FromS[U] && ToT[U])
      ++M.PrunedNodes;
  for (int EI = 0; EI != M.Net.numOriginalEdges(); ++EI) {
    int U = M.Net.edgeFrom(EI), V = M.Net.edgeTo(EI);
    if (FromS[U] && ToT[U] && FromS[V] && ToT[V] &&
        M.Net.edgeCapacity(EI) > 0)
      ++M.PrunedEdges;
  }
  return M;
}

} // namespace

void specpre::runMcPre(Function &F, const Profile &Prof, PreStats *Stats,
                       CutPlacement Placement) {
  assert(!F.IsSSA && "MC-PRE operates on non-SSA form");
  assert(Prof.HasEdgeFreqs && "MC-PRE requires an edge profile");

  // Working profile: kept consistent as edge splitting reshapes the CFG.
  Profile WorkProf = Prof;

  std::vector<ExprKey> Exprs = collectCandidateExprs(F);
  // The CFG is recomputed only after an iteration that inserted (edge
  // splitting reshapes the blocks), and reused otherwise.
  std::optional<Cfg> C;
  for (unsigned EI = 0; EI != Exprs.size(); ++EI) {
    const ExprKey &E = Exprs[EI];
    if (E.canFault())
      continue; // cannot be speculated; left to safe PRE algorithms

    if (!C)
      C.emplace(F);
    std::vector<ExprKey> One{E};
    LocalExprProps Local = computeLocalExprProps(F, One);
    McPreNetwork M = buildNetwork(F, *C, Local, 0, WorkProf);
    if (BudgetTracker *B = currentBudget()) {
      throwIfError(B->checkGraphNodes(
          static_cast<uint64_t>(M.Net.numNodes()), "MC-PRE network"));
      throwIfError(B->checkDeadline("MC-PRE network"));
    }
    maybeInject(FaultSite::MinCut, "MC-PRE minimum cut");

    MinCutResult Cut =
        computeMinCut(M.Net, M.Source, M.Sink, Placement);

    std::vector<std::pair<BlockId, BlockId>> Inserts;
    for (int EdgeId : Cut.CutEdgeIds) {
      int Tag = M.Net.edgeTag(EdgeId);
      assert(Tag >= 0 && "infinite edge in MC-PRE minimum cut");
      const McPreNetwork::Action &A = M.Actions[Tag];
      if (A.K == McPreNetwork::Action::Kind::InsertOnEdge)
        Inserts.emplace_back(A.From, A.To);
    }

    if (Stats) {
      ExprStatsRecord R;
      R.Expr = E.toString(F);
      R.FunctionName = F.Name;
      R.ExprIndex = EI;
      R.McPreNodes = M.PrunedNodes;
      R.McPreEdges = M.PrunedEdges;
      R.CutWeight = Cut.Capacity;
      R.NumInsertions = static_cast<unsigned>(Inserts.size());
      Stats->addRecord(std::move(R));
    }

    // Transform whenever some occurrence can become redundant: either we
    // insert somewhere, or full redundancies already exist (detected by
    // the rewrite phase itself). Run it unconditionally; it is the
    // identity when nothing is available anywhere.
    VarId Temp = F.makeFreshVar("mcpre.tmp");
    if (!Inserts.empty())
      C.reset(); // edge splitting is about to reshape the CFG
    applyEdgeInsertionsAndRewrite(F, E, Inserts, Temp, &WorkProf);
  }
}

std::vector<ExprStatsRecord>
specpre::measureMcPreNetworkSizes(const Function &F, const Profile &Prof) {
  assert(Prof.HasEdgeFreqs && "MC-PRE requires an edge profile");
  std::vector<ExprStatsRecord> Out;
  Cfg C(F);
  std::vector<ExprKey> Exprs = collectCandidateExprs(F);
  LocalExprProps Local = computeLocalExprProps(F, Exprs);
  for (unsigned I = 0; I != Exprs.size(); ++I) {
    McPreNetwork M = buildNetwork(F, C, Local, I, Prof);
    ExprStatsRecord R;
    R.Expr = Exprs[I].toString(F);
    R.FunctionName = F.Name;
    R.McPreNodes = M.PrunedNodes;
    R.McPreEdges = M.PrunedEdges;
    Out.push_back(std::move(R));
  }
  return Out;
}
