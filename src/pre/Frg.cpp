//===- pre/Frg.cpp - Factored redundancy graph: sites, Phi-Insertion ---------===//

#include "pre/Frg.h"

#include "pre/FrgInternal.h"
#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "support/PassTimer.h"

#include <algorithm>
#include <sstream>

using namespace specpre;

const PhiOcc &Frg::phiOf(OccRef Ref) const {
  assert(Ref.isPhi() && "not a phi occurrence");
  return Phis[Ref.Index];
}

PhiOcc &Frg::phiOf(OccRef Ref) {
  assert(Ref.isPhi() && "not a phi occurrence");
  return Phis[Ref.Index];
}

int Frg::phiAt(BlockId B) const {
  auto It = std::lower_bound(
      Phis.begin(), Phis.end(), B,
      [](const PhiOcc &P, BlockId Block) { return P.Block < Block; });
  if (It == Phis.end() || It->Block != B)
    return -1;
  return static_cast<int>(It - Phis.begin());
}

std::pair<unsigned, unsigned> Frg::realsIn(BlockId B) const {
  auto First = std::lower_bound(
      Reals.begin(), Reals.end(), B,
      [](const RealOcc &R, BlockId Block) { return R.Block < Block; });
  auto Last = std::upper_bound(
      First, Reals.end(), B,
      [](BlockId Block, const RealOcc &R) { return Block < R.Block; });
  return {static_cast<unsigned>(First - Reals.begin()),
          static_cast<unsigned>(Last - Reals.begin())};
}

//===----------------------------------------------------------------------===//
// FrgSites
//===----------------------------------------------------------------------===//

FrgSites::FrgSites(const Function &F, const Cfg &C, const DomTree &DT)
    : C(C), DT(DT), DF(C, DT) {
  Candidates = collectCandidateExprs(F, &OccurrenceBlocks);
  for (std::vector<BlockId> &Blocks : OccurrenceBlocks)
    std::erase_if(Blocks, [&](BlockId B) { return !C.isReachable(B); });
  collectVarSites(F);
}

FrgSites::FrgSites(const Function &F, const Cfg &C, const DomTree &DT,
                   const ExprKey &E)
    : C(C), DT(DT), DF(C, DT), Candidates{E}, OccurrenceBlocks(1) {
  for (BlockId B = 0; B != static_cast<BlockId>(F.numBlocks()); ++B)
    if (C.isReachable(B) &&
        std::any_of(F.Blocks[B].Stmts.begin(), F.Blocks[B].Stmts.end(),
                    [&](const Stmt &S) { return E.matches(S); }))
      OccurrenceBlocks[0].push_back(B);
  collectVarSites(F);
}

void FrgSites::collectVarSites(const Function &F) {
  Vars.assign(F.numVars(), {});
  for (VarId P : F.Params)
    Vars[P].IsParam = true;
  // Visiting blocks in preorder appends each variable's defining blocks
  // in preorder, and every dominating definition is already listed.
  for (BlockId B : DT.preorder()) {
    for (const Stmt &S : F.Blocks[B].Stmts) {
      if (!S.definesValue())
        continue;
      VarSites &VS = Vars[S.Dest];
      if (VS.Defs.empty() || VS.Defs.back().Block != B) {
        DefSite D;
        D.Block = B;
        D.Key = DT.preorderKey(B);
        D.Parent = nearestDef(VS, B);
        VS.Defs.push_back(D);
      }
      DefSite &D = VS.Defs.back();
      D.EndVersion = S.DestVersion;
      if (S.Kind != StmtKind::Phi)
        continue;
      if (!D.PhiVersion)
        VS.PhiBlocks.push_back(B);
      D.PhiVersion = S.DestVersion;
      for (const PhiArg &A : S.PhiArgs)
        if (!A.Val.isVar() || A.Val.Var != S.Dest)
          VS.Substituted.emplace_back(B, A.Pred);
    }
  }
  for (VarSites &VS : Vars)
    std::sort(VS.Substituted.begin(), VS.Substituted.end());
}

int FrgSites::nearestDef(const VarSites &VS, BlockId B) const {
  // The last definition at or before B in preorder is B or lies in the
  // subtree of B's nearest dominating definition; climb from it.
  int Key = DT.preorderKey(B);
  auto After = std::upper_bound(
      VS.Defs.begin(), VS.Defs.end(), Key,
      [](int K, const DefSite &D) { return K < D.Key; });
  int I = static_cast<int>(After - VS.Defs.begin()) - 1;
  while (I >= 0 && !DT.dominates(VS.Defs[I].Block, B))
    I = VS.Defs[I].Parent;
  return I;
}

int FrgSites::versionAtEnd(VarId V, BlockId B) const {
  if (V == InvalidVar)
    return 0;
  const VarSites &VS = Vars[V];
  int I = nearestDef(VS, B);
  if (I < 0)
    return VS.IsParam ? 1 : 0;
  return VS.Defs[I].EndVersion;
}

int FrgSites::versionAfterPhis(VarId V, BlockId B) const {
  if (V == InvalidVar)
    return 0;
  const VarSites &VS = Vars[V];
  int I = nearestDef(VS, B);
  if (I >= 0 && VS.Defs[I].Block == B) {
    if (VS.Defs[I].PhiVersion)
      return VS.Defs[I].PhiVersion;
    I = VS.Defs[I].Parent;
  }
  if (I < 0)
    return VS.IsParam ? 1 : 0;
  return VS.Defs[I].EndVersion;
}

bool FrgSites::substitutes(VarId V, BlockId Join, BlockId Pred) const {
  if (V == InvalidVar)
    return false;
  const std::vector<std::pair<BlockId, BlockId>> &Edges = Vars[V].Substituted;
  return std::binary_search(Edges.begin(), Edges.end(),
                            std::make_pair(Join, Pred));
}

//===----------------------------------------------------------------------===//
// Steps 1 and 2
//===----------------------------------------------------------------------===//

namespace specpre {

/// Shared implementation of steps 1-2; Rename lives in FrgRename.cpp.
class FrgBuilder {
public:
  FrgBuilder(Frg &G, const FrgSites &Sites, unsigned Candidate)
      : G(G), Sites(Sites), Candidate(Candidate) {}

  void run() {
    {
      PassTimer T(PipelineStep::PhiInsertion);
      maybeInject(FaultSite::PhiInsertion, "FRG build");
      insertPhis();
      collectReals();
      uint64_t Occurrences = G.Phis.size() + G.Reals.size();
      // Degenerate inputs can explode the occurrence count; the graph-node
      // budget bounds FRG memory before Rename touches it.
      if (BudgetTracker *B = currentBudget())
        throwIfError(B->checkGraphNodes(Occurrences, "FRG build"));
      maybeInject(FaultSite::Alloc, "FRG occurrence arrays");
      T.setProblemSize(Occurrences);
    }
    PassTimer T(PipelineStep::Rename, G.Phis.size() + G.Reals.size());
    maybeInject(FaultSite::Rename, "FRG rename");
    detail::renameFrg(G, Sites);
  }

private:
  void insertPhis();
  void collectReals();

  Frg &G;
  const FrgSites &Sites;
  unsigned Candidate;
};

void FrgBuilder::insertPhis() {
  const Cfg &C = G.C;

  // Seed set: blocks with real occurrences, plus blocks containing a
  // variable phi for one of the expression's operands (the expression
  // potentially acquires a new value there, so the merge point of h must
  // be exposed; Kennedy et al. Section 3.1).
  std::vector<BlockId> VarPhiBlocks;
  for (const OperandKey *O : {&G.E.L, &G.E.R})
    if (!O->IsConst) {
      const std::vector<BlockId> &Blocks = Sites.phiBlocks(O->Var);
      VarPhiBlocks.insert(VarPhiBlocks.end(), Blocks.begin(), Blocks.end());
    }
  std::vector<BlockId> Seeds = Sites.occurrenceBlocks(Candidate);
  Seeds.insert(Seeds.end(), VarPhiBlocks.begin(), VarPhiBlocks.end());
  std::vector<BlockId> PhiBlocks = Sites.iteratedFrontier(Seeds);
  // Operand-phi blocks host a Φ directly (they are join nodes already).
  PhiBlocks.insert(PhiBlocks.end(), VarPhiBlocks.begin(), VarPhiBlocks.end());
  std::sort(PhiBlocks.begin(), PhiBlocks.end());
  PhiBlocks.erase(std::unique(PhiBlocks.begin(), PhiBlocks.end()),
                  PhiBlocks.end());

  for (BlockId B : PhiBlocks) {
    // Φs are only meaningful at reachable join points.
    if (!C.isReachable(B) || C.preds(B).size() < 2)
      continue;
    PhiOcc P;
    P.Block = B;
    for (BlockId Pred : C.preds(B)) {
      PhiOperand Op;
      Op.Pred = Pred;
      P.Operands.push_back(Op);
    }
    G.Phis.push_back(std::move(P));
  }
}

void FrgBuilder::collectReals() {
  // The occurrence blocks are reachable and ascending; the statements are
  // read from the current function, where earlier motions may have
  // shifted them.
  for (BlockId B : Sites.occurrenceBlocks(Candidate)) {
    const BasicBlock &BB = G.F.Blocks[B];
    for (unsigned I = 0; I != BB.Stmts.size(); ++I) {
      const Stmt &S = BB.Stmts[I];
      if (!G.E.matches(S))
        continue;
      RealOcc R;
      R.Block = B;
      R.StmtIdx = I;
      R.LVer = S.Src0.isVar() ? S.Src0.Version : 0;
      R.RVer = S.Src1.isVar() ? S.Src1.Version : 0;
      G.Reals.push_back(R);
    }
  }
}

} // namespace specpre

Frg::Frg(const Function &F, const FrgSites &Sites, unsigned Candidate)
    : F(F), C(Sites.cfg()), DT(Sites.domTree()),
      E(Sites.candidates()[Candidate]) {
  assert(F.IsSSA && "FRG construction requires SSA form");
  FrgBuilder B(*this, Sites, Candidate);
  B.run();
}

Frg::Frg(const Function &F, const Cfg &C, const DomTree &DT, const ExprKey &E)
    : Frg(F, FrgSites(F, C, DT, E), 0) {}

std::string Frg::dump() const {
  std::ostringstream OS;
  OS << "FRG for '" << E.toString(F) << "':\n";
  for (unsigned I = 0; I != Phis.size(); ++I) {
    const PhiOcc &P = Phis[I];
    OS << "  phi" << I << " @" << F.Blocks[P.Block].Label
       << " class=" << P.Class << " entry=(" << P.LVerAtEntry << ","
       << P.RVerAtEntry << ") [";
    for (unsigned J = 0; J != P.Operands.size(); ++J) {
      const PhiOperand &Op = P.Operands[J];
      if (J)
        OS << ", ";
      OS << F.Blocks[Op.Pred].Label << ": ";
      if (Op.isBottom())
        OS << "_|_";
      else
        OS << "c" << Op.Class << (Op.HasRealUse ? "!" : "");
    }
    OS << "] downSafe=" << Phis[I].DownSafe
       << " fullyAvail=" << Phis[I].FullyAvail << " partAnt=" << P.PartAnt
       << "\n";
  }
  for (unsigned I = 0; I != Reals.size(); ++I) {
    const RealOcc &R = Reals[I];
    OS << "  real" << I << " @" << F.Blocks[R.Block].Label << "/" << R.StmtIdx
       << " class=" << R.Class << " vers=(" << R.LVer << "," << R.RVer << ")"
       << (R.RgExcluded ? " rg_excluded" : "")
       << " def=" << (R.Def.isPhi() ? "phi" : R.Def.isReal() ? "real" : "self")
       << "\n";
  }
  return OS.str();
}
