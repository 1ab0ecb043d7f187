//===- pre/FrgRename.cpp - FRG Rename step (step 2) --------------------------===//
//
// Assigns redundancy classes (expression SSA versions) to all occurrences
// via a preorder dominator-tree walk, following Kennedy et al.'s delayed
// renaming: a real occurrence belongs to the class on top of the
// expression stack exactly when its operand versions match the versions
// the top occurrence was seen with. MC-SSAPRE's modification (paper step
// 2): real occurrences are always pushed, and a real occurrence whose
// versions match a dominating *real* occurrence is marked rg_excluded.
//
// The walk is sparse. It visits only the blocks of real occurrences, of
// Φs and of Φ predecessors, which are the only blocks that push onto the
// expression stack or read it. A real occurrence carries its own operand
// versions; the versions at a Φ and at a predecessor's end are those of
// the nearest dominating definitions, read from FrgSites.
//
//===----------------------------------------------------------------------===//

#include "pre/FrgInternal.h"

#include "support/Diagnostics.h"

#include <vector>

using namespace specpre;

namespace {

class Renamer {
public:
  Renamer(Frg &G, const FrgSites &Sites)
      : G(G), Sites(Sites), C(G.cfg()), DT(G.domTree()) {
    LVar = G.expr().L.IsConst ? InvalidVar : G.expr().L.Var;
    RVar = G.expr().R.IsConst ? InvalidVar : G.expr().R.Var;
  }

  void run() {
    std::vector<BlockId> Nodes;
    for (const RealOcc &R : G.reals())
      Nodes.push_back(R.Block);
    for (const PhiOcc &P : G.phis()) {
      Nodes.push_back(P.Block);
      for (const PhiOperand &Op : P.Operands)
        if (C.isReachable(Op.Pred))
          Nodes.push_back(Op.Pred);
    }
    DT.sortInPreorder(Nodes);
    DT.walk(Nodes, [&](BlockId B) { return enter(B); },
            [&](BlockId, size_t Mark) { ExprStack.resize(Mark); });
  }

private:
  struct StackEntry {
    int Class = -1;
    OccRef Occ;
    int LVer = 0, RVer = 0;
  };

  int newClass(OccRef Def) { return G.allocateClass(Def); }

  /// Renames block B's occurrences and fills the Φ operands on its
  /// outgoing edges. Returns the mark of ExprStack to pop back to once
  /// B's listed dominator-tree descendants are done.
  size_t enter(BlockId B);
  void handleReal(int RealIdx);
  void fillSuccessorOperands(BlockId B);

  Frg &G;
  const FrgSites &Sites;
  const Cfg &C;
  const DomTree &DT;

  VarId LVar = InvalidVar, RVar = InvalidVar;

  std::vector<StackEntry> ExprStack;
};

void Renamer::handleReal(int RealIdx) {
  RealOcc &R = G.reals()[RealIdx];
  if (!ExprStack.empty()) {
    const StackEntry &Top = ExprStack.back();
    if (Top.LVer == R.LVer && Top.RVer == R.RVer) {
      // Same versions as the top occurrence: same value, same class.
      R.Class = Top.Class;
      R.Def = G.classDef(Top.Class);
      if (Top.Occ.isReal()) {
        // Dominated by a real occurrence computing the same versions:
        // fully redundant via a single real occurrence. MC-SSAPRE marks
        // it rg_excluded and does not push it (paper Section 3.1.3).
        R.RgExcluded = true;
        return;
      }
      // Defined by the Φ on top: push so later Φ operands see a real
      // use of this class and later reals become rg_excluded.
      ExprStack.push_back(
          StackEntry{R.Class, OccRef::real(RealIdx), R.LVer, R.RVer});
      return;
    }
  }
  // No matching top: this occurrence opens a new class (non-redundant
  // along the dominator path).
  R.Class = newClass(OccRef::real(RealIdx));
  R.Def = OccRef::none();
  ExprStack.push_back(
      StackEntry{R.Class, OccRef::real(RealIdx), R.LVer, R.RVer});
}

void Renamer::fillSuccessorOperands(BlockId B) {
  int LEnd = -1, REnd = -1; // read at the first successor with a Φ
  for (BlockId S : C.succs(B)) {
    int PhiIdx = G.phiAt(S);
    if (PhiIdx < 0)
      continue;
    PhiOcc &P = G.phis()[PhiIdx];
    if (LEnd < 0) {
      LEnd = Sites.versionAtEnd(LVar, B);
      REnd = Sites.versionAtEnd(RVar, B);
    }

    // An expression operand variable may be redefined by a variable phi
    // at the join. In SSA fresh from construction each phi argument is a
    // version of the phi's own variable and the merge is transparent to
    // the lexical expression; but hand-written or copy-propagated SSA
    // can substitute a *different* variable (or a constant) along this
    // edge, in which case no insertion of the lexical expression at the
    // end of B can produce the merged value: the operand must be an
    // insert-blocked ⊥. The same holds when an operand variable is still
    // undefined at the end of B.
    bool Blocked = false;
    for (auto [V, End] : {std::pair{LVar, LEnd}, std::pair{RVar, REnd}})
      if (V != InvalidVar && (End == 0 || Sites.substitutes(V, S, B)))
        Blocked = true;

    for (PhiOperand &Op : P.Operands) {
      if (Op.Pred != B)
        continue;
      Op.LVerAtPredEnd = LEnd;
      Op.RVerAtPredEnd = REnd;
      if (Blocked) {
        Op.Class = -1;
        Op.InsertBlocked = true;
        continue;
      }
      if (ExprStack.empty()) {
        Op.Class = -1;
        continue;
      }
      const StackEntry &Top = ExprStack.back();
      if (Top.LVer == LEnd && Top.RVer == REnd) {
        Op.Class = Top.Class;
        Op.Def = G.classDef(Top.Class);
        Op.HasRealUse = Top.Occ.isReal();
      } else {
        Op.Class = -1; // stale value: nothing current flows along here
      }
    }
  }
}

size_t Renamer::enter(BlockId B) {
  size_t Mark = ExprStack.size();

  // 1. The expression Φ, conceptually after the variable phis, which set
  // the operand versions it merges.
  int PhiIdx = G.phiAt(B);
  if (PhiIdx >= 0) {
    PhiOcc &P = G.phis()[PhiIdx];
    P.LVerAtEntry = Sites.versionAfterPhis(LVar, B);
    P.RVerAtEntry = Sites.versionAfterPhis(RVar, B);
    P.Class = newClass(OccRef::phi(PhiIdx));
    ExprStack.push_back(
        StackEntry{P.Class, OccRef::phi(PhiIdx), P.LVerAtEntry,
                   P.RVerAtEntry});
  }

  // 2. Real occurrences, in statement order.
  auto [First, Last] = G.realsIn(B);
  for (unsigned RI = First; RI != Last; ++RI)
    handleReal(static_cast<int>(RI));

  // 3. Assign Φ operands in CFG successors for the edges leaving B. The
  // walk then visits B's listed dominator-tree descendants, and run()'s
  // exit callback pops the expression stack back to Mark.
  fillSuccessorOperands(B);
  return Mark;
}

} // namespace

void specpre::detail::renameFrg(Frg &G, const FrgSites &Sites) {
  Renamer R(G, Sites);
  R.run();
}
