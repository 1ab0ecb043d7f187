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
//===----------------------------------------------------------------------===//

#include "pre/FrgInternal.h"

#include "support/Diagnostics.h"

#include <utility>
#include <vector>

using namespace specpre;

namespace {

class Renamer {
public:
  explicit Renamer(Frg &G)
      : G(G), F(G.function()), C(G.cfg()), DT(G.domTree()) {
    LIsConst = G.expr().L.IsConst;
    RIsConst = G.expr().R.IsConst;
    LVar = LIsConst ? InvalidVar : G.expr().L.Var;
    RVar = RIsConst ? InvalidVar : G.expr().R.Var;
    // Index real occurrences by (block, stmt) for the walk.
    RealAt.assign(F.numBlocks(), {});
    for (unsigned I = 0; I != G.reals().size(); ++I)
      RealAt[G.reals()[I].Block].push_back(static_cast<int>(I));
    // Variable version stacks; parameters carry version 1 at entry.
    VarStacks.assign(F.numVars(), {});
    for (VarId P : F.Params)
      VarStacks[P].push_back(1);
  }

  void run() {
    DT.walk([&](BlockId B) { return enter(B); },
            [&](BlockId, std::pair<size_t, size_t> Marks) {
              ExprStack.resize(Marks.first);
              for (; VarPushes.size() != Marks.second; VarPushes.pop_back())
                VarStacks[VarPushes.back()].pop_back();
            });
  }

private:
  struct StackEntry {
    int Class = -1;
    OccRef Occ;
    int LVer = 0, RVer = 0;
  };

  int curVer(VarId V) const {
    if (V == InvalidVar)
      return 0; // constant operand: versionless, always "current"
    return VarStacks[V].empty() ? 0 : VarStacks[V].back();
  }
  int curL() const { return curVer(LVar); }
  int curR() const { return curVer(RVar); }

  int newClass(OccRef Def) { return G.allocateClass(Def); }

  /// Renames block B's occurrences and fills the Φ operands on its
  /// outgoing edges. Returns the marks of ExprStack and VarPushes to pop
  /// back to once B's dominator subtree is done.
  std::pair<size_t, size_t> enter(BlockId B);
  void handleReal(int RealIdx);
  void fillSuccessorOperands(BlockId B);

  Frg &G;
  const Function &F;
  const Cfg &C;
  const DomTree &DT;

  bool LIsConst = false, RIsConst = false;
  VarId LVar = InvalidVar, RVar = InvalidVar;

  std::vector<std::vector<int>> RealAt;
  std::vector<std::vector<int>> VarStacks;
  /// The operand variables pushed onto VarStacks along the dominator-tree
  /// path, in push order.
  std::vector<VarId> VarPushes;
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
  for (BlockId S : C.succs(B)) {
    int PhiIdx = G.phiAt(S);
    if (PhiIdx < 0)
      continue;
    PhiOcc &P = G.phis()[PhiIdx];

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
    for (VarId V : {LVar, RVar}) {
      if (V == InvalidVar)
        continue;
      if (curVer(V) == 0)
        Blocked = true;
      for (const Stmt &St : F.Blocks[S].Stmts) {
        if (St.Kind != StmtKind::Phi)
          break;
        if (St.Dest != V)
          continue;
        const Operand &Arg = St.phiArgForPred(B);
        if (!Arg.isVar() || Arg.Var != V)
          Blocked = true;
      }
    }

    for (PhiOperand &Op : P.Operands) {
      if (Op.Pred != B)
        continue;
      Op.LVerAtPredEnd = curL();
      Op.RVerAtPredEnd = curR();
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
      if (Top.LVer == curL() && Top.RVer == curR()) {
        Op.Class = Top.Class;
        Op.Def = G.classDef(Top.Class);
        Op.HasRealUse = Top.Occ.isReal();
      } else {
        Op.Class = -1; // stale value: nothing current flows along here
      }
    }
  }
}

std::pair<size_t, size_t> Renamer::enter(BlockId B) {
  const BasicBlock &BB = F.Blocks[B];
  std::pair<size_t, size_t> Marks{ExprStack.size(), VarPushes.size()};

  auto PushVarDef = [&](VarId V, int Version) {
    if (V != LVar && V != RVar)
      return;
    VarStacks[V].push_back(Version);
    VarPushes.push_back(V);
  };

  // 1. Variable phis at the block head update operand versions first.
  unsigned I = 0;
  for (; I != BB.Stmts.size() && BB.Stmts[I].Kind == StmtKind::Phi; ++I)
    PushVarDef(BB.Stmts[I].Dest, BB.Stmts[I].DestVersion);

  // 2. The expression Φ (conceptually after the variable phis).
  int PhiIdx = G.phiAt(B);
  if (PhiIdx >= 0) {
    PhiOcc &P = G.phis()[PhiIdx];
    P.LVerAtEntry = curL();
    P.RVerAtEntry = curR();
    P.Class = newClass(OccRef::phi(PhiIdx));
    ExprStack.push_back(
        StackEntry{P.Class, OccRef::phi(PhiIdx), P.LVerAtEntry,
                   P.RVerAtEntry});
  }

  // 3. Straight-line statements: real occurrences and operand kills.
  unsigned NextReal = 0;
  const std::vector<int> &RealsHere = RealAt[B];
  for (; I != BB.Stmts.size(); ++I) {
    const Stmt &S = BB.Stmts[I];
    if (NextReal != RealsHere.size() &&
        G.reals()[RealsHere[NextReal]].StmtIdx == I) {
      handleReal(RealsHere[NextReal]);
      ++NextReal;
    }
    if (S.definesValue())
      PushVarDef(S.Dest, S.DestVersion);
  }

  // 4. Assign Φ operands in CFG successors for the edges leaving B. The
  // walk then visits B's dominator-tree children, and run()'s exit
  // callback restores the stacks to Marks.
  fillSuccessorOperands(B);
  return Marks;
}

} // namespace

void specpre::detail::renameFrg(Frg &G) {
  Renamer R(G);
  R.run();
}
