//===- ssa/SsaConstruction.cpp - Cytron et al. SSA construction ------------===//

#include "ssa/SsaConstruction.h"

#include "analysis/Cfg.h"
#include "analysis/DataFlow.h"
#include "analysis/DominanceFrontier.h"
#include "analysis/DomTree.h"
#include "support/Diagnostics.h"
#include "support/Status.h"

#include <algorithm>
#include <cassert>

using namespace specpre;

namespace {

class SsaBuilder {
public:
  SsaBuilder(Function &F) : F(F), C(F), DT(DomTree::buildDominators(C)) {}

  void run();

private:
  /// Computes per-block live-in sets over variables (classic backward
  /// liveness), used to prune dead phis.
  DataFlowResult computeLiveness();

  void insertPhis();
  void renameAll();
  /// Renames block B and fills its successors' phi arguments. Returns the
  /// mark of Pushed to pop back to once B's dominator subtree is done.
  size_t renameBlock(BlockId B);

  int currentVersion(VarId V) const {
    return Stacks[V].empty() ? 0 : Stacks[V].back();
  }

  void rewriteUse(Operand &O, unsigned StmtIdx) {
    if (!O.isVar())
      return;
    int Ver = currentVersion(O.Var);
    if (Ver == 0)
      throw StatusException(
          ErrorCode::InvalidInput,
          "SSA construction: use of undefined variable '" +
              F.varName(O.Var) + "' in statement " +
              std::to_string(StmtIdx) + " of function '" + F.Name + "'");
    O.Version = Ver;
  }

  int pushNewVersion(VarId V) {
    int Ver = ++Counter[V];
    Stacks[V].push_back(Ver);
    Pushed.push_back(V);
    return Ver;
  }

  Function &F;
  Cfg C;
  DomTree DT;
  std::vector<std::vector<int>> Stacks; ///< per-var version stacks
  std::vector<int> Counter;             ///< per-var version counter
  /// The variables pushed onto Stacks along the dominator-tree path, in
  /// push order.
  std::vector<VarId> Pushed;
};

DataFlowResult SsaBuilder::computeLiveness() {
  DataFlowProblem P;
  P.Dir = DataFlowProblem::Direction::Backward;
  P.MeetOp = DataFlowProblem::Meet::Union;
  P.NumBits = F.numVars();
  P.Boundary = BitVector(P.NumBits, false);
  P.Gen.assign(F.numBlocks(), BitVector(P.NumBits, false));
  P.Kill.assign(F.numBlocks(), BitVector(P.NumBits, false));
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    BitVector &Gen = P.Gen[B];   // upward-exposed uses
    BitVector &Kill = P.Kill[B]; // definitions
    auto Use = [&](const Operand &O) {
      if (O.isVar() && !Kill.test(O.Var))
        Gen.set(O.Var);
    };
    for (const Stmt &S : F.Blocks[B].Stmts) {
      switch (S.Kind) {
      case StmtKind::Copy:
      case StmtKind::Branch:
      case StmtKind::Ret:
      case StmtKind::Print:
        Use(S.Src0);
        break;
      case StmtKind::Compute:
        Use(S.Src0);
        Use(S.Src1);
        break;
      case StmtKind::Phi:
        SPECPRE_UNREACHABLE("phi in pre-SSA input to SSA construction");
      case StmtKind::Jump:
        break;
      }
      if (S.definesValue())
        Kill.set(S.Dest);
    }
  }
  return solveDataFlow(C, P);
}

void SsaBuilder::insertPhis() {
  DataFlowResult Live = computeLiveness();
  DominanceFrontier DF(C, DT);

  // Definition blocks per variable; parameters are defined at entry.
  std::vector<std::vector<BlockId>> DefBlocks(F.numVars());
  for (VarId P : F.Params)
    DefBlocks[P].push_back(0);
  for (unsigned B = 0; B != F.numBlocks(); ++B)
    for (const Stmt &S : F.Blocks[B].Stmts)
      if (S.definesValue())
        DefBlocks[S.Dest].push_back(static_cast<BlockId>(B));

  for (VarId V = 0; V != static_cast<VarId>(F.numVars()); ++V) {
    if (DefBlocks[V].empty())
      continue;
    std::vector<BlockId> PhiBlocks = DF.iterated(DefBlocks[V]);
    for (BlockId B : PhiBlocks) {
      if (!Live.In[B].test(V))
        continue; // pruned SSA: variable dead at the join
      std::vector<PhiArg> Args;
      for (BlockId P : C.preds(B))
        Args.push_back(PhiArg{P, Operand::makeVar(V)});
      BasicBlock &BB = F.Blocks[B];
      BB.Stmts.insert(BB.Stmts.begin(), Stmt::makePhi(V, std::move(Args)));
    }
  }
}

size_t SsaBuilder::renameBlock(BlockId B) {
  BasicBlock &BB = F.Blocks[B];
  size_t Mark = Pushed.size();

  for (unsigned I = 0; I != BB.Stmts.size(); ++I) {
    Stmt &S = BB.Stmts[I];
    if (S.Kind == StmtKind::Phi) {
      S.DestVersion = pushNewVersion(S.Dest);
      continue;
    }
    switch (S.Kind) {
    case StmtKind::Copy:
    case StmtKind::Branch:
    case StmtKind::Ret:
    case StmtKind::Print:
      rewriteUse(S.Src0, I);
      break;
    case StmtKind::Compute:
      rewriteUse(S.Src0, I);
      rewriteUse(S.Src1, I);
      break;
    default:
      break;
    }
    if (S.definesValue())
      S.DestVersion = pushNewVersion(S.Dest);
  }

  // Fill in phi arguments of successors.
  for (BlockId Succ : C.succs(B)) {
    for (Stmt &S : F.Blocks[Succ].Stmts) {
      if (S.Kind != StmtKind::Phi)
        break;
      Operand &Arg = S.phiArgForPred(B);
      assert(Arg.isVar() && "freshly inserted phi args are variable refs");
      int Ver = currentVersion(Arg.Var);
      if (Ver == 0)
        throw StatusException(ErrorCode::InvalidInput,
                              "SSA construction: phi argument for '" +
                                  F.varName(Arg.Var) +
                                  "' undefined along edge in '" + F.Name +
                                  "'");
      Arg.Version = Ver;
    }
  }
  return Mark;
}

void SsaBuilder::renameAll() {
  Stacks.assign(F.numVars(), {});
  Counter.assign(F.numVars(), 0);
  for (VarId P : F.Params) {
    Counter[P] = 1;
    Stacks[P].push_back(1); // implicit definition at entry, version 1
  }
  DT.walk([&](BlockId B) { return renameBlock(B); },
          [&](BlockId, size_t Mark) {
            for (; Pushed.size() != Mark; Pushed.pop_back())
              Stacks[Pushed.back()].pop_back();
          });
}

void SsaBuilder::run() {
  insertPhis();
  renameAll();
  F.IsSSA = true;
}

} // namespace

void specpre::constructSsa(Function &F) {
  assert(!F.IsSSA && "function already in SSA form");
  removeUnreachableBlocks(F);
  SsaBuilder B(F);
  B.run();
}
