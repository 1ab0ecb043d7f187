//===- ir/Verifier.cpp - IR well-formedness checks -------------------------===//

#include "ir/Verifier.h"

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "ir/Printer.h"
#include "support/Diagnostics.h"

#include <map>
#include <set>
#include <vector>

using namespace specpre;

namespace {

/// Collects all statement-level checks for one function.
class VerifierImpl {
public:
  VerifierImpl(const Function &F, std::string &Error) : F(F), Error(Error) {}

  bool run();

private:
  bool fail(const std::string &Message) {
    Error = "function '" + F.Name + "': " + Message;
    return false;
  }

  /// "block 'L': <stmt>", the location a statement diagnostic names.
  /// Printed only once a check has failed.
  std::string where(BlockId B, const Stmt &S) const {
    return "block '" + F.Blocks[B].Label + "': " + printStmt(F, S);
  }

  /// Block shapes and branch targets: everything the Cfg needs to exist.
  bool checkBlocks();
  bool checkStatements(const Cfg &C);
  bool checkOperand(const Operand &O, BlockId B, const Stmt &S);
  bool checkSsa(const Cfg &C);

  const Function &F;
  std::string &Error;
};

bool VerifierImpl::checkOperand(const Operand &O, BlockId B, const Stmt &S) {
  if (O.isConst())
    return true;
  if (O.Var < 0 || O.Var >= static_cast<VarId>(F.numVars()))
    return fail("invalid variable operand in " + where(B, S));
  if (F.IsSSA && O.Version <= 0)
    return fail("unversioned variable use of '" + F.varName(O.Var) + "' in " +
                where(B, S) + " of SSA-form function");
  return true;
}

bool VerifierImpl::checkBlocks() {
  if (F.Blocks.empty())
    return fail("function has no blocks");

  for (const BasicBlock &BB : F.Blocks) {
    if (BB.Stmts.empty())
      return fail("block '" + BB.Label + "' is empty");
    if (!BB.Stmts.back().isTerminator())
      return fail("block '" + BB.Label + "' does not end with a terminator");
    for (unsigned I = 0; I + 1 < BB.Stmts.size(); ++I)
      if (BB.Stmts[I].isTerminator())
        return fail("block '" + BB.Label + "' has a terminator in mid-block");
    bool SeenNonPhi = false;
    for (const Stmt &S : BB.Stmts) {
      if (S.Kind == StmtKind::Phi) {
        if (SeenNonPhi)
          return fail("phi after non-phi statement in block '" + BB.Label +
                      "'");
      } else {
        SeenNonPhi = true;
      }
    }
    const Stmt &T = BB.Stmts.back();
    if (T.Kind == StmtKind::Branch || T.Kind == StmtKind::Jump) {
      if (T.TrueTarget < 0 || T.TrueTarget >= static_cast<BlockId>(F.numBlocks()))
        return fail("invalid branch target in block '" + BB.Label + "'");
      if (T.Kind == StmtKind::Branch &&
          (T.FalseTarget < 0 ||
           T.FalseTarget >= static_cast<BlockId>(F.numBlocks())))
        return fail("invalid false target in block '" + BB.Label + "'");
    }
  }
  return true;
}

bool VerifierImpl::checkStatements(const Cfg &C) {
  if (!C.preds(0).empty())
    return fail("entry block must have no predecessors");

  // Statement-level operand and phi checks.
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    for (const Stmt &S : BB.Stmts) {
      if (S.definesValue() &&
          (S.Dest < 0 || S.Dest >= static_cast<VarId>(F.numVars())))
        return fail("invalid destination variable in " + where(B, S));
      switch (S.Kind) {
      case StmtKind::Copy:
      case StmtKind::Branch:
      case StmtKind::Ret:
      case StmtKind::Print:
        if (!checkOperand(S.Src0, B, S))
          return false;
        break;
      case StmtKind::Compute:
        if (!checkOperand(S.Src0, B, S) || !checkOperand(S.Src1, B, S))
          return false;
        break;
      case StmtKind::Phi: {
        if (!C.isReachable(B))
          break;
        // Phi args must correspond 1:1 with CFG predecessors.
        std::set<BlockId> ArgPreds;
        for (const PhiArg &A : S.PhiArgs) {
          if (!ArgPreds.insert(A.Pred).second)
            return fail("duplicate phi predecessor in " + where(B, S));
          if (!checkOperand(A.Val, B, S))
            return false;
        }
        std::set<BlockId> CfgPreds(C.preds(B).begin(), C.preds(B).end());
        if (ArgPreds != CfgPreds)
          return fail("phi predecessors do not match CFG predecessors in " +
                      where(B, S));
        break;
      }
      case StmtKind::Jump:
        break;
      }
    }
  }
  return true;
}

bool VerifierImpl::checkSsa(const Cfg &C) {
  // Gather all definitions: (var, version) -> (block, stmt index).
  // Parameters are implicitly defined at function entry with version 1.
  struct DefSite {
    BlockId Block;
    unsigned StmtIdx;
    bool IsParam;
  };
  std::map<std::pair<VarId, int>, DefSite> Defs;
  for (VarId P : F.Params)
    Defs[{P, 1}] = DefSite{0, 0, true};

  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    for (unsigned I = 0; I != BB.Stmts.size(); ++I) {
      const Stmt &S = BB.Stmts[I];
      if (!S.definesValue())
        continue;
      if (S.DestVersion <= 0)
        return fail("unversioned definition of '" + F.varName(S.Dest) +
                    "' in SSA-form function");
      auto Key = std::make_pair(S.Dest, S.DestVersion);
      if (!Defs.emplace(Key, DefSite{static_cast<BlockId>(B), I, false})
               .second)
        return fail("multiple definitions of '" + F.varName(S.Dest) + "#" +
                    std::to_string(S.DestVersion) + "'");
    }
  }

  DomTree DT = DomTree::buildDominators(C);

  // Check that every use is dominated by its definition. A phi argument is
  // a use at the end of the corresponding predecessor block.
  auto CheckUse = [&](const Operand &O, BlockId UseBlock, unsigned UseIdx,
                      bool AtPredEnd, BlockId B, const Stmt &S) {
    if (!O.isVar())
      return true;
    auto It = Defs.find({O.Var, O.Version});
    if (It == Defs.end())
      return fail("use of undefined '" + F.varName(O.Var) + "#" +
                  std::to_string(O.Version) + "' in " + where(B, S));
    const DefSite &D = It->second;
    if (!C.isReachable(UseBlock))
      return true; // unreachable code is not held to dominance rules
    if (D.Block == UseBlock) {
      if (AtPredEnd)
        return true; // def inside the pred block always precedes its end
      if (D.StmtIdx >= UseIdx && !D.IsParam)
        return fail("definition does not precede use in " + where(B, S));
      return true;
    }
    if (!DT.dominates(D.Block, UseBlock))
      return fail("definition of '" + F.varName(O.Var) + "#" +
                  std::to_string(O.Version) + "' does not dominate use in " +
                  where(B, S));
    return true;
  };

  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    if (!C.isReachable(B))
      continue;
    for (unsigned I = 0; I != BB.Stmts.size(); ++I) {
      const Stmt &S = BB.Stmts[I];
      switch (S.Kind) {
      case StmtKind::Copy:
      case StmtKind::Branch:
      case StmtKind::Ret:
      case StmtKind::Print:
        if (!CheckUse(S.Src0, B, I, false, B, S))
          return false;
        break;
      case StmtKind::Compute:
        if (!CheckUse(S.Src0, B, I, false, B, S) ||
            !CheckUse(S.Src1, B, I, false, B, S))
          return false;
        break;
      case StmtKind::Phi:
        for (const PhiArg &A : S.PhiArgs)
          if (!CheckUse(A.Val, A.Pred, 0, true, B, S))
            return false;
        break;
      case StmtKind::Jump:
        break;
      }
    }
  }
  return true;
}

bool VerifierImpl::run() {
  if (!checkBlocks())
    return false;
  Cfg C(F);
  if (!checkStatements(C))
    return false;
  if (F.IsSSA && !checkSsa(C))
    return false;
  return true;
}

} // namespace

bool specpre::verifyFunction(const Function &F, std::string &Error) {
  VerifierImpl V(F, Error);
  return V.run();
}

void specpre::verifyFunctionOrDie(const Function &F,
                                  const std::string &Context) {
  std::string Error;
  if (!verifyFunction(F, Error))
    reportFatalError(Context + ": " + Error + "\n" + printFunction(F));
}
