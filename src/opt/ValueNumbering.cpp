//===- opt/ValueNumbering.cpp - Dominator-scoped GVN ---------------------------===//

#include "opt/ValueNumbering.h"

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

using namespace specpre;

namespace {

bool isCommutative(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Min:
  case Opcode::Max:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
    return true;
  default:
    return false;
  }
}

/// A canonical value handle: constant or (var, version).
struct ValueHandle {
  bool IsConst = false;
  int64_t Const = 0;
  VarId Var = InvalidVar;
  int Version = 0;

  static ValueHandle of(const Operand &O) {
    ValueHandle H;
    if (O.isConst()) {
      H.IsConst = true;
      H.Const = O.Value;
    } else {
      H.Var = O.Var;
      H.Version = O.Version;
    }
    return H;
  }

  Operand toOperand() const {
    return IsConst ? Operand::makeConst(Const)
                   : Operand::makeVar(Var, Version);
  }

  auto operator<=>(const ValueHandle &) const = default;
};

class Gvn {
public:
  explicit Gvn(Function &F)
      : F(F), C(F), DT(DomTree::buildDominators(C)) {}

  unsigned run() {
    DT.walk([&](BlockId B) { return enter(B); },
            [&](BlockId, std::pair<size_t, size_t> Marks) {
              for (; ExprUndo.size() != Marks.first; ExprUndo.pop_back())
                ExprTable.erase(ExprUndo.back());
              for (; LeaderUndo.size() != Marks.second; LeaderUndo.pop_back())
                Leader.erase(LeaderUndo.back());
            });
    return Simplified;
  }

private:
  /// Resolves a value through the discovered-equalities map.
  ValueHandle leaderOf(ValueHandle H) {
    for (int Guard = 0; Guard != 64; ++Guard) {
      auto It = Leader.find(H);
      if (It == Leader.end())
        return H;
      H = It->second;
    }
    return H;
  }

  ValueHandle leaderOf(const Operand &O) {
    return leaderOf(ValueHandle::of(O));
  }

  /// Records "Def now carries the value of H" and returns the undo key.
  void setLeader(VarId Var, int Version, ValueHandle H) {
    ValueHandle Key;
    Key.Var = Var;
    Key.Version = Version;
    Leader.emplace(Key, H);
    LeaderUndo.push_back(Key);
  }

  /// Numbers block B and canonicalizes its successors' phi arguments.
  /// Returns the marks of ExprUndo and LeaderUndo to roll back to once
  /// B's dominator subtree is done.
  std::pair<size_t, size_t> enter(BlockId B);

  Function &F;
  Cfg C;
  DomTree DT;
  unsigned Simplified = 0;

  using ExprTableKey = std::tuple<Opcode, ValueHandle, ValueHandle>;
  std::map<ExprTableKey, ValueHandle> ExprTable;
  std::map<ValueHandle, ValueHandle> Leader;
  std::vector<ExprTableKey> ExprUndo;
  std::vector<ValueHandle> LeaderUndo;
};

std::pair<size_t, size_t> Gvn::enter(BlockId B) {
  std::pair<size_t, size_t> Marks{ExprUndo.size(), LeaderUndo.size()};

  BasicBlock &BB = F.Blocks[B];

  // Identical phis in this block unify (same canonical argument per
  // predecessor). Keyed locally: phis only compare within one block.
  {
    std::map<std::vector<std::pair<BlockId, ValueHandle>>,
             std::pair<VarId, int>>
        PhiTable;
    for (Stmt &S : BB.Stmts) {
      if (S.Kind != StmtKind::Phi)
        break;
      std::vector<std::pair<BlockId, ValueHandle>> Key;
      for (const PhiArg &A : S.PhiArgs)
        Key.emplace_back(A.Pred, leaderOf(A.Val));
      std::sort(Key.begin(), Key.end());
      auto [It, Inserted] =
          PhiTable.emplace(Key, std::make_pair(S.Dest, S.DestVersion));
      if (!Inserted) {
        ValueHandle H;
        H.Var = It->second.first;
        H.Version = It->second.second;
        setLeader(S.Dest, S.DestVersion, H);
        // The phi stays (it still defines the value) but downstream
        // users will be redirected to the leader; DCE reaps it.
        ++Simplified;
      }
    }
  }

  for (Stmt &S : BB.Stmts) {
    switch (S.Kind) {
    case StmtKind::Copy: {
      // Canonicalize the source and record the equivalence.
      ValueHandle Src = leaderOf(S.Src0);
      S.Src0 = Src.toOperand();
      if (S.DestVersion > 0)
        setLeader(S.Dest, S.DestVersion, Src);
      break;
    }
    case StmtKind::Compute: {
      ValueHandle L = leaderOf(S.Src0);
      ValueHandle R = leaderOf(S.Src1);
      S.Src0 = L.toOperand();
      S.Src1 = R.toOperand();
      // Constant fold (never a faulting fold).
      if (L.IsConst && R.IsConst) {
        bool Faulted = false;
        int64_t V = evalOpcode(S.Op, L.Const, R.Const, Faulted);
        if (!Faulted) {
          ValueHandle H;
          H.IsConst = true;
          H.Const = V;
          setLeader(S.Dest, S.DestVersion, H);
          S = Stmt::makeCopy(S.Dest, Operand::makeConst(V), S.DestVersion);
          ++Simplified;
          break;
        }
      }
      ValueHandle A = L, Bv = R;
      if (isCommutative(S.Op) && Bv < A)
        std::swap(A, Bv);
      ExprTableKey Key{S.Op, A, Bv};
      auto It = ExprTable.find(Key);
      if (It != ExprTable.end()) {
        // Redundant: the dominating twin already computed this value.
        setLeader(S.Dest, S.DestVersion, It->second);
        S = Stmt::makeCopy(S.Dest, It->second.toOperand(), S.DestVersion);
        ++Simplified;
        break;
      }
      ValueHandle Self;
      Self.Var = S.Dest;
      Self.Version = S.DestVersion;
      ExprTable.emplace(Key, Self);
      ExprUndo.push_back(Key);
      break;
    }
    case StmtKind::Branch:
    case StmtKind::Ret:
    case StmtKind::Print:
      S.Src0 = leaderOf(S.Src0).toOperand();
      break;
    case StmtKind::Phi:
    case StmtKind::Jump:
      break;
    }
  }

  // Successor phi arguments see this block's canonical values (phi args
  // are uses at the end of this block).
  for (BlockId Succ : C.succs(B)) {
    for (Stmt &S : F.Blocks[Succ].Stmts) {
      if (S.Kind != StmtKind::Phi)
        break;
      Operand &Arg = S.phiArgForPred(B);
      ValueHandle H = leaderOf(Arg);
      // Keep phi arguments versions of the phi's own variable — the
      // invariant the PRE rename relies on (see opt/CopyPropagation.cpp).
      if (!H.IsConst && H.Var == S.Dest)
        Arg = H.toOperand();
    }
  }
  return Marks;
}

} // namespace

unsigned specpre::runValueNumbering(Function &F) {
  assert(F.IsSSA && "GVN requires SSA form");
  Gvn G(F);
  return G.run();
}
