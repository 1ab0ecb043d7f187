//===- pre/ExprKey.h - Lexical expression identification -------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lexical identification of PRE candidate expressions. Two Compute
/// statements are occurrences of the same expression when they apply the
/// same operation to the same variables or constants *before* SSA
/// versioning (paper footnote 1).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_EXPRKEY_H
#define SPECPRE_PRE_EXPRKEY_H

#include "ir/Ir.h"

#include <string>
#include <vector>

namespace specpre {

/// One side of a candidate expression: a base variable (version ignored)
/// or a constant.
struct OperandKey {
  bool IsConst = false;
  int64_t Const = 0;
  VarId Var = InvalidVar;

  static OperandKey of(const Operand &O) {
    OperandKey K;
    K.IsConst = O.isConst();
    if (K.IsConst)
      K.Const = O.Value;
    else
      K.Var = O.Var;
    return K;
  }

  bool matches(const Operand &O) const {
    if (O.isConst())
      return IsConst && Const == O.Value;
    return !IsConst && Var == O.Var;
  }

  auto operator<=>(const OperandKey &) const = default;
};

/// A lexically identified expression `L Op R`.
struct ExprKey {
  Opcode Op = Opcode::Add;
  OperandKey L, R;

  /// True if \p S is a real occurrence of this expression.
  bool matches(const Stmt &S) const {
    return S.Kind == StmtKind::Compute && S.Op == Op && L.matches(S.Src0) &&
           R.matches(S.Src1);
  }

  /// True if redefining \p V changes the expression's value.
  bool dependsOnVar(VarId V) const {
    return (!L.IsConst && L.Var == V) || (!R.IsConst && R.Var == V);
  }

  bool canFault() const { return opcodeCanFault(Op); }

  std::string toString(const Function &F) const;

  auto operator<=>(const ExprKey &) const = default;
};

/// Collects every candidate expression of \p F in a deterministic order
/// (first occurrence order). Expressions whose operands are both constants
/// are skipped — they belong to constant folding, not PRE. When
/// \p OccurrenceBlocks is non-null, it receives, per candidate, the
/// ascending ids of the blocks it occurs in.
std::vector<ExprKey> collectCandidateExprs(
    const Function &F,
    std::vector<std::vector<BlockId>> *OccurrenceBlocks = nullptr);

} // namespace specpre

#endif // SPECPRE_PRE_EXPRKEY_H
