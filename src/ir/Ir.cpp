//===- ir/Ir.cpp - Mid-level three-address IR -----------------------------===//

#include "ir/Ir.h"

#include "support/Diagnostics.h"

using namespace specpre;

//===----------------------------------------------------------------------===//
// Opcodes
//===----------------------------------------------------------------------===//

const char *specpre::opcodeSpelling(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "+";
  case Opcode::Sub:
    return "-";
  case Opcode::Mul:
    return "*";
  case Opcode::Div:
    return "/";
  case Opcode::Mod:
    return "%";
  case Opcode::And:
    return "&";
  case Opcode::Or:
    return "|";
  case Opcode::Xor:
    return "^";
  case Opcode::Shl:
    return "<<";
  case Opcode::Shr:
    return ">>";
  case Opcode::Min:
    return "min";
  case Opcode::Max:
    return "max";
  case Opcode::CmpEq:
    return "==";
  case Opcode::CmpNe:
    return "!=";
  case Opcode::CmpLt:
    return "<";
  case Opcode::CmpLe:
    return "<=";
  case Opcode::CmpGt:
    return ">";
  case Opcode::CmpGe:
    return ">=";
  }
  SPECPRE_UNREACHABLE("bad opcode");
}

bool specpre::opcodeCanFault(Opcode Op) {
  return Op == Opcode::Div || Op == Opcode::Mod;
}

//===----------------------------------------------------------------------===//
// Stmt
//===----------------------------------------------------------------------===//

Stmt Stmt::makeCopy(VarId Dest, Operand Src, int DestVersion) {
  Stmt S;
  S.Kind = StmtKind::Copy;
  S.Dest = Dest;
  S.DestVersion = DestVersion;
  S.Src0 = Src;
  return S;
}

Stmt Stmt::makeCompute(VarId Dest, Opcode Op, Operand L, Operand R,
                       int DestVersion) {
  Stmt S;
  S.Kind = StmtKind::Compute;
  S.Dest = Dest;
  S.DestVersion = DestVersion;
  S.Op = Op;
  S.Src0 = L;
  S.Src1 = R;
  return S;
}

Stmt Stmt::makePhi(VarId Dest, std::vector<PhiArg> Args, int DestVersion) {
  Stmt S;
  S.Kind = StmtKind::Phi;
  S.Dest = Dest;
  S.DestVersion = DestVersion;
  S.PhiArgs = std::move(Args);
  return S;
}

Stmt Stmt::makeBranch(Operand Cond, BlockId TrueTarget, BlockId FalseTarget) {
  Stmt S;
  S.Kind = StmtKind::Branch;
  S.Src0 = Cond;
  S.TrueTarget = TrueTarget;
  S.FalseTarget = FalseTarget;
  return S;
}

Stmt Stmt::makeJump(BlockId Target) {
  Stmt S;
  S.Kind = StmtKind::Jump;
  S.TrueTarget = Target;
  return S;
}

Stmt Stmt::makeRet(Operand Val) {
  Stmt S;
  S.Kind = StmtKind::Ret;
  S.Src0 = Val;
  return S;
}

Stmt Stmt::makePrint(Operand Val) {
  Stmt S;
  S.Kind = StmtKind::Print;
  S.Src0 = Val;
  return S;
}

const Operand &Stmt::phiArgForPred(BlockId Pred) const {
  assert(Kind == StmtKind::Phi && "not a phi");
  for (const PhiArg &A : PhiArgs)
    if (A.Pred == Pred)
      return A.Val;
  SPECPRE_UNREACHABLE("phi has no argument for predecessor");
}

Operand &Stmt::phiArgForPred(BlockId Pred) {
  assert(Kind == StmtKind::Phi && "not a phi");
  for (PhiArg &A : PhiArgs)
    if (A.Pred == Pred)
      return A.Val;
  SPECPRE_UNREACHABLE("phi has no argument for predecessor");
}

//===----------------------------------------------------------------------===//
// BasicBlock
//===----------------------------------------------------------------------===//

void BasicBlock::appendSuccessors(std::vector<BlockId> &Out) const {
  const Stmt &T = terminator();
  switch (T.Kind) {
  case StmtKind::Branch:
    Out.push_back(T.TrueTarget);
    Out.push_back(T.FalseTarget);
    return;
  case StmtKind::Jump:
    Out.push_back(T.TrueTarget);
    return;
  case StmtKind::Ret:
    return;
  default:
    SPECPRE_UNREACHABLE("non-terminator at block end");
  }
}

//===----------------------------------------------------------------------===//
// Function / Module
//===----------------------------------------------------------------------===//

VarId Function::getOrAddVar(const std::string &VarName) {
  VarId Existing = findVar(VarName);
  if (Existing != InvalidVar)
    return Existing;
  VarNames.push_back(VarName);
  return static_cast<VarId>(VarNames.size() - 1);
}

void Function::syncVarIndex() const {
  for (unsigned I = IndexedVars, E = static_cast<unsigned>(VarNames.size());
       I != E; ++I)
    VarIndex.emplace(VarNames[I], static_cast<VarId>(I));
  IndexedVars = static_cast<unsigned>(VarNames.size());
}

VarId Function::findVar(const std::string &VarName) const {
  syncVarIndex();
  auto It = VarIndex.find(VarName);
  return It == VarIndex.end() ? InvalidVar : It->second;
}

VarId Function::makeFreshVar(const std::string &Hint) {
  std::string Candidate = Hint;
  if (findVar(Candidate) != InvalidVar) {
    unsigned &Suffix = NextFreshSuffix[Hint];
    do
      Candidate = Hint + "." + std::to_string(Suffix++);
    while (findVar(Candidate) != InvalidVar);
  }
  VarNames.push_back(Candidate);
  return static_cast<VarId>(VarNames.size() - 1);
}

BlockId Function::addBlock(const std::string &Label) {
  BasicBlock BB;
  BB.Label = Label;
  Blocks.push_back(std::move(BB));
  return static_cast<BlockId>(Blocks.size() - 1);
}

Function *Module::findFunction(const std::string &Name) {
  for (Function &F : Functions)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

const Function *Module::findFunction(const std::string &Name) const {
  for (const Function &F : Functions)
    if (F.Name == Name)
      return &F;
  return nullptr;
}
