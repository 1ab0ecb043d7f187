//===- ir/Printer.cpp - Textual IR printer ---------------------------------===//

#include "ir/Printer.h"

#include <charconv>

using namespace specpre;

// Every printer appends into one string: no stream, and no temporary
// string per operand or statement.

static void appendInt(std::string &Out, int64_t V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof Buf, V).ptr);
}

static void appendName(std::string &Out, const Function &F, VarId V,
                       int Version) {
  Out += F.varName(V);
  if (Version > 0) {
    Out += '#';
    appendInt(Out, Version);
  }
}

static void appendOperand(std::string &Out, const Function &F,
                          const Operand &O) {
  if (O.isConst())
    appendInt(Out, O.Value);
  else
    appendName(Out, F, O.Var, O.Version);
}

static void appendStmt(std::string &Out, const Function &F, const Stmt &S) {
  if (S.definesValue()) {
    appendName(Out, F, S.Dest, S.DestVersion);
    Out += " = ";
  }
  switch (S.Kind) {
  case StmtKind::Copy:
    appendOperand(Out, F, S.Src0);
    break;
  case StmtKind::Compute: {
    const char *Sp = opcodeSpelling(S.Op);
    if (S.Op == Opcode::Min || S.Op == Opcode::Max) {
      Out += Sp;
      Out += '(';
      appendOperand(Out, F, S.Src0);
      Out += ", ";
      appendOperand(Out, F, S.Src1);
      Out += ')';
    } else {
      appendOperand(Out, F, S.Src0);
      Out += ' ';
      Out += Sp;
      Out += ' ';
      appendOperand(Out, F, S.Src1);
    }
    break;
  }
  case StmtKind::Phi:
    Out += "phi";
    for (const PhiArg &A : S.PhiArgs) {
      Out += " [";
      Out += F.Blocks[A.Pred].Label;
      Out += ": ";
      appendOperand(Out, F, A.Val);
      Out += ']';
    }
    break;
  case StmtKind::Branch:
    Out += "br ";
    appendOperand(Out, F, S.Src0);
    Out += ", ";
    Out += F.Blocks[S.TrueTarget].Label;
    Out += ", ";
    Out += F.Blocks[S.FalseTarget].Label;
    break;
  case StmtKind::Jump:
    Out += "jmp ";
    Out += F.Blocks[S.TrueTarget].Label;
    break;
  case StmtKind::Ret:
    Out += "ret ";
    appendOperand(Out, F, S.Src0);
    break;
  case StmtKind::Print:
    Out += "print ";
    appendOperand(Out, F, S.Src0);
    break;
  }
}

static void appendFunction(std::string &Out, const Function &F) {
  Out += "func ";
  Out += F.Name;
  Out += '(';
  for (unsigned I = 0; I != F.Params.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += F.varName(F.Params[I]);
  }
  Out += ") {\n";
  for (const BasicBlock &BB : F.Blocks) {
    Out += BB.Label;
    Out += ":\n";
    for (const Stmt &S : BB.Stmts) {
      Out += "  ";
      appendStmt(Out, F, S);
      Out += '\n';
    }
  }
  Out += "}\n";
}

std::string specpre::printOperand(const Function &F, const Operand &O) {
  std::string Out;
  appendOperand(Out, F, O);
  return Out;
}

std::string specpre::printStmt(const Function &F, const Stmt &S) {
  std::string Out;
  appendStmt(Out, F, S);
  return Out;
}

std::string specpre::printFunction(const Function &F) {
  std::string Out;
  appendFunction(Out, F);
  return Out;
}

std::string specpre::printModule(const Module &M) {
  std::string Out;
  for (const Function &F : M.Functions) {
    appendFunction(Out, F);
    Out += '\n';
  }
  return Out;
}
