//===- tests/ir_test.cpp - IR core, builder, verifier tests -------------------===//

#include "ir/Ir.h"
#include "ir/IrBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace specpre;

TEST(Opcode, EvalBasics) {
  bool Faulted = false;
  EXPECT_EQ(evalOpcode(Opcode::Add, 2, 3, Faulted), 5);
  EXPECT_EQ(evalOpcode(Opcode::Sub, 2, 3, Faulted), -1);
  EXPECT_EQ(evalOpcode(Opcode::Mul, -4, 3, Faulted), -12);
  EXPECT_EQ(evalOpcode(Opcode::Min, 2, 3, Faulted), 2);
  EXPECT_EQ(evalOpcode(Opcode::Max, 2, 3, Faulted), 3);
  EXPECT_EQ(evalOpcode(Opcode::CmpLt, 2, 3, Faulted), 1);
  EXPECT_EQ(evalOpcode(Opcode::CmpGe, 2, 3, Faulted), 0);
  EXPECT_EQ(evalOpcode(Opcode::Shl, 1, 5, Faulted), 32);
  EXPECT_FALSE(Faulted);
}

TEST(Opcode, DivisionFaults) {
  bool Faulted = false;
  EXPECT_EQ(evalOpcode(Opcode::Div, 7, 2, Faulted), 3);
  EXPECT_FALSE(Faulted);
  evalOpcode(Opcode::Div, 7, 0, Faulted);
  EXPECT_TRUE(Faulted);
  Faulted = false;
  evalOpcode(Opcode::Mod, 7, 0, Faulted);
  EXPECT_TRUE(Faulted);
  Faulted = false;
  evalOpcode(Opcode::Div, INT64_MIN, -1, Faulted);
  EXPECT_TRUE(Faulted);
  EXPECT_TRUE(opcodeCanFault(Opcode::Div));
  EXPECT_TRUE(opcodeCanFault(Opcode::Mod));
  EXPECT_FALSE(opcodeCanFault(Opcode::Add));
}

TEST(Opcode, ArithmeticWrapsDeterministically) {
  bool Faulted = false;
  EXPECT_EQ(evalOpcode(Opcode::Add, INT64_MAX, 1, Faulted), INT64_MIN);
  EXPECT_EQ(evalOpcode(Opcode::Shr, -1, 70, Faulted),
            evalOpcode(Opcode::Shr, -1, 6, Faulted));
  EXPECT_FALSE(Faulted);
}

namespace {

/// Builds the diamond: entry -> (then|else) -> join, with a phi at join.
Function buildDiamond() {
  Function F;
  F.Name = "diamond";
  IrBuilder B(F);
  VarId P = B.param("p");
  VarId X = B.var("x");
  BlockId Entry = B.makeBlock("entry");
  BlockId Then = B.makeBlock("then");
  BlockId Else = B.makeBlock("else");
  BlockId Join = B.makeBlock("join");

  B.setInsertBlock(Entry);
  B.emitBranch(IrBuilder::use(P), Then, Else);
  B.setInsertBlock(Then);
  B.emitCompute(X, Opcode::Add, IrBuilder::use(P), IrBuilder::cst(1));
  B.emitJump(Join);
  B.setInsertBlock(Else);
  B.emitCompute(X, Opcode::Add, IrBuilder::use(P), IrBuilder::cst(2));
  B.emitJump(Join);
  B.setInsertBlock(Join);
  B.emitRet(IrBuilder::use(X));
  return F;
}

} // namespace

TEST(IrBuilder, BuildsWellFormedFunction) {
  Function F = buildDiamond();
  std::string Error;
  EXPECT_TRUE(verifyFunction(F, Error)) << Error;
  EXPECT_EQ(F.numBlocks(), 4u);
  EXPECT_EQ(F.Params.size(), 1u);
}

TEST(Verifier, RejectsMissingTerminator) {
  Function F;
  F.Name = "bad";
  F.addBlock("entry");
  F.Blocks[0].Stmts.push_back(
      Stmt::makeCopy(F.getOrAddVar("x"), Operand::makeConst(1)));
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
  EXPECT_NE(Error.find("terminator"), std::string::npos);
}

TEST(Verifier, RejectsMidBlockTerminator) {
  Function F;
  F.Name = "bad";
  F.addBlock("entry");
  F.Blocks[0].Stmts.push_back(Stmt::makeRet(Operand::makeConst(0)));
  F.Blocks[0].Stmts.push_back(Stmt::makeRet(Operand::makeConst(1)));
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
}

TEST(Verifier, RejectsEdgeIntoEntry) {
  Function F;
  F.Name = "bad";
  BlockId Entry = F.addBlock("entry");
  F.Blocks[Entry].Stmts.push_back(Stmt::makeJump(Entry));
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
  EXPECT_NE(Error.find("entry"), std::string::npos);
}

TEST(Verifier, RejectsPhiPredMismatch) {
  Function F = buildDiamond();
  // Add a phi at join with only one incoming arg.
  Stmt Phi = Stmt::makePhi(F.getOrAddVar("y"),
                           {PhiArg{1, Operand::makeConst(1)}});
  BasicBlock &Join = F.Blocks[3];
  Join.Stmts.insert(Join.Stmts.begin(), Phi);
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
  EXPECT_NE(Error.find("phi"), std::string::npos);
}

TEST(Verifier, RejectsSsaDoubleDefinition) {
  Function F;
  F.Name = "bad";
  F.IsSSA = true;
  F.addBlock("entry");
  VarId X = F.getOrAddVar("x");
  F.Blocks[0].Stmts.push_back(Stmt::makeCopy(X, Operand::makeConst(1), 1));
  F.Blocks[0].Stmts.push_back(Stmt::makeCopy(X, Operand::makeConst(2), 1));
  F.Blocks[0].Stmts.push_back(Stmt::makeRet(Operand::makeVar(X, 1)));
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
  EXPECT_NE(Error.find("multiple definitions"), std::string::npos);
}

TEST(Verifier, RejectsUseBeforeDefInSsa) {
  Function F;
  F.Name = "bad";
  F.IsSSA = true;
  F.addBlock("entry");
  VarId X = F.getOrAddVar("x");
  VarId Y = F.getOrAddVar("y");
  F.Blocks[0].Stmts.push_back(
      Stmt::makeCopy(Y, Operand::makeVar(X, 1), 1));
  F.Blocks[0].Stmts.push_back(Stmt::makeCopy(X, Operand::makeConst(1), 1));
  F.Blocks[0].Stmts.push_back(Stmt::makeRet(Operand::makeVar(Y, 1)));
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
}

namespace {

/// An SSA diamond whose left arm defines x#1; \p Join is the join
/// block's body.
std::string diamondWithJoin(const std::string &Join) {
  return "func f(p) {\n"
         "entry:\n"
         "  br p#1, left, right\n"
         "left:\n"
         "  x#1 = p#1 + 1\n"
         "  jmp join\n"
         "right:\n"
         "  jmp join\n"
         "join:\n" +
         Join + "}\n";
}

/// verifyFunction's message for \p Text, or "" when it verifies.
std::string verifierError(const std::string &Text) {
  Function F = parseFunctionOrDie(Text);
  EXPECT_TRUE(F.IsSSA);
  std::string Error;
  if (verifyFunction(F, Error))
    return "";
  EXPECT_FALSE(Error.empty());
  return Error;
}

} // namespace

TEST(Verifier, RejectsUseNotDominatedByItsDefinition) {
  std::string Error = verifierError(diamondWithJoin("  ret x#1\n"));
  EXPECT_NE(Error.find("'x#1' does not dominate use in block 'join'"),
            std::string::npos)
      << Error;
}

TEST(Verifier, PhiArgumentIsAUseAtItsPredecessorsEnd) {
  // The def in the left arm reaches the end of the left arm...
  EXPECT_EQ(verifierError(diamondWithJoin(
                "  y#1 = phi [left: x#1] [right: 0]\n  ret y#1\n")),
            "");
  // ...but not the end of the right arm.
  std::string Error = verifierError(
      diamondWithJoin("  y#1 = phi [left: 0] [right: x#1]\n  ret y#1\n"));
  EXPECT_NE(Error.find("'x#1' does not dominate use"), std::string::npos)
      << Error;
}

TEST(Verifier, UnreachableDefinitionDominatesNothing) {
  std::string Error = verifierError(R"(
    func f(p) {
    entry:
      jmp exit
    dead:
      x#1 = p#1 + 1
      ret x#1
    exit:
      ret x#1
    }
  )");
  EXPECT_NE(Error.find("'x#1' does not dominate use in block 'exit'"),
            std::string::npos)
      << Error;
}

TEST(Verifier, UnreachableCodeIsNotHeldToDominance) {
  // dead uses the left arm's x#1, which cannot dominate it; dead is
  // unreachable, so that is accepted.
  EXPECT_EQ(verifierError(R"(
    func f(p) {
    entry:
      br p#1, left, exit
    left:
      x#1 = p#1 + 1
      jmp exit
    exit:
      ret p#1
    dead:
      y#1 = x#1 + 1
      ret y#1
    }
  )"),
            "");
}

TEST(Function, FreshVarsDoNotCollide) {
  Function F;
  VarId A = F.getOrAddVar("x");
  VarId B = F.makeFreshVar("x");
  VarId C = F.makeFreshVar("x");
  EXPECT_NE(A, B);
  EXPECT_NE(B, C);
  EXPECT_NE(F.varName(B), F.varName(C));
  // The names themselves are pinned: goldens, printed IR and the
  // name-based cache keys spell them.
  EXPECT_EQ(F.varName(B), "x.0");
  EXPECT_EQ(F.varName(C), "x.1");
  EXPECT_EQ(F.varName(F.makeFreshVar("x")), "x.2");

  // A name the source already uses is skipped, earlier or later.
  Function G;
  G.getOrAddVar("x");
  G.getOrAddVar("x.1");
  EXPECT_EQ(G.varName(G.makeFreshVar("x")), "x.0");
  EXPECT_EQ(G.varName(G.makeFreshVar("x")), "x.2");
  G.getOrAddVar("x.4");
  EXPECT_EQ(G.varName(G.makeFreshVar("x")), "x.3");
  EXPECT_EQ(G.varName(G.makeFreshVar("x")), "x.5");

  // Two hints keep separate counters; a free hint is taken bare.
  EXPECT_EQ(G.varName(G.makeFreshVar("y")), "y");
  EXPECT_EQ(G.varName(G.makeFreshVar("y")), "y.0");
  EXPECT_EQ(G.varName(G.makeFreshVar("x")), "x.6");
  EXPECT_EQ(G.varName(G.makeFreshVar("y")), "y.1");
}

TEST(Printer, StmtRendering) {
  Function F = buildDiamond();
  EXPECT_EQ(printStmt(F, F.Blocks[1].Stmts[0]), "x = p + 1");
  EXPECT_EQ(printStmt(F, F.Blocks[0].Stmts[0]), "br p, then, else");
  EXPECT_EQ(printStmt(F, F.Blocks[3].Stmts[0]), "ret x");
}
