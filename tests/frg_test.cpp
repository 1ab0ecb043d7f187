//===- tests/frg_test.cpp - FRG construction (steps 1-2) tests ------------------===//

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pre/CompileService.h"
#include "pre/ExprKey.h"
#include "pre/Frg.h"
#include "pre/ParallelDriver.h"
#include "pre/PreDriver.h"
#include "ssa/SsaConstruction.h"
#include "workload/ProgramGenerator.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace specpre;

namespace {

/// Helper owning the analyses an Frg needs.
struct FrgFixture {
  Function F;
  Cfg C;
  DomTree DT;

  explicit FrgFixture(Function Fn)
      : F(std::move(Fn)), C((constructSsaIfNeeded(F), F)),
        DT(DomTree::buildDominators(C)) {}

  static Function &constructSsaIfNeeded(Function &F) {
    if (!F.IsSSA)
      constructSsa(F);
    return F;
  }

  ExprKey key(const std::string &LName, Opcode Op, const std::string &RName) {
    ExprKey K;
    K.Op = Op;
    K.L.IsConst = false;
    K.L.Var = F.findVar(LName);
    K.R.IsConst = false;
    K.R.Var = F.findVar(RName);
    return K;
  }
};

} // namespace

TEST(ExprKey, CollectsLexicalCandidates) {
  Function F = parseFunctionOrDie(R"(
    func f(a, b) {
    entry:
      x = a + b
      y = a + b
      z = x * y
      w = 3 + 4
      ret z
    }
  )");
  std::vector<ExprKey> Keys = collectCandidateExprs(F);
  // a+b (once, deduped), x*y; 3+4 is constant-folding territory.
  ASSERT_EQ(Keys.size(), 2u);
  EXPECT_EQ(Keys[0].toString(F), "a + b");
  EXPECT_EQ(Keys[1].toString(F), "x * y");
}

TEST(Frg, DiamondPartialRedundancy) {
  // The textbook strictly-partial redundancy: computed in one arm and
  // after the join.
  FrgFixture Fx(parseFunctionOrDie(R"(
    func f(a, b, p) {
    entry:
      br p, t, e
    t:
      x = a + b
      jmp j
    e:
      y = 1
      jmp j
    j:
      z = a + b
      ret z
    }
  )"));
  Frg G(Fx.F, Fx.C, Fx.DT, Fx.key("a", Opcode::Add, "b"));
  ASSERT_EQ(G.reals().size(), 2u);
  ASSERT_EQ(G.phis().size(), 1u);
  const PhiOcc &P = G.phis()[0];
  EXPECT_EQ(Fx.F.Blocks[P.Block].Label, "j");
  ASSERT_EQ(P.Operands.size(), 2u);
  // Operand from 't' carries the computed value (real use); from 'e' ⊥.
  const PhiOperand *FromT = nullptr, *FromE = nullptr;
  for (const PhiOperand &Op : P.Operands) {
    if (Fx.F.Blocks[Op.Pred].Label == "t")
      FromT = &Op;
    else
      FromE = &Op;
  }
  ASSERT_NE(FromT, nullptr);
  ASSERT_NE(FromE, nullptr);
  EXPECT_FALSE(FromT->isBottom());
  EXPECT_TRUE(FromT->HasRealUse);
  EXPECT_TRUE(FromE->isBottom());
  // The occurrence in 'j' belongs to the Φ's class.
  const RealOcc *InJ = nullptr;
  for (const RealOcc &R : G.reals())
    if (Fx.F.Blocks[R.Block].Label == "j")
      InJ = &R;
  ASSERT_NE(InJ, nullptr);
  EXPECT_EQ(InJ->Class, P.Class);
  EXPECT_TRUE(InJ->Def.isPhi());
  EXPECT_FALSE(InJ->RgExcluded);
}

TEST(Frg, FullRedundancyMarkedRgExcluded) {
  FrgFixture Fx(parseFunctionOrDie(R"(
    func f(a, b) {
    entry:
      x = a + b
      y = a + b
      ret y
    }
  )"));
  Frg G(Fx.F, Fx.C, Fx.DT, Fx.key("a", Opcode::Add, "b"));
  ASSERT_EQ(G.reals().size(), 2u);
  EXPECT_FALSE(G.reals()[0].RgExcluded);
  EXPECT_TRUE(G.reals()[1].RgExcluded);
  EXPECT_EQ(G.reals()[0].Class, G.reals()[1].Class);
  EXPECT_TRUE(G.phis().empty());
}

TEST(Frg, OperandRedefinitionStartsNewClass) {
  FrgFixture Fx(parseFunctionOrDie(R"(
    func f(a, b) {
    entry:
      x = a + b
      a = a + 1
      y = a + b
      ret y
    }
  )"));
  Frg G(Fx.F, Fx.C, Fx.DT, Fx.key("a", Opcode::Add, "b"));
  ASSERT_EQ(G.reals().size(), 2u);
  EXPECT_NE(G.reals()[0].Class, G.reals()[1].Class);
  EXPECT_FALSE(G.reals()[1].RgExcluded);
}

TEST(Frg, OperandPhiForcesExpressionPhi) {
  // A variable phi for an operand at the join forces an expression Φ
  // there even though only one arm computes.
  FrgFixture Fx(parseFunctionOrDie(R"(
    func f(a, b, p) {
    entry:
      x = a + b
      br p, t, e
    t:
      a = a * 2
      jmp j
    e:
      jmp j
    j:
      z = a + b
      ret z
    }
  )"));
  Frg G(Fx.F, Fx.C, Fx.DT, Fx.key("a", Opcode::Add, "b"));
  ASSERT_EQ(G.phis().size(), 1u);
  const PhiOcc &P = G.phis()[0];
  EXPECT_EQ(Fx.F.Blocks[P.Block].Label, "j");
  // The arm that redefined 'a' provides ⊥; the other carries the entry
  // computation (real use).
  for (const PhiOperand &Op : P.Operands) {
    if (Fx.F.Blocks[Op.Pred].Label == "t")
      EXPECT_TRUE(Op.isBottom());
    else
      EXPECT_TRUE(Op.HasRealUse);
  }
  // The occurrence in j computes the merged value: it uses the Φ class.
  ASSERT_EQ(G.reals().size(), 2u);
  EXPECT_EQ(G.reals()[1].Class, P.Class);
}

TEST(Frg, LoopInvariantPhiAtHeader) {
  FrgFixture Fx(parseFunctionOrDie(R"(
    func f(a, b, n) {
    entry:
      i = 0
      jmp h
    h:
      t = i < n
      br t, body, exit
    body:
      x = a + b
      i = i + 1
      jmp h
    exit:
      ret i
    }
  )"));
  Frg G(Fx.F, Fx.C, Fx.DT, Fx.key("a", Opcode::Add, "b"));
  // Φ at the loop header 'h': entry operand ⊥, back-edge operand has a
  // real use of the same class.
  ASSERT_EQ(G.phis().size(), 1u);
  const PhiOcc &P = G.phis()[0];
  EXPECT_EQ(Fx.F.Blocks[P.Block].Label, "h");
  int NumBottom = 0, NumRealUse = 0;
  for (const PhiOperand &Op : P.Operands) {
    NumBottom += Op.isBottom();
    NumRealUse += Op.HasRealUse;
  }
  EXPECT_EQ(NumBottom, 1);
  EXPECT_EQ(NumRealUse, 1);
  // The in-loop occurrence is strictly partially redundant: defined by
  // the Φ at the header.
  ASSERT_EQ(G.reals().size(), 1u);
  EXPECT_EQ(G.reals()[0].Class, P.Class);
}

TEST(Frg, ConstOperandExpression) {
  FrgFixture Fx(parseFunctionOrDie(R"(
    func f(a, p) {
    entry:
      br p, t, e
    t:
      x = a * 4
      jmp j
    e:
      jmp j
    j:
      y = a * 4
      ret y
    }
  )"));
  ExprKey K;
  K.Op = Opcode::Mul;
  K.L.IsConst = false;
  K.L.Var = Fx.F.findVar("a");
  K.R.IsConst = true;
  K.R.Const = 4;
  Frg G(Fx.F, Fx.C, Fx.DT, K);
  ASSERT_EQ(G.phis().size(), 1u);
  ASSERT_EQ(G.reals().size(), 2u);
  EXPECT_EQ(G.reals()[1].Class, G.phis()[0].Class);
}

TEST(Frg, ClassCountMatchesDefs) {
  FrgFixture Fx(parseFunctionOrDie(R"(
    func f(a, b, p) {
    entry:
      x = a + b
      br p, t, e
    t:
      a = a + 1
      y = a + b
      jmp j
    e:
      jmp j
    j:
      z = a + b
      ret z
    }
  )"));
  Frg G(Fx.F, Fx.C, Fx.DT, Fx.key("a", Opcode::Add, "b"));
  // Classes: entry occurrence, t occurrence (after kill), Φ at j.
  EXPECT_EQ(G.numClasses(), 3);
  for (int C = 0; C != G.numClasses(); ++C)
    EXPECT_FALSE(G.classDef(C).isNone() && false); // classDef callable
}

//===----------------------------------------------------------------------===//
// Pins. Every expected number below was produced by the dense FRG steps
// that scanned the whole function per candidate, so these cases hold the
// sparse steps to the same graphs, field by field.
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a fed one integer field at a time, low byte first.
struct FieldHash {
  uint64_t H = 14695981039346656037ull;

  void add(int64_t V) {
    for (unsigned I = 0; I != 8; ++I) {
      H ^= static_cast<uint64_t>(V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  void add(OccRef R) {
    add(static_cast<int64_t>(R.K));
    add(R.Index);
  }
  void addBytes(const std::string &S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ull;
    }
  }
};

/// Hashes every field steps 1 and 2 set on \p G.
void hashFrg(FieldHash &H, const Frg &G) {
  H.add(G.numClasses());
  for (int C = 0; C != G.numClasses(); ++C)
    H.add(G.classDef(C));
  H.add(static_cast<int64_t>(G.phis().size()));
  for (const PhiOcc &P : G.phis()) {
    H.add(P.Block);
    H.add(P.Class);
    H.add(P.LVerAtEntry);
    H.add(P.RVerAtEntry);
    H.add(static_cast<int64_t>(P.Operands.size()));
    for (const PhiOperand &Op : P.Operands) {
      H.add(Op.Pred);
      H.add(Op.Class);
      H.add(Op.Def);
      H.add(Op.HasRealUse);
      H.add(Op.InsertBlocked);
      H.add(Op.LVerAtPredEnd);
      H.add(Op.RVerAtPredEnd);
    }
  }
  H.add(static_cast<int64_t>(G.reals().size()));
  for (const RealOcc &R : G.reals()) {
    H.add(R.Block);
    H.add(R.StmtIdx);
    H.add(R.LVer);
    H.add(R.RVer);
    H.add(R.Class);
    H.add(R.Def);
    H.add(R.RgExcluded);
  }
}

/// Hashes the FRG of every candidate of \p Prepared, in SSA form.
void hashEveryFrg(FieldHash &H, Function F) {
  constructSsa(F);
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  for (const ExprKey &E : collectCandidateExprs(F))
    hashFrg(H, Frg(F, C, DT, E));
}

} // namespace

TEST(FrgPin, EveryCandidateOfSpecSuite) {
  FieldHash H;
  unsigned Functions = 0;
  for (const BenchmarkSpec &S : fullCpu2006Suite()) {
    Function F = S.buildProgram();
    prepareFunction(F);
    hashEveryFrg(H, std::move(F));
    ++Functions;
  }
  EXPECT_EQ(Functions, 29u);
  EXPECT_EQ(H.H, 3501856014448846159ull);
}

TEST(FrgPin, EveryCandidateOfGeneratedPrograms) {
  FieldHash H;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    GeneratorConfig Config;
    Config.AllowDiv = Seed % 3 == 0;
    Config.MaxDepth = 2 + Seed % 3;
    Function F = generateProgram(Seed, Config);
    prepareFunction(F);
    hashEveryFrg(H, std::move(F));
  }
  EXPECT_EQ(H.H, 11681095069950868277ull);
}

TEST(Frg, SameVariableOnBothSides) {
  // `a + a` reads one variable: both version fields track it together,
  // and its redefinition on one arm starts a new class there.
  FrgFixture Fx(parseFunctionOrDie(R"(
    func f(a, p) {
    entry:
      x = a + a
      br p, t, e
    t:
      a = a * 3
      y = a + a
      jmp j
    e:
      jmp j
    j:
      z = a + a
      ret z
    }
  )"));
  Frg G(Fx.F, Fx.C, Fx.DT, Fx.key("a", Opcode::Add, "a"));
  ASSERT_EQ(G.reals().size(), 3u);
  ASSERT_EQ(G.phis().size(), 1u);
  for (const RealOcc &R : G.reals())
    EXPECT_EQ(R.LVer, R.RVer);
  const PhiOcc &P = G.phis()[0];
  EXPECT_EQ(Fx.F.Blocks[P.Block].Label, "j");
  EXPECT_EQ(P.LVerAtEntry, P.RVerAtEntry);
  EXPECT_EQ(P.LVerAtEntry, G.reals()[2].LVer);
  EXPECT_NE(G.reals()[0].Class, G.reals()[1].Class);
  EXPECT_EQ(G.reals()[2].Class, P.Class);
  for (const PhiOperand &Op : P.Operands) {
    EXPECT_EQ(Op.LVerAtPredEnd, Op.RVerAtPredEnd);
    EXPECT_FALSE(Op.isBottom());
    EXPECT_TRUE(Op.HasRealUse);
    EXPECT_FALSE(Op.InsertBlocked);
  }
}

TEST(Frg, ConstantOperandsCarryNoVersion) {
  // A constant side is versionless (0) everywhere: at the Φ, at the
  // predecessor ends and on the real occurrences.
  FrgFixture Fx(parseFunctionOrDie(R"(
    func f(a, p) {
    entry:
      br p, t, e
    t:
      x = 7 - a
      jmp j
    e:
      jmp j
    j:
      y = 7 - a
      ret y
    }
  )"));
  ExprKey K;
  K.Op = Opcode::Sub;
  K.L.IsConst = true;
  K.L.Const = 7;
  K.R.Var = Fx.F.findVar("a");
  Frg G(Fx.F, Fx.C, Fx.DT, K);
  ASSERT_EQ(G.phis().size(), 1u);
  ASSERT_EQ(G.reals().size(), 2u);
  const PhiOcc &P = G.phis()[0];
  EXPECT_EQ(P.LVerAtEntry, 0);
  EXPECT_EQ(P.RVerAtEntry, 1);
  for (const RealOcc &R : G.reals()) {
    EXPECT_EQ(R.LVer, 0);
    EXPECT_EQ(R.RVer, 1);
  }
  for (const PhiOperand &Op : P.Operands) {
    EXPECT_EQ(Op.LVerAtPredEnd, 0);
    EXPECT_EQ(Op.RVerAtPredEnd, 1);
    EXPECT_FALSE(Op.InsertBlocked);
  }
  EXPECT_EQ(G.reals()[1].Class, P.Class);
}

TEST(Frg, ParameterOperandIsVersionOneAtEntry) {
  // A parameter that is never assigned has version 1 from the entry on;
  // a local never assigned before a join is undefined (0) there, which
  // blocks insertion on that edge.
  FrgFixture Fx(parseFunctionOrDie(R"(
    func f(a, p) {
    entry:
      br p, t, e
    t:
      b = a + 1
      x = a + b
      jmp j
    e:
      jmp j
    j:
      ret p
    }
  )"));
  Frg G(Fx.F, Fx.C, Fx.DT, Fx.key("a", Opcode::Add, "b"));
  ASSERT_EQ(G.reals().size(), 1u);
  EXPECT_EQ(G.reals()[0].LVer, 1);
  ASSERT_EQ(G.phis().size(), 1u);
  const PhiOcc &P = G.phis()[0];
  EXPECT_EQ(P.LVerAtEntry, 1);
  for (const PhiOperand &Op : P.Operands) {
    EXPECT_EQ(Op.LVerAtPredEnd, 1);
    if (Fx.F.Blocks[Op.Pred].Label == "e") {
      EXPECT_EQ(Op.RVerAtPredEnd, 0);
      EXPECT_TRUE(Op.InsertBlocked);
      EXPECT_TRUE(Op.isBottom());
    } else {
      EXPECT_GT(Op.RVerAtPredEnd, 0);
      EXPECT_FALSE(Op.InsertBlocked);
      EXPECT_TRUE(Op.HasRealUse);
    }
  }
}

TEST(Frg, OperandPhiAtJoinSetsEntryVersions) {
  // The Φ at a join with an operand phi sees the phi's version at entry;
  // each operand sees the version live at its predecessor's end.
  FrgFixture Fx(parseFunctionOrDie(R"(
    func f(a, b, p) {
    entry:
      x#1 = a#1 + b#1
      br p#1, t, e
    t:
      a#2 = a#1 * 2
      jmp j
    e:
      jmp j
    j:
      a#3 = phi [t: a#2] [e: a#1]
      z#1 = a#3 + b#1
      ret z#1
    }
  )"));
  Frg G(Fx.F, Fx.C, Fx.DT, Fx.key("a", Opcode::Add, "b"));
  ASSERT_EQ(G.phis().size(), 1u);
  const PhiOcc &P = G.phis()[0];
  EXPECT_EQ(P.LVerAtEntry, 3);
  EXPECT_EQ(P.RVerAtEntry, 1);
  for (const PhiOperand &Op : P.Operands) {
    bool FromT = Fx.F.Blocks[Op.Pred].Label == "t";
    EXPECT_EQ(Op.LVerAtPredEnd, FromT ? 2 : 1);
    EXPECT_EQ(Op.RVerAtPredEnd, 1);
    EXPECT_EQ(Op.isBottom(), FromT);
    EXPECT_FALSE(Op.InsertBlocked);
  }
  ASSERT_EQ(G.reals().size(), 2u);
  EXPECT_EQ(G.reals()[1].Class, P.Class);
  EXPECT_EQ(G.reals()[1].LVer, 3);
}

TEST(Frg, ForeignPhiArgumentBlocksInsertion) {
  // Hand-written SSA whose join phi for operand `a` substitutes `c`
  // along the edge from `t`: no insertion of `a + b` at the end of `t`
  // yields the merged value, so that operand is an insert-blocked ⊥.
  FrgFixture Fx(parseFunctionOrDie(R"(
    func f(a, b, c, p) {
    entry:
      x#1 = a#1 + b#1
      br p#1, t, e
    t:
      y#1 = a#1 + b#1
      jmp j
    e:
      jmp j
    j:
      a#2 = phi [t: c#1] [e: a#1]
      z#1 = a#2 + b#1
      ret z#1
    }
  )"));
  Frg G(Fx.F, Fx.C, Fx.DT, Fx.key("a", Opcode::Add, "b"));
  ASSERT_EQ(G.phis().size(), 1u);
  const PhiOcc &P = G.phis()[0];
  for (const PhiOperand &Op : P.Operands) {
    bool FromT = Fx.F.Blocks[Op.Pred].Label == "t";
    EXPECT_EQ(Op.InsertBlocked, FromT);
    EXPECT_EQ(Op.LVerAtPredEnd, 1);
    if (FromT) {
      EXPECT_TRUE(Op.isBottom());
    } else {
      EXPECT_FALSE(Op.isBottom());
      EXPECT_TRUE(Op.HasRealUse);
    }
  }
  ASSERT_EQ(G.reals().size(), 3u);
  EXPECT_TRUE(G.reals()[1].RgExcluded);
  EXPECT_EQ(G.reals()[2].Class, P.Class);
}

namespace {

/// specpre-opt --stats stdout for \p ModuleText under \p Strategy, trained
/// on \p TrainArgs: the emitted IR and run reports from the request path,
/// plus the per-expression table the tool's --stats side channel prints.
std::string statsStdout(const std::string &ModuleText, PreStrategy Strategy,
                        const std::vector<int64_t> &TrainArgs) {
  ServeRequest R;
  R.ModuleText = ModuleText;
  R.Strategy = Strategy;
  R.TrainArgs = TrainArgs;
  ParallelPreDriver Driver(ParallelConfig{});
  ServeResponse Resp = processServeRequest(
      R, Driver, nullptr, nullptr,
      [&](const Function &, const Profile &, const Function &,
          const PreStats &Stats, ServeResponse &Out) {
        Out.StdoutText += "; per-expression statistics (" +
                          std::string(strategyName(Strategy)) + "):\n";
        for (const ExprStatsRecord &Rec : Stats.records()) {
          std::string Expr = Rec.Expr;
          Expr.resize(std::max<size_t>(Expr.size(), 20), ' ');
          char Counts[160];
          std::snprintf(Counts, sizeof(Counts),
                        " frg=%up+%ur efg=%s%u ins=%u reload=%u save=%u\n",
                        Rec.FrgPhis, Rec.FrgReals, Rec.EfgEmpty ? "-" : "",
                        Rec.EfgEmpty ? 0 : Rec.EfgNodes, Rec.NumInsertions,
                        Rec.NumReloads, Rec.NumSaves);
          Out.StdoutText += ";   " + Expr + Counts;
        }
        return 0;
      });
  EXPECT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_EQ(Resp.ExitCode, 0);
  EXPECT_EQ(Resp.StderrText, "");
  return Resp.StdoutText;
}

} // namespace

TEST(FrgPin, StatsOfSpecSuiteUnderEverySsaLeg) {
  struct Leg {
    PreStrategy Strategy;
    uint64_t Want;
  };
  for (Leg L : {Leg{PreStrategy::McSsaPre, 15481673296592860805ull},
                Leg{PreStrategy::SsaPre, 10150159254170310974ull},
                Leg{PreStrategy::SsaPreSpec, 6874895582125439603ull},
                Leg{PreStrategy::Lospre, 2517322517965918833ull}}) {
    SCOPED_TRACE(strategyName(L.Strategy));
    FieldHash H;
    for (const BenchmarkSpec &S : fullCpu2006Suite())
      H.addBytes(statsStdout(printFunction(S.buildProgram()), L.Strategy,
                             S.TrainArgs));
    EXPECT_EQ(H.H, L.Want);
  }
}
