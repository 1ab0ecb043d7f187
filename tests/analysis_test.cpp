//===- tests/analysis_test.cpp - CFG analyses tests ----------------------------===//

#include "analysis/Cfg.h"
#include "analysis/CriticalEdges.h"
#include "analysis/DataFlow.h"
#include "analysis/DominanceFrontier.h"
#include "analysis/DomTree.h"
#include "analysis/LiveRanges.h"
#include "analysis/LoopRestructure.h"
#include "ssa/SsaConstruction.h"
#include "pre/PreDriver.h"
#include "analysis/Loops.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "workload/ProgramGenerator.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace specpre;

namespace {

/// Naive dominance oracle: A dominates B iff removing A makes B
/// unreachable from the entry.
bool naiveDominates(const Cfg &C, BlockId A, BlockId B) {
  if (A == B)
    return true;
  std::vector<bool> Seen(C.numBlocks(), false);
  std::vector<BlockId> Work;
  if (A != 0) {
    Seen[0] = true;
    Work.push_back(0);
  }
  while (!Work.empty()) {
    BlockId U = Work.back();
    Work.pop_back();
    for (BlockId S : C.succs(U)) {
      if (S == A || Seen[S])
        continue;
      Seen[S] = true;
      Work.push_back(S);
    }
  }
  return !Seen[B];
}

Function irregularCfg() {
  return parseFunctionOrDie(R"(
    func g(p, q) {
    entry:
      br p, a, b
    a:
      br q, c, d
    b:
      jmp d
    c:
      jmp e
    d:
      br p > 1, e, f
    e:
      br q > 2, c, f
    f:
      ret p
    }
  )");
}

} // namespace

TEST(Cfg, PredsSuccsAndRpo) {
  Function F = irregularCfg();
  Cfg C(F);
  EXPECT_EQ(C.numBlocks(), 7u);
  // entry=0 a=1 b=2 c=3 d=4 e=5 f=6
  EXPECT_EQ(C.succs(0), (std::vector<BlockId>{1, 2}));
  EXPECT_EQ(C.preds(4).size(), 2u);
  EXPECT_EQ(C.reversePostOrder().front(), 0);
  EXPECT_EQ(C.reversePostOrder().size(), 7u);
  // RPO property: for every edge that is not a back edge (target earlier
  // in a DFS), source precedes target... check the entry precedes all.
  for (BlockId B : C.reversePostOrder())
    EXPECT_TRUE(C.isReachable(B));
}

TEST(Cfg, UnreachableBlocks) {
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      ret p
    dead:
      jmp dead2
    dead2:
      ret 0
    }
  )");
  Cfg C(F);
  EXPECT_TRUE(C.isReachable(0));
  EXPECT_FALSE(C.isReachable(1));
  EXPECT_FALSE(C.isReachable(2));
  EXPECT_EQ(removeUnreachableBlocks(F), 2u);
  EXPECT_EQ(F.numBlocks(), 1u);
}

TEST(DomTree, MatchesNaiveOracleOnIrregularCfg) {
  Function F = irregularCfg();
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  for (unsigned A = 0; A != C.numBlocks(); ++A)
    for (unsigned B = 0; B != C.numBlocks(); ++B)
      EXPECT_EQ(DT.dominates(A, B), naiveDominates(C, A, B))
          << "A=" << A << " B=" << B;
}

TEST(DomTree, MatchesNaiveOracleOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    GeneratorConfig Cfg0;
    Cfg0.MaxDepth = 3;
    Function F = generateProgram(Seed, Cfg0);
    Cfg C(F);
    DomTree DT = DomTree::buildDominators(C);
    for (unsigned A = 0; A != C.numBlocks(); ++A) {
      if (!C.isReachable(static_cast<BlockId>(A)))
        continue;
      for (unsigned B = 0; B != C.numBlocks(); ++B) {
        if (!C.isReachable(static_cast<BlockId>(B)))
          continue;
        ASSERT_EQ(DT.dominates(A, B), naiveDominates(C, A, B))
            << "seed=" << Seed << " A=" << A << " B=" << B;
      }
    }
  }
}

TEST(DomTree, PreorderCoversReachableBlocks) {
  Function F = irregularCfg();
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  EXPECT_EQ(DT.preorder().size(), 7u);
  EXPECT_EQ(DT.preorder().front(), 0);
}

TEST(PostDomTree, LinearAndDiamond) {
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      br p, t, e
    t:
      jmp j
    e:
      jmp j
    j:
      ret p
    }
  )");
  Cfg C(F);
  DomTree PDT = DomTree::buildPostDominators(C);
  BlockId VirtualExit = static_cast<BlockId>(C.numBlocks());
  // j post-dominates everything; t does not post-dominate entry.
  EXPECT_TRUE(PDT.dominates(3, 0));
  EXPECT_TRUE(PDT.dominates(3, 1));
  EXPECT_FALSE(PDT.dominates(1, 0));
  EXPECT_TRUE(PDT.dominates(VirtualExit, 3));
}

TEST(DominanceFrontier, DiamondJoin) {
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      br p, t, e
    t:
      jmp j
    e:
      jmp j
    j:
      ret p
    }
  )");
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  DominanceFrontier DF(C, DT);
  EXPECT_EQ(DF.frontier(1), (std::vector<BlockId>{3}));
  EXPECT_EQ(DF.frontier(2), (std::vector<BlockId>{3}));
  EXPECT_TRUE(DF.frontier(0).empty());
  EXPECT_TRUE(DF.frontier(3).empty());
  EXPECT_EQ(DF.iterated({1}), (std::vector<BlockId>{3}));
}

TEST(DominanceFrontier, LoopHeaderInOwnIteratedFrontier) {
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      jmp h
    h:
      br p, body, exit
    body:
      jmp h
    exit:
      ret p
    }
  )");
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  DominanceFrontier DF(C, DT);
  // The body's frontier contains the header; the header's own frontier
  // contains itself (via the back edge).
  std::vector<BlockId> BodyDf = DF.frontier(2);
  EXPECT_TRUE(std::count(BodyDf.begin(), BodyDf.end(), 1));
  std::vector<BlockId> HDf = DF.frontier(1);
  EXPECT_TRUE(std::count(HDf.begin(), HDf.end(), 1));
}

TEST(DominanceFrontier, IteratedMatchesFixpointOnRandom) {
  for (uint64_t Seed = 20; Seed <= 26; ++Seed) {
    GeneratorConfig Cfg0;
    Function F = generateProgram(Seed, Cfg0);
    Cfg C(F);
    DomTree DT = DomTree::buildDominators(C);
    DominanceFrontier DF(C, DT);
    // Oracle: set-based fixpoint of DF over the seed set.
    std::vector<BlockId> Seeds;
    for (unsigned B = 0; B < C.numBlocks(); B += 3)
      if (C.isReachable(static_cast<BlockId>(B)))
        Seeds.push_back(static_cast<BlockId>(B));
    std::set<BlockId> Fix;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      std::set<BlockId> Sources(Seeds.begin(), Seeds.end());
      Sources.insert(Fix.begin(), Fix.end());
      for (BlockId S : Sources)
        for (BlockId D : DF.frontier(S))
          Changed |= Fix.insert(D).second;
    }
    std::vector<BlockId> Got = DF.iterated(Seeds);
    std::vector<BlockId> Want(Fix.begin(), Fix.end());
    EXPECT_EQ(Got, Want) << "seed " << Seed;
  }
}

TEST(Loops, SimpleLoopDetected) {
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      jmp h
    h:
      br p, body, exit
    body:
      jmp h
    exit:
      ret p
    }
  )");
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  LoopInfo LI(C, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &L = LI.loops()[0];
  EXPECT_EQ(L.Header, 1);
  EXPECT_EQ(L.Blocks, (std::vector<BlockId>{1, 2}));
  EXPECT_EQ(LI.depth(1), 1);
  EXPECT_EQ(LI.depth(3), 0);
}

TEST(Loops, NestedLoopDepths) {
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      jmp h1
    h1:
      br p, h2, exit
    h2:
      br p > 1, inner, back1
    inner:
      jmp h2
    back1:
      jmp h1
    exit:
      ret p
    }
  )");
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  LoopInfo LI(C, DT);
  ASSERT_EQ(LI.loops().size(), 2u);
  EXPECT_EQ(LI.depth(1), 1);  // h1
  EXPECT_EQ(LI.depth(3), 2);  // inner
  EXPECT_EQ(LI.depth(5), 0);  // exit
}

TEST(CriticalEdges, SplitsExactlyTheCriticalOnes) {
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      br p, a, join
    a:
      br p > 1, join, other
    other:
      jmp join
    join:
      ret p
    }
  )");
  // Critical edges: entry->join and a->join.
  Cfg Before(F);
  unsigned NumCritical = 0;
  for (auto [U, V] : Before.edges())
    NumCritical += Before.isCriticalEdge(U, V);
  EXPECT_EQ(NumCritical, 2u);
  EXPECT_EQ(splitCriticalEdges(F), 2u);
  Cfg After(F);
  for (auto [U, V] : After.edges())
    EXPECT_FALSE(After.isCriticalEdge(U, V));
  std::string Error;
  EXPECT_TRUE(verifyFunction(F, Error)) << Error;
}

TEST(CriticalEdges, DegenerateBranchNormalized) {
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      br p, j, j
    j:
      ret p
    }
  )");
  EXPECT_EQ(normalizeDegenerateBranches(F), 1u);
  EXPECT_EQ(F.Blocks[0].terminator().Kind, StmtKind::Jump);
}

TEST(CriticalEdges, RandomProgramsEndCritFree) {
  for (uint64_t Seed = 40; Seed <= 48; ++Seed) {
    GeneratorConfig Cfg0;
    Function F = generateProgram(Seed, Cfg0);
    splitCriticalEdges(F);
    Cfg C(F);
    for (auto [U, V] : C.edges())
      ASSERT_FALSE(C.isCriticalEdge(U, V)) << "seed " << Seed;
    std::string Error;
    ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  }
}

TEST(LoopRestructure, WhileBecomesBottomTested) {
  Function F = parseFunctionOrDie(R"(
    func f(n) {
    entry:
      i = 0
      jmp h
    h:
      t = i < n
      br t, body, exit
    body:
      i = i + 1
      jmp h
    exit:
      ret i
    }
  )");
  EXPECT_EQ(restructureWhileLoops(F), 1u);
  std::string Error;
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  // After the transformation the loop {body, h} is bottom-tested: its
  // header is the body.
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  LoopInfo LI(C, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_EQ(F.Blocks[LI.loops()[0].Header].Label, "body");
}

TEST(LoopRestructure, PreservesSemantics) {
  for (uint64_t Seed = 60; Seed <= 72; ++Seed) {
    GeneratorConfig Cfg0;
    Function F = generateProgram(Seed, Cfg0);
    Function R = F;
    restructureWhileLoops(R);
    std::string Error;
    ASSERT_TRUE(verifyFunction(R, Error)) << Error;
    for (int64_t Arg = -2; Arg <= 2; ++Arg) {
      std::vector<int64_t> Args(F.Params.size(), Arg * 17 + 3);
      ExecResult A = interpret(F, Args);
      ExecResult B = interpret(R, Args);
      ASSERT_TRUE(A.sameObservableBehavior(B))
          << "seed " << Seed << " arg " << Arg;
      // Same dynamic computations too: pure duplication of a test block.
      ASSERT_EQ(A.DynamicComputations, B.DynamicComputations);
    }
  }
}

namespace {

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// FNV-1a over printFunction of each function after prepareFunction,
/// each text ended by a NUL.
struct PreparedHash {
  std::string All;
  void add(Function F) {
    prepareFunction(F);
    All += printFunction(F);
    All += '\0';
  }
};

} // namespace

// Pins: every expected number below was produced by the restructuring
// that rebuilt the CFG, dominator tree and loops after each guard, so
// these cases hold an incremental update to the same guards, ids and
// labels.
TEST(PrepareFunction, PinnedOnSpecSuite) {
  PreparedHash H;
  unsigned Functions = 0;
  for (const BenchmarkSpec &S : fullCpu2006Suite()) {
    H.add(S.buildProgram());
    ++Functions;
  }
  EXPECT_EQ(Functions, 29u);
  EXPECT_EQ(fnv1a(H.All), 3926592730916652446ull);
}

TEST(PrepareFunction, PinnedOnGeneratedPrograms) {
  PreparedHash H;
  for (uint64_t Seed = 1; Seed <= 400; ++Seed) {
    GeneratorConfig Config;
    Config.MaxDepth = 2 + Seed % 3;
    Config.WhileChance = Seed % 2 ? 250 : 450;
    Config.DoWhileChance = Seed % 4 == 0 ? 250 : 100;
    if (Seed % 5 == 0)
      Config.MaxWidth = 3;
    H.add(generateProgram(Seed, Config));
  }
  EXPECT_EQ(fnv1a(H.All), 10849402374762541954ull);
}

TEST(DataFlow, ReachingLikeUnionProblem) {
  // A tiny forward union problem: "block B executed-after entry" facts.
  Function F = irregularCfg();
  Cfg C(F);
  DataFlowProblem P;
  P.Dir = DataFlowProblem::Direction::Forward;
  P.MeetOp = DataFlowProblem::Meet::Union;
  P.NumBits = C.numBlocks();
  P.Boundary = BitVector(P.NumBits, false);
  P.Gen.assign(C.numBlocks(), BitVector(P.NumBits, false));
  P.Kill.assign(C.numBlocks(), BitVector(P.NumBits, false));
  for (unsigned B = 0; B != C.numBlocks(); ++B)
    P.Gen[B].set(B);
  DataFlowResult R = solveDataFlow(C, P);
  // f (6) is reachable from everything.
  for (unsigned B = 0; B != C.numBlocks(); ++B)
    EXPECT_TRUE(R.In[6].test(B) || B == 6);
  // entry IN is boundary-empty.
  EXPECT_EQ(R.In[0].count(), 0u);
}

TEST(LoopRestructure, MultiExitCycleTerminates) {
  // Every block of this 3-cycle tests-and-exits: rotating the loop walks
  // the header around the cycle; the per-header guard bound must stop
  // the transformation after each block has been guarded once.
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      jmp a
    a:
      br p, b, out1
    b:
      br p > 1, c, out2
    c:
      br p > 2, a, out3
    out1:
      ret 1
    out2:
      ret 2
    out3:
      ret 3
    }
  )");
  unsigned N = restructureWhileLoops(F);
  EXPECT_LE(N, 3u); // at most one guard per original header
  std::string Error;
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  Function Orig = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      jmp a
    a:
      br p, b, out1
    b:
      br p > 1, c, out2
    c:
      br p > 2, a, out3
    out1:
      ret 1
    out2:
      ret 2
    out3:
      ret 3
    }
  )");
  for (int64_t P : {0, 1, 2, 3})
    EXPECT_EQ(interpret(F, {P}).ReturnValue,
              interpret(Orig, {P}).ReturnValue);
}

TEST(Cfg, RemoveUnreachableDropsPhiArgsOfDeadPreds) {
  // The join's phi has an argument from a block that becomes
  // unreachable; removal must drop exactly that argument.
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      br p#1, t, j
    t:
      x#1 = p#1 + 1
      jmp j
    dead:
      jmp j
    j:
      x#2 = phi [entry: p#1] [t: x#1] [dead: p#1]
      ret x#2
    }
  )");
  // 'dead' is unreachable; its phi argument must vanish with it.
  EXPECT_EQ(removeUnreachableBlocks(F), 1u);
  const Stmt &Phi = F.Blocks[F.numBlocks() - 1].Stmts[0];
  ASSERT_EQ(Phi.Kind, StmtKind::Phi);
  EXPECT_EQ(Phi.PhiArgs.size(), 2u);
  std::string Error;
  EXPECT_TRUE(verifyFunction(F, Error)) << Error;
  EXPECT_EQ(interpret(F, {0}).ReturnValue, 0);
  EXPECT_EQ(interpret(F, {4}).ReturnValue, 5);
}

TEST(LiveRangesOnGenerated, SlotsAreConsistentWithUses) {
  // Every used value must have at least one live slot; never-used defs
  // may have zero.
  GeneratorConfig Cfg0;
  Function F = generateProgram(2024, Cfg0);
  prepareFunction(F);
  constructSsa(F);
  LiveRanges LR(F);
  for (const BasicBlock &BB : F.Blocks) {
    for (const Stmt &S : BB.Stmts) {
      auto Check = [&](const Operand &O) {
        if (O.isVar()) {
          EXPECT_GE(LR.liveSlots(O.Var, O.Version), 1u)
              << F.varName(O.Var) << "#" << O.Version;
        }
      };
      if (S.Kind == StmtKind::Compute) {
        Check(S.Src0);
        Check(S.Src1);
      } else if (S.Kind == StmtKind::Ret) {
        Check(S.Src0);
      }
    }
  }
}
