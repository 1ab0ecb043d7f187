//===- tests/stress_test.cpp - Large-program stress ------------------------------===//
//
// One big generated program (hundreds of blocks, thousands of
// statements) through every strategy plus the scalar pipeline and
// out-of-SSA, end to end. Guards against quadratic blowups and
// deep-recursion issues that small unit tests cannot see.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "opt/Cleanup.h"
#include "opt/ValueNumbering.h"
#include "pre/PreDriver.h"
#include "ssa/SsaConstruction.h"
#include "ssa/SsaDestruction.h"
#include "support/PassTimer.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <pthread.h>
#include <string>

using namespace specpre;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Runs \p Body to completion on a new thread with a \p StackBytes stack.
void runOnStackOf(size_t StackBytes, const std::function<void()> &Body) {
  pthread_attr_t Attr;
  ASSERT_EQ(pthread_attr_init(&Attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&Attr, StackBytes), 0);
  pthread_t Thread;
  auto Trampoline = [](void *Arg) -> void * {
    (*static_cast<const std::function<void()> *>(Arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&Thread, &Attr, Trampoline,
                           const_cast<std::function<void()> *>(&Body)),
            0);
  pthread_join(Thread, nullptr);
  pthread_attr_destroy(&Attr);
}

} // namespace

TEST(Stress, LargeProgramAllStrategies) {
  GeneratorConfig Cfg;
  Cfg.MaxDepth = 5;
  Cfg.RegionsPerLevel = 3;
  Cfg.ExprPoolSize = 14;
  Cfg.NumVars = 10;
  Cfg.AllowDiv = true;
  // Deterministically search for a seed of the intended size (the
  // generator's size distribution is heavy-tailed).
  Function Prepared;
  for (uint64_t Seed = 0xBEEF;; ++Seed) {
    Prepared = generateProgram(Seed, Cfg, "stress");
    if (Prepared.numBlocks() >= 150u)
      break;
  }
  prepareFunction(Prepared);
  ASSERT_GE(Prepared.numBlocks(), 150u);

  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  std::vector<int64_t> Args(Prepared.Params.size(), 77);
  ExecResult Train = interpret(Prepared, Args, EO);
  ASSERT_FALSE(Train.TimedOut);
  ASSERT_FALSE(Train.Trapped);

  for (PreStrategy S :
       {PreStrategy::SsaPre, PreStrategy::SsaPreSpec, PreStrategy::McSsaPre,
        PreStrategy::McPre, PreStrategy::Lcm}) {
    PreOptions PO;
    PO.Strategy = S;
    PO.Prof = &Prof;
    Function Opt = compileWithPre(Prepared, PO);
    if (Opt.IsSSA) {
      runValueNumbering(Opt);
      runCleanupPipeline(Opt);
      destructSsa(Opt);
    }
    std::string Error;
    ASSERT_TRUE(verifyFunction(Opt, Error))
        << strategyName(S) << ": " << Error;
    ExecResult Base = interpret(Prepared, Args);
    ExecResult O = interpret(Opt, Args);
    ASSERT_TRUE(Base.sameObservableBehavior(O)) << strategyName(S);
    ASSERT_LE(O.DynamicComputations, Base.DynamicComputations)
        << strategyName(S);
  }
}

TEST(Stress, DeepLoopNestProfileAndPre) {
  GeneratorConfig Cfg;
  Cfg.MaxDepth = 6;
  Cfg.IfChance = 100;
  Cfg.WhileChance = 400;
  Cfg.DoWhileChance = 250;
  Cfg.MinTrip = 2;
  Cfg.MaxTrip = 4;
  Function Prepared;
  for (uint64_t Seed = 0xD00D;; ++Seed) {
    Prepared = generateProgram(Seed, Cfg, "deep");
    if (Prepared.numBlocks() >= 60u)
      break;
  }
  prepareFunction(Prepared);
  Profile Prof;
  ExecOptions EO;
  EO.MaxSteps = 500'000'000;
  EO.CollectProfile = &Prof;
  std::vector<int64_t> Args(Prepared.Params.size(), 5);
  ExecResult Train = interpret(Prepared, Args, EO);
  ASSERT_FALSE(Train.TimedOut);
  std::string Error;
  ASSERT_TRUE(Prof.verifyConservation(Prepared, Error)) << Error;

  Profile NodeOnly = Prof.withoutEdgeFreqs();
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &NodeOnly;
  Function Opt = compileWithPre(Prepared, PO);
  ExecResult Base = interpret(Prepared, Args, EO);
  ExecOptions EO2;
  EO2.MaxSteps = 500'000'000;
  ExecResult O = interpret(Opt, Args, EO2);
  ASSERT_TRUE(Base.sameObservableBehavior(O));
  ASSERT_LE(O.DynamicComputations, Base.DynamicComputations);
}

// Scaling pins. Each input is large enough that a quadratic stage takes
// tens of seconds even in an optimized build, and each bound leaves more
// than 10x headroom over the linear stage in an unoptimized one.

TEST(Stress, ParseIsLinearInStatements) {
  // 8,000 assignments (182 KB), each materializing a `t$` temp: fresh
  // names that probe every earlier suffix make this quadratic.
  std::string Text = "func big(a, b) {\nentry:\n";
  for (unsigned K = 0; K != 8000; ++K)
    Text += "  v" + std::to_string(K) + " = a * " + std::to_string(K) +
            " + b\n";
  Text += "  ret v7999\n}\n";
  auto Start = std::chrono::steady_clock::now();
  std::string Error;
  std::optional<Module> M = parseModule(Text, Error);
  double Seconds = secondsSince(Start);
  ASSERT_TRUE(M.has_value()) << Error;
  EXPECT_EQ(M->Functions.front().Blocks.front().Stmts.size(), 16001u);
  EXPECT_LT(Seconds, 8.0) << "parsing 182 KB took " << Seconds << " s";
}

TEST(Stress, VerifierIsLinearInBlocks) {
  // A chain of 16,000 SSA diamonds: level I's left arm computes from
  // level I-1's join value, and its join merges that with the right arm's
  // pass-through. Every use crosses blocks, so a dominance test that
  // searches the CFG per use is quadratic.
  const unsigned Levels = 16000;
  Function F;
  F.Name = "chain";
  F.IsSSA = true;
  VarId P = F.getOrAddVar("p"), V = F.getOrAddVar("v"),
        A = F.getOrAddVar("a");
  F.Params.push_back(P);
  Operand Prev = Operand::makeVar(P, 1);
  BlockId Head = F.addBlock("entry");
  for (unsigned I = 1; I <= Levels; ++I) {
    std::string N = std::to_string(I);
    BlockId L = F.addBlock("l" + N), R = F.addBlock("r" + N),
            J = F.addBlock("j" + N);
    F.Blocks[Head].Stmts.push_back(
        Stmt::makeBranch(Operand::makeVar(P, 1), L, R));
    F.Blocks[L].Stmts.push_back(Stmt::makeCompute(
        A, Opcode::Add, Prev, Operand::makeConst(1), static_cast<int>(I)));
    F.Blocks[L].Stmts.push_back(Stmt::makeJump(J));
    F.Blocks[R].Stmts.push_back(Stmt::makeJump(J));
    F.Blocks[J].Stmts.push_back(Stmt::makePhi(
        V,
        {PhiArg{L, Operand::makeVar(A, static_cast<int>(I))},
         PhiArg{R, Prev}},
        static_cast<int>(I)));
    Prev = Operand::makeVar(V, static_cast<int>(I));
    Head = J;
  }
  F.Blocks[Head].Stmts.push_back(Stmt::makeRet(Prev));

  auto Start = std::chrono::steady_clock::now();
  std::string Error;
  bool Ok = verifyFunction(F, Error);
  double Seconds = secondsSince(Start);
  EXPECT_TRUE(Ok) << Error;
  EXPECT_LT(Seconds, 8.0) << "verifying " << F.numBlocks() << " blocks took "
                          << Seconds << " s";
}

namespace {

/// A straight chain of \p Blocks blocks, block K computing
/// `v = v + a * K`: two candidates per block, each occurring once.
std::string chainOfCandidates(unsigned Blocks) {
  std::string Text = "func chain(a, n) {\nentry:\n  v = n\n  jmp b0\n";
  for (unsigned K = 0; K != Blocks; ++K) {
    std::string Next = K + 1 == Blocks ? "done" : "b" + std::to_string(K + 1);
    Text += "b" + std::to_string(K) + ":\n  v = v + a * " + std::to_string(K) +
            "\n  jmp " + Next + "\n";
  }
  return Text + "done:\n  ret v\n}\n";
}

/// Milliseconds that Φ-insertion, rename and finalize take compiling
/// \p Prepared under \p Strategy.
double frgStepMillis(const Function &Prepared, PreStrategy Strategy,
                     const Profile *Prof) {
  PipelineMetrics M;
  {
    MetricsScope Scope(&M);
    PreOptions PO;
    PO.Strategy = Strategy;
    PO.Prof = Prof;
    compileWithPre(Prepared, PO);
  }
  uint64_t Nanos = M.step(PipelineStep::PhiInsertion).Nanos +
                   M.step(PipelineStep::Rename).Nanos +
                   M.step(PipelineStep::Finalize).Nanos;
  return static_cast<double>(Nanos) / 1e6;
}

} // namespace

TEST(Stress, FrgStepsFollowEachCandidatesFootprint) {
  // Each candidate of a straight chain occurs in one block and has no Φ,
  // so the three FRG steps cost about the same per candidate at any
  // length. Steps that visit every block per candidate are quadratic:
  // tens of seconds on these chains in an optimized build.
  const std::vector<int64_t> Args = {3, 4};
  {
    Function Prepared = parseFunctionOrDie(chainOfCandidates(8000));
    prepareFunction(Prepared);
    Profile Prof;
    ExecOptions EO;
    EO.CollectProfile = &Prof;
    interpret(Prepared, Args, EO);
    double Millis = frgStepMillis(Prepared, PreStrategy::McSsaPre, &Prof);
    EXPECT_LT(Millis, 2000.0) << "MC-SSAPRE, 8,000 blocks";
  }
  {
    Function Prepared = parseFunctionOrDie(chainOfCandidates(6000));
    prepareFunction(Prepared);
    double Millis = frgStepMillis(Prepared, PreStrategy::SsaPre, nullptr);
    EXPECT_LT(Millis, 2000.0) << "SSAPRE, 6,000 blocks";
  }
}

TEST(Stress, DominatorTreeWalksNeedNoStackPerLevel) {
  // A straight chain of 5,000 blocks has a dominator tree 5,000 levels
  // deep. On a 256 KiB stack, a walk that recursed once per level (SSA
  // renaming, FRG rename, finalize, GVN) overflows; the iterative walk
  // compiles it under every SSA strategy, trained, and through GVN.
  const unsigned Blocks = 5000;
  std::string Text = "func chain(a, n) {\nentry:\n  v = n\n  jmp b0\n";
  for (unsigned K = 0; K != Blocks; ++K) {
    std::string Next = K + 1 == Blocks ? "done" : "b" + std::to_string(K + 1);
    Text += "b" + std::to_string(K) + ":\n  v = v + a\n  jmp " + Next + "\n";
  }
  Text += "done:\n  ret v\n}\n";
  const std::vector<int64_t> Args = {3, 4};

  runOnStackOf(256 * 1024, [&] {
    Function Prepared = parseFunctionOrDie(Text);
    prepareFunction(Prepared);
    Profile Prof;
    ExecOptions EO;
    EO.CollectProfile = &Prof;
    ExecResult Train = interpret(Prepared, Args, EO);
    ASSERT_EQ(Train.ReturnValue, 4 + 3 * int64_t(Blocks));
    for (PreStrategy S : {PreStrategy::SsaPre, PreStrategy::SsaPreSpec,
                          PreStrategy::McSsaPre, PreStrategy::Lospre}) {
      SCOPED_TRACE(strategyName(S));
      PreOptions PO;
      PO.Strategy = S;
      PO.Prof = &Prof;
      Function Opt = compileWithPre(Prepared, PO);
      EXPECT_TRUE(interpret(Opt, Args).sameObservableBehavior(Train));
      if (S != PreStrategy::SsaPre)
        continue;
      runValueNumbering(Opt);
      std::string Error;
      EXPECT_TRUE(verifyFunction(Opt, Error)) << Error;
      EXPECT_TRUE(interpret(Opt, Args).sameObservableBehavior(Train));
    }
  });
}
