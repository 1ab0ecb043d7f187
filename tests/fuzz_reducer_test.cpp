//===- tests/fuzz_reducer_test.cpp - Fuzz oracle stack and reducer --------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pre/ExprKey.h"
#include "workload/FuzzOracles.h"
#include "workload/Reducer.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace specpre;

namespace {

unsigned countStmts(const Function &F) {
  unsigned N = 0;
  for (const BasicBlock &B : F.Blocks)
    N += static_cast<unsigned>(B.Stmts.size());
  return N;
}

} // namespace

TEST(FuzzOracles, CaseDerivationIsDeterministic) {
  Function A = fuzzProgram(42, 7);
  Function B = fuzzProgram(42, 7);
  EXPECT_EQ(printFunction(A), printFunction(B));
  EXPECT_EQ(fuzzTrainArgs(A, 42, 7), fuzzTrainArgs(B, 42, 7));
  EXPECT_EQ(fuzzVariantArgs(A, 42, 7), fuzzVariantArgs(B, 42, 7));
  // Different cases differ (the generator actually varies).
  Function C = fuzzProgram(42, 8);
  EXPECT_NE(printFunction(A), printFunction(C));
}

TEST(FuzzOracles, PipelineStackPassesOnGeneratedPrograms) {
  for (uint64_t CaseIdx = 0; CaseIdx != 25; ++CaseIdx) {
    Function F = fuzzProgram(5, CaseIdx);
    std::optional<OracleFailure> Fail = checkPipelineOracles(
        F, fuzzTrainArgs(F, 5, CaseIdx), fuzzVariantArgs(F, 5, CaseIdx));
    EXPECT_FALSE(Fail.has_value())
        << "case " << CaseIdx << ": oracle '" << Fail->Oracle
        << "': " << Fail->Message;
  }
}

TEST(FuzzOracles, RandomNetworksMatchBruteForce) {
  for (uint64_t CaseIdx = 0; CaseIdx != 200; ++CaseIdx) {
    std::optional<OracleFailure> Fail = checkRandomNetworkCase(3, CaseIdx);
    EXPECT_FALSE(Fail.has_value())
        << "network " << CaseIdx << ": oracle '" << Fail->Oracle
        << "': " << Fail->Message;
  }
}

TEST(FuzzOracles, SemanticOracleCatchesAMiscompile) {
  // A deliberately wrong "profile" cannot break semantics, but a wrong
  // branch target can: flipping the branch reverses the prints, and the
  // pipeline oracle run on the flipped function against the original
  // arguments must of course pass (the flipped function is simply a
  // different program). The oracle we exercise here is the reproducer
  // round trip instead: a formatted pipeline case replays cleanly.
  Function F = fuzzProgram(9, 1);
  std::vector<int64_t> Args = fuzzTrainArgs(F, 9, 1);
  OracleFailure Dummy{"ordering", "synthetic"};
  std::string Text = formatPipelineReproducer(F, Args, Dummy);
  std::string Path = testing::TempDir() + "/roundtrip.ir";
  {
    std::ofstream Out(Path);
    Out << Text;
  }
  std::optional<OracleFailure> Fail = replayCorpusFile(Path);
  EXPECT_FALSE(Fail.has_value())
      << "oracle '" << Fail->Oracle << "': " << Fail->Message;
}

TEST(FuzzOracles, FlowConservationOracleTripsOnBrokenProfile) {
  // Stored-profile oracles must reject a profile too small for the
  // function rather than misattribute frequencies.
  Function F = parseFunctionOrDie(R"(
    func f(a, b) {
    entry:
      x = a + b
      ret x
    }
  )");
  Profile Tiny; // covers zero blocks
  std::optional<OracleFailure> Fail =
      checkStoredProfileOracles(F, Tiny, {{1, 2}});
  ASSERT_TRUE(Fail.has_value());
  EXPECT_EQ(Fail->Oracle, "corpus");
}

TEST(Reducer, ShrinksToThePredicateCore) {
  // The predicate keeps only "some block still computes a * b". The
  // reducer must strip the surrounding control flow and arithmetic down
  // to (nearly) just that statement.
  Function F = parseFunctionOrDie(R"(
    func f(a, b, p) {
    entry:
      u = a + b
      v = u + 1
      br p, left, right
    left:
      w = a * b
      print w
      jmp join
    right:
      t = a - b
      print t
      jmp join
    join:
      s = a + 7
      ret s
    }
  )");
  ExprKey Mul;
  Mul.Op = Opcode::Mul;
  Mul.L.Var = F.findVar("a");
  Mul.R.Var = F.findVar("b");
  auto HasMul = [Mul](const Function &Cand) {
    for (const BasicBlock &B : Cand.Blocks)
      for (const Stmt &S : B.Stmts)
        if (Mul.matches(S))
          return true;
    return false;
  };
  ASSERT_TRUE(HasMul(F));
  Function Reduced = reduceFunction(F, HasMul);
  EXPECT_TRUE(HasMul(Reduced));
  EXPECT_LT(countStmts(Reduced), countStmts(F));
  // The branch collapses onto the left path and the right path dies.
  EXPECT_LE(Reduced.numBlocks(), 3u);
  // Statements the predicate does not need are gone.
  unsigned Computes = 0;
  for (const BasicBlock &B : Reduced.Blocks)
    for (const Stmt &S : B.Stmts)
      Computes += S.Kind == StmtKind::Compute;
  EXPECT_EQ(Computes, 1u);
}

TEST(Reducer, ThrowingCandidatesAreRejectedNotFatal) {
  // The reducer's first moves delete statements, among them the only
  // definition of a variable; SSA construction then throws
  // StatusException(InvalidInput) out of checkPipelineOracles. Judged
  // through guardOracles, as specpre-fuzz judges every candidate, such a
  // candidate reads as `uncaught-status`, a different oracle from the
  // one being reduced, and is simply not kept.
  Function F = parseFunctionOrDie(R"(
    func f(a, b, p) {
    entry:
      u = a + b
      v = u * 3
      br p, left, right
    left:
      w = a * b
      print w
      jmp join
    right:
      t = v - b
      print t
      jmp join
    join:
      s = u + v
      ret s
    }
  )");
  const std::vector<int64_t> Train = {3, 4, 1};
  const std::vector<std::vector<int64_t>> Variants = {{3, 4, 0}, {5, 6, 1}};
  ExprKey Mul;
  Mul.Op = Opcode::Mul;
  Mul.L.Var = F.findVar("a");
  Mul.R.Var = F.findVar("b");
  // A failure that persists while the pipeline runs and a * b survives.
  auto Check = [&](const Function &Cand) {
    return guardOracles([&]() -> std::optional<OracleFailure> {
      if (auto Fail = checkPipelineOracles(Cand, Train, Variants))
        return Fail;
      for (const BasicBlock &B : Cand.Blocks)
        for (const Stmt &S : B.Stmts)
          if (Mul.matches(S))
            return OracleFailure{"synthetic", "a * b survives"};
      return std::nullopt;
    });
  };
  std::optional<OracleFailure> Original = Check(F);
  ASSERT_TRUE(Original.has_value());
  ASSERT_EQ(Original->Oracle, "synthetic") << Original->Message;

  // The same pipeline throws on a candidate without u's definition.
  Function NoDef = F;
  NoDef.Blocks[0].Stmts.erase(NoDef.Blocks[0].Stmts.begin());
  std::optional<OracleFailure> Thrown = Check(NoDef);
  ASSERT_TRUE(Thrown.has_value());
  EXPECT_EQ(Thrown->Oracle, "uncaught-status") << Thrown->Message;
  EXPECT_NE(Thrown->Message.find("invalid-input"), std::string::npos)
      << Thrown->Message;

  unsigned Probes = 0;
  Function Reduced = reduceFunction(F, [&](const Function &Cand) {
    ++Probes;
    std::optional<OracleFailure> Fail = Check(Cand);
    return Fail && Fail->Oracle == Original->Oracle;
  });
  EXPECT_GT(Probes, 0u);
  EXPECT_LT(countStmts(Reduced), countStmts(F));
  std::optional<OracleFailure> Kept = Check(Reduced);
  ASSERT_TRUE(Kept.has_value());
  EXPECT_EQ(Kept->Oracle, "synthetic") << Kept->Message;
}

TEST(Reducer, RespectsTheProbeBudget) {
  Function F = fuzzProgram(13, 2);
  unsigned Probes = 0;
  auto Predicate = [&Probes](const Function &) {
    ++Probes;
    return false; // nothing shrinks
  };
  Function Reduced = reduceFunction(F, Predicate, /*MaxProbes=*/10);
  EXPECT_LE(Probes, 10u);
  EXPECT_EQ(printFunction(Reduced), printFunction(F));
}
