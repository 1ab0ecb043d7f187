//===- tests/robustness_test.cpp - Fault isolation & degradation ----------------===//
//
// Coverage for the robustness stack: the deterministic fault injector,
// per-function compile budgets, and the degradation ladder that turns
// recoverable failures into retries on cheaper strategies. Each rung of
// the ladder is pinned by arming exactly the fault sites that kill the
// rungs above it.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "mincut/MinCut.h"
#include "pre/CompileService.h"
#include "pre/ParallelDriver.h"
#include "pre/PreDriver.h"
#include "support/Budget.h"
#include "support/CompileCache.h"
#include "support/FaultInjector.h"
#include "support/Status.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace specpre;

namespace {

/// The skewed-diamond scenario (see mcssapre_test): the expression is
/// used only on the cold path, so MC-SSAPRE speculates under a profile
/// and every pipeline step — including the EFG min cut — actually runs.
const char *SkewedDiamond = R"(
  func f(a, b, n) {
  entry:
    i = 0
    s = 0
    jmp h
  h:
    t = i < n
    br t, body, exit
  body:
    c = i & 7
    cz = c == 0
    br cz, cold, hot
  cold:
    x = a + b
    s = s + x
    jmp latch
  hot:
    s = s + 1
    jmp latch
  latch:
    i = i + 1
    jmp h
  exit:
    ret s
  }
)";

const std::vector<int64_t> TrainArgs = {3, 4, 64};

struct Case {
  Function Prepared;
  Profile NodeOnly;
};

Case prepareCase() {
  Case C;
  C.Prepared = parseFunctionOrDie(SkewedDiamond);
  prepareFunction(C.Prepared);
  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  interpret(C.Prepared, TrainArgs, EO);
  C.NodeOnly = Prof.withoutEdgeFreqs();
  return C;
}

/// Fixture that guarantees injection is disarmed after every test, so a
/// failing expectation cannot poison unrelated tests in this binary.
class RobustnessTest : public ::testing::Test {
protected:
  void TearDown() override { disableFaultInjection(); }

  CompileOutcomeRecord compileLadder(const Case &C, const CompileBudget &B =
                                                        CompileBudget()) {
    PreOptions PO;
    PO.Strategy = PreStrategy::McSsaPre;
    PO.Prof = &C.NodeOnly;
    PO.Budget = B;
    CompileOutcomeRecord Outcome;
    Result = compileWithFallback(C.Prepared, PO, &Outcome);
    return Outcome;
  }

  Function Result;
};

PreOptions mcSsaPreOptions(const Case &C) {
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &C.NodeOnly;
  return PO;
}

/// Compiles \p Copies copies of \p C under \p PO as one corpus on a
/// \p Jobs-worker driver, recording into \p Stats and \p Metrics when
/// set.
std::vector<Function> driverCompile(const Case &C, const PreOptions &PO,
                                    unsigned Jobs, int Copies,
                                    PreStats *Stats,
                                    PipelineMetrics *Metrics = nullptr) {
  ParallelConfig PC;
  PC.Jobs = Jobs;
  ParallelPreDriver Driver(PC);
  std::vector<CompileTask> Tasks(Copies, CompileTask{&C.Prepared, PO});
  return Driver.compileCorpus(Tasks, Stats, Metrics);
}

TEST_F(RobustnessTest, FaultSpecParsing) {
  EXPECT_TRUE(configureFaultInjection("min-cut:0.5").isOk());
  EXPECT_TRUE(faultInjectionEnabled());
  EXPECT_TRUE(configureFaultInjection("all:0.01:77").isOk());
  EXPECT_TRUE(configureFaultInjection("alloc:1,budget:0.25:3").isOk());

  EXPECT_EQ(configureFaultInjection("bogus:1").code(),
            ErrorCode::InvalidInput);
  EXPECT_EQ(configureFaultInjection("min-cut:2").code(),
            ErrorCode::InvalidInput);
  EXPECT_EQ(configureFaultInjection("min-cut:-0.5").code(),
            ErrorCode::InvalidInput);
  EXPECT_EQ(configureFaultInjection("min-cut").code(),
            ErrorCode::InvalidInput);
  EXPECT_EQ(configureFaultInjection("min-cut:0.5:notaseed").code(),
            ErrorCode::InvalidInput);

  EXPECT_TRUE(configureFaultInjection("").isOk());
  EXPECT_FALSE(faultInjectionEnabled());
}

TEST_F(RobustnessTest, NoInjectionNoDegradation) {
  Case C = prepareCase();
  CompileOutcomeRecord O = compileLadder(C);
  EXPECT_EQ(O.Used, "MC-SSAPRE");
  EXPECT_EQ(O.Retries, 0u);
  EXPECT_FALSE(O.degraded());
  EXPECT_TRUE(O.Cause.empty());
}

TEST_F(RobustnessTest, LadderPinsSsaPreSpecRung) {
  Case C = prepareCase();
  ASSERT_TRUE(configureFaultInjection("min-cut:1").isOk());
  CompileOutcomeRecord O = compileLadder(C);
  EXPECT_EQ(O.Requested, "MC-SSAPRE");
  EXPECT_EQ(O.Used, "SSAPREsp");
  EXPECT_EQ(O.Retries, 1u);
  EXPECT_EQ(O.Cause, "fault-injected");
}

TEST_F(RobustnessTest, LadderPinsSsaPreRung) {
  Case C = prepareCase();
  ASSERT_TRUE(configureFaultInjection("min-cut:1,speculation:1").isOk());
  CompileOutcomeRecord O = compileLadder(C);
  EXPECT_EQ(O.Used, "SSAPRE");
  EXPECT_EQ(O.Retries, 2u);
  EXPECT_EQ(O.Cause, "fault-injected");
}

TEST_F(RobustnessTest, LadderPinsIdentityRung) {
  Case C = prepareCase();
  ASSERT_TRUE(
      configureFaultInjection("min-cut:1,speculation:1,safe-placement:1")
          .isOk());
  CompileOutcomeRecord O = compileLadder(C);
  EXPECT_EQ(O.Used, "none");
  EXPECT_EQ(O.Retries, 3u);
  // The identity rung hands back the prepared input verbatim.
  EXPECT_EQ(printFunction(Result), printFunction(C.Prepared));
}

TEST_F(RobustnessTest, SemanticsPreservedUnderInjection) {
  Case C = prepareCase();
  ExecResult Ref = interpret(C.Prepared, TrainArgs);
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    std::string Spec = "all:0.3:" + std::to_string(Seed);
    ASSERT_TRUE(configureFaultInjection(Spec).isOk());
    CompileOutcomeRecord O = compileLadder(C);
    EXPECT_FALSE(O.Used.empty());
    ExecResult R = interpret(Result, TrainArgs);
    EXPECT_TRUE(R.sameObservableBehavior(Ref))
        << "seed " << Seed << " landed on " << O.Used << ": "
        << R.describe() << " vs " << Ref.describe();
  }
}

TEST_F(RobustnessTest, InjectionIsDeterministic) {
  Case C = prepareCase();
  ASSERT_TRUE(configureFaultInjection("all:0.4:99").isOk());
  CompileOutcomeRecord First = compileLadder(C);
  std::string FirstIr = printFunction(Result);
  uint64_t FirstFaults = faultsInjectedCount();
  // Re-arming the same spec resets the hit counters, so the whole run
  // replays bit-identically.
  ASSERT_TRUE(configureFaultInjection("all:0.4:99").isOk());
  CompileOutcomeRecord Second = compileLadder(C);
  EXPECT_EQ(First, Second);
  EXPECT_EQ(FirstIr, printFunction(Result));
  EXPECT_EQ(FirstFaults, faultsInjectedCount());
}

TEST_F(RobustnessTest, BudgetGraphNodeCapDegrades) {
  Case C = prepareCase();
  CompileBudget B;
  B.MaxGraphNodes = 1; // Every FRG is bigger than this.
  CompileOutcomeRecord O = compileLadder(C, B);
  EXPECT_EQ(O.Used, "none");
  EXPECT_EQ(O.Cause, "budget-exhausted");
  EXPECT_EQ(printFunction(Result), printFunction(C.Prepared));
}

TEST_F(RobustnessTest, BudgetDeadlineTrips) {
  CompileBudget B;
  B.DeadlineMillis = 1;
  BudgetTracker T(B);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Status S = T.checkDeadline("unit test");
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), ErrorCode::BudgetExhausted);
  // reset() restores the full allowance for the next ladder rung.
  T.reset();
  EXPECT_TRUE(T.checkDeadline("unit test").isOk());
}

TEST_F(RobustnessTest, BudgetDeadlineStopsTheCandidateLoop) {
  // Leg A has no cut step, so only the per-candidate deadline check can
  // stop it: a 3,000-block chain with two candidates per block takes far
  // longer than 1 ms, and the ladder lands on the identity rung.
  std::string Text = "func chain(a, n) {\nentry:\n  v = n\n  jmp b0\n";
  for (unsigned K = 0; K != 3000; ++K)
    Text += "b" + std::to_string(K) + ":\n  v = v + a * " +
            std::to_string(K) + "\n  jmp " +
            (K + 1 == 3000 ? "done" : "b" + std::to_string(K + 1)) + "\n";
  Text += "done:\n  ret v\n}\n";
  Function Prepared = parseFunctionOrDie(Text);
  prepareFunction(Prepared);
  PreOptions PO;
  PO.Strategy = PreStrategy::SsaPre;
  PO.Budget.DeadlineMillis = 1;
  CompileOutcomeRecord O;
  Result = compileWithFallback(Prepared, PO, &O);
  EXPECT_EQ(O.Used, "none");
  EXPECT_EQ(O.Cause, "budget-exhausted");
  EXPECT_NE(O.Message.find("SSA PRE candidate"), std::string::npos)
      << O.Message;
  EXPECT_TRUE(printFunction(Result) == printFunction(Prepared));
}

TEST_F(RobustnessTest, BudgetAugmentationCapTrips) {
  CompileBudget B;
  B.MaxFlowAugmentations = 2;
  BudgetTracker T(B);
  EXPECT_TRUE(T.noteAugmentation("unit test").isOk());
  EXPECT_TRUE(T.noteAugmentation("unit test").isOk());
  Status S = T.noteAugmentation("unit test");
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), ErrorCode::BudgetExhausted);
  EXPECT_EQ(T.augmentationsUsed(), 3u);
}

TEST_F(RobustnessTest, UseBeforeDefDegradesToIdentity) {
  // An invalid-input error from SSA construction is recoverable: every
  // SSA rung fails, and the identity rung (which never builds SSA)
  // returns the input unchanged instead of aborting the process.
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      x = never_assigned + 1
      ret x
    }
  )");
  PreOptions PO;
  PO.Strategy = PreStrategy::SsaPre;
  PO.Verify = false;
  CompileOutcomeRecord O;
  Function Out = compileWithFallback(F, PO, &O);
  EXPECT_EQ(O.Used, "none");
  EXPECT_EQ(O.Cause, "invalid-input");
  EXPECT_EQ(printFunction(Out), printFunction(F));
}

TEST_F(RobustnessTest, BruteForceOracleRejectsOversizedNetwork) {
  FlowNetwork Net;
  for (int I = 0; I != 23; ++I)
    Net.addNode();
  for (int I = 0; I + 1 != 23; ++I)
    Net.addEdge(I, I + 1, 1);
  Expected<int64_t> R = bruteForceMinCutCapacity(Net, 0, 22);
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.status().code(), ErrorCode::ResourceLimit);
}

TEST_F(RobustnessTest, ParallelFallbackMatchesSerial) {
  Case C = prepareCase();
  PreOptions PO = mcSsaPreOptions(C);
  PreStats SerialStats;
  PO.Stats = &SerialStats;
  CompileOutcomeRecord SerialOutcome;
  Function Serial = compileWithFallback(C.Prepared, PO, &SerialOutcome);
  const std::string SerialIr = printFunction(Serial);

  for (unsigned Jobs : {1u, 4u}) {
    PreStats Stats;
    std::vector<Function> Out = driverCompile(C, PO, Jobs, 4, &Stats);
    ASSERT_EQ(Stats.outcomes().size(), Out.size());
    for (unsigned I = 0; I != Out.size(); ++I) {
      EXPECT_EQ(printFunction(Out[I]), SerialIr) << "jobs=" << Jobs;
      CompileOutcomeRecord Want = SerialOutcome;
      Want.FuncIndex = I;
      EXPECT_EQ(Stats.outcomes()[I], Want) << "jobs=" << Jobs;
    }
    EXPECT_EQ(Stats.records().size(),
              Out.size() * SerialStats.records().size());
  }
}

TEST_F(RobustnessTest, ParallelDriverDegradesUnderInjection) {
  Case C = prepareCase();
  ExecResult Ref = interpret(C.Prepared, TrainArgs);
  for (unsigned Jobs : {1u, 4u}) {
    ASSERT_TRUE(configureFaultInjection("min-cut:1").isOk());
    PreStats Stats;
    std::vector<Function> Out =
        driverCompile(C, mcSsaPreOptions(C), Jobs, 4, &Stats);
    ASSERT_EQ(Stats.outcomes().size(), Out.size());
    for (unsigned I = 0; I != Out.size(); ++I) {
      const CompileOutcomeRecord &O = Stats.outcomes()[I];
      EXPECT_TRUE(O.degraded());
      EXPECT_EQ(O.Used, "SSAPREsp");
      EXPECT_TRUE(interpret(Out[I], TrainArgs).sameObservableBehavior(Ref));
    }
  }
}

/// The request of a SpecSuite benchmark with every outcome reported.
ServeRequest suiteRequest(const std::string &Name) {
  for (const BenchmarkSpec &S : fullCpu2006Suite())
    if (S.Name == Name) {
      ServeRequest R;
      R.ModuleText = printFunction(S.buildProgram());
      R.TrainArgs = S.TrainArgs;
      R.ReportOutcomes = true;
      return R;
    }
  ADD_FAILURE() << "no SpecSuite benchmark " << Name;
  return ServeRequest();
}

// A function compiles on one thread, so under fault injection it meets
// the same hit numbers at any --jobs and lands on the same rung with the
// same cause. The spec fails half of h264ref's min-cut probes, so a
// compile that spread one function's expressions over threads would
// report a different first hit in most rounds.
TEST_F(RobustnessTest, InjectionReplaysIdenticallyAtAnyJobs) {
  const ServeRequest R = suiteRequest("h264ref");
  const char *Spec = "min-cut:0.5:7";
  auto Serve = [&](unsigned Jobs) {
    ParallelConfig PC;
    PC.Jobs = Jobs;
    ParallelPreDriver Driver(PC);
    EXPECT_TRUE(configureFaultInjection(Spec).isOk());
    return encodeServeResponse(
        processServeRequest(R, Driver, nullptr, nullptr));
  };
  const std::string Serial = Serve(1);
  ASSERT_NE(Serial.find("cause=fault-injected"), std::string::npos)
      << Serial;
  for (int Round = 0; Round != 4; ++Round)
    ASSERT_EQ(Serve(4), Serial) << "round " << Round;
}

TEST_F(RobustnessTest, OutcomeRecordedInStats) {
  Case C = prepareCase();
  ASSERT_TRUE(configureFaultInjection("min-cut:1").isOk());
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &C.NodeOnly;
  PreStats Stats;
  PO.Stats = &Stats;
  compileWithFallback(C.Prepared, PO);
  ASSERT_EQ(Stats.outcomes().size(), 1u);
  EXPECT_EQ(Stats.outcomes()[0].Used, "SSAPREsp");
  EXPECT_EQ(Stats.numDegraded(), 1u);
}

//===----------------------------------------------------------------------===//
// Robustness counters and step counts: each counts what its name says,
// through the serial entry point and the driver alike.
//===----------------------------------------------------------------------===//

/// Metrics of \p Times compiles of \p C under \p PO through the serial
/// compileWithFallback, with a MetricsScope installed.
PipelineMetrics serialMetrics(const Case &C, const PreOptions &PO,
                              int Times = 1) {
  PipelineMetrics M;
  MetricsScope Scope(&M);
  for (int I = 0; I != Times; ++I)
    compileWithFallback(C.Prepared, PO);
  return M;
}

/// The same through \p Times one-function corpora on a \p Jobs-worker
/// driver.
PipelineMetrics driverMetrics(const Case &C, const PreOptions &PO,
                              unsigned Jobs, int Times = 1) {
  ParallelConfig PC;
  PC.Jobs = Jobs;
  ParallelPreDriver Driver(PC);
  PipelineMetrics M;
  for (int I = 0; I != Times; ++I)
    Driver.compileCorpus({{&C.Prepared, PO}}, nullptr, &M);
  return M;
}

uint64_t invocations(const PipelineMetrics &M, PipelineStep S) {
  return M.step(S).Invocations;
}

TEST_F(RobustnessTest, BudgetBailoutIsNotAWorkerFailure) {
  Case C = prepareCase();
  PreOptions PO = mcSsaPreOptions(C);
  PO.Budget.MaxGraphNodes = 1;
  for (const PipelineMetrics &M : {serialMetrics(C, PO),
                                   driverMetrics(C, PO, 1),
                                   driverMetrics(C, PO, 4)}) {
    const RobustnessCounters &R = M.robustness();
    EXPECT_EQ(R.FunctionsCompiled, 1u);
    EXPECT_EQ(R.FunctionsDegraded, 1u);
    EXPECT_EQ(R.LadderRetries, 3u);
    EXPECT_EQ(R.WorkerFailures, 0u);
  }
}

TEST_F(RobustnessTest, SerialLadderCountsLikeTheDriver) {
  Case C = prepareCase();
  PreOptions Clean = mcSsaPreOptions(C);
  PreOptions Starved = Clean;
  Starved.Budget.MaxGraphNodes = 1;
  for (const char *Spec : {"", "min-cut:1", "min-cut:1,speculation:1"}) {
    for (const PreOptions *PO : {&Clean, &Starved}) {
      ASSERT_TRUE(configureFaultInjection(Spec).isOk());
      PipelineMetrics Serial = serialMetrics(C, *PO);
      for (unsigned Jobs : {1u, 4u}) {
        ASSERT_TRUE(configureFaultInjection(Spec).isOk());
        PipelineMetrics Driver = driverMetrics(C, *PO, Jobs);
        const RobustnessCounters &S = Serial.robustness();
        const RobustnessCounters &D = Driver.robustness();
        EXPECT_EQ(S.FunctionsCompiled, 1u) << Spec;
        EXPECT_EQ(S.FunctionsCompiled, D.FunctionsCompiled) << Spec;
        EXPECT_EQ(S.FunctionsDegraded, D.FunctionsDegraded) << Spec;
        EXPECT_EQ(S.LadderRetries, D.LadderRetries) << Spec;
        EXPECT_EQ(S.WorkerFailures, D.WorkerFailures) << Spec;
        for (unsigned Step = 0; Step != NumPipelineSteps; ++Step)
          EXPECT_EQ(Serial.step(static_cast<PipelineStep>(Step)).Invocations,
                    Driver.step(static_cast<PipelineStep>(Step)).Invocations)
              << Spec << " jobs=" << Jobs << ": "
              << pipelineStepName(static_cast<PipelineStep>(Step));
      }
    }
  }
}

TEST_F(RobustnessTest, DegradedStepCountsIncludeFallbackRungs) {
  Case C = prepareCase();
  PreOptions Direct = mcSsaPreOptions(C);
  Direct.Strategy = PreStrategy::SsaPreSpec;
  PipelineMetrics Want;
  {
    MetricsScope Scope(&Want);
    compileWithPre(C.Prepared, Direct);
  }
  ASSERT_GT(invocations(Want, PipelineStep::SafePlacement), 0u);
  ASSERT_GT(invocations(Want, PipelineStep::CodeMotion), 0u);

  // min-cut:1 lands the MC-SSAPRE request on SSAPREsp, whose steps are
  // the only safe placements and code motions of the whole compile.
  PreOptions PO = mcSsaPreOptions(C);
  for (unsigned Jobs : {1u, 4u}) {
    ASSERT_TRUE(configureFaultInjection("min-cut:1").isOk());
    PipelineMetrics Got = driverMetrics(C, PO, Jobs);
    EXPECT_EQ(Got.robustness().FunctionsDegraded, 1u);
    for (PipelineStep S :
         {PipelineStep::SafePlacement, PipelineStep::CodeMotion})
      EXPECT_EQ(invocations(Got, S), invocations(Want, S))
          << "jobs=" << Jobs << ": " << pipelineStepName(S);
  }
}

TEST_F(RobustnessTest, ReplayedCacheHitsCountAsCompiled) {
  Case C = prepareCase();
  PreOptions PO = mcSsaPreOptions(C);
  CompileCache SerialCache({});
  PO.Cache = &SerialCache;
  PipelineMetrics Serial = serialMetrics(C, PO, 2);
  EXPECT_EQ(SerialCache.counters().Hits, 1u);
  EXPECT_EQ(Serial.robustness().FunctionsCompiled, 2u);
  for (unsigned Jobs : {1u, 4u}) {
    CompileCache DriverCache({});
    PO.Cache = &DriverCache;
    PipelineMetrics Driver = driverMetrics(C, PO, Jobs, 2);
    EXPECT_EQ(DriverCache.counters().Hits, 1u) << "jobs=" << Jobs;
    EXPECT_EQ(Driver.robustness().FunctionsCompiled, 2u) << "jobs=" << Jobs;
  }
}

} // namespace
