//===- bench/compile_time_parallel.cpp - Parallel pipeline speedup --------------===//
//
// Serial-vs-parallel compile time of the full CPU2006 stand-in corpus
// under MC-SSAPRE. The parallel driver fans whole functions out onto the
// work-stealing pool, one function per thread; this bench measures wall
// time at 1, 2, and 4 workers, checks that every configuration produces
// byte-identical IR (the determinism guarantee the differential tests
// assert), and reports where the time goes using the per-step pipeline
// metrics.
//
// Speedup is bounded by the machine: on a single-core container the
// parallel runs cannot beat serial (expect ~1.0x plus scheduling
// overhead); on a multi-core host the same binary shows the fan-out
// scaling. The hardware concurrency is printed so the numbers can be
// read in context.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "pre/ParallelDriver.h"
#include "pre/PreDriver.h"
#include "support/ThreadPool.h"
#include "workload/SpecSuite.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace specpre;
using namespace specpre::benchreport;

namespace {

struct PreparedBench {
  Function Prepared;
  Profile NodeProf;
};

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

int main() {
  printTitle("Parallel PRE pipeline: corpus compile time vs worker count");
  std::printf("hardware concurrency: %u thread(s)\n\n",
              ThreadPool::hardwareWorkers());

  // Build and train the corpus once; compilation is what is timed.
  std::vector<PreparedBench> Corpus;
  for (const BenchmarkSpec &Spec : fullCpu2006Suite()) {
    PreparedBench B;
    B.Prepared = Spec.buildProgram();
    prepareFunction(B.Prepared);
    Profile Prof;
    ExecOptions EO;
    EO.MaxSteps = 500'000'000;
    EO.CollectProfile = &Prof;
    ExecResult Train = interpret(B.Prepared, Spec.TrainArgs, EO);
    if (Train.Trapped || Train.TimedOut)
      continue;
    B.NodeProf = Prof.withoutEdgeFreqs();
    Corpus.push_back(std::move(B));
  }
  std::printf("corpus: %zu programs (CPU2006 stand-ins)\n\n", Corpus.size());

  std::printf("%8s %12s %10s %12s %14s\n", "jobs", "wall", "speedup",
              "min-cut ms", "phi+rename ms");

  double SerialMs = 0;
  std::vector<std::string> ReferenceIr;
  for (unsigned Jobs : {1u, 2u, 4u}) {
    ParallelConfig PC;
    PC.Jobs = Jobs;
    ParallelPreDriver Driver(PC);
    std::vector<CompileTask> Tasks;
    std::vector<PreOptions> Opts(Corpus.size());
    for (unsigned I = 0; I != Corpus.size(); ++I) {
      Opts[I].Strategy = PreStrategy::McSsaPre;
      Opts[I].Prof = &Corpus[I].NodeProf;
      Opts[I].Verify = false;
      Tasks.push_back({&Corpus[I].Prepared, Opts[I]});
    }

    PipelineMetrics Metrics;
    double T0 = nowMs();
    std::vector<Function> Results =
        Driver.compileCorpus(Tasks, nullptr, &Metrics);
    double Wall = nowMs() - T0;

    // Determinism check: every worker count yields the same IR.
    bool Identical = true;
    for (unsigned I = 0; I != Results.size(); ++I) {
      std::string Ir = printFunction(Results[I]);
      if (Jobs == 1)
        ReferenceIr.push_back(std::move(Ir));
      else if (Ir != ReferenceIr[I])
        Identical = false;
    }
    if (Jobs == 1)
      SerialMs = Wall;

    auto StepMs = [&](PipelineStep S) {
      return Metrics.step(S).Nanos / 1e6;
    };
    std::printf("%8u %10.1fms %9.2fx %12.1f %14.1f%s\n", Jobs, Wall,
                SerialMs / Wall, StepMs(PipelineStep::MinCut),
                StepMs(PipelineStep::PhiInsertion) +
                    StepMs(PipelineStep::Rename),
                Identical ? "" : "   IR MISMATCH");
    if (!Identical) {
      std::printf("FATAL: parallel output diverged from serial\n");
      return 1;
    }
  }

  printRule();
  std::printf(
      "All worker counts produced byte-identical IR. Per-step times are\n"
      "summed across workers, so they exceed wall time when jobs > 1.\n"
      "Speedup saturates at the machine's core count; on a 1-core host\n"
      "the parallel configurations only measure scheduling overhead.\n");
  return 0;
}
