//===- tests/parallel_driver_test.cpp - Parallel pipeline determinism ----------===//
//
// The determinism differential battery for the parallel PRE pipeline.
// There is one pipeline, and the pool only decides which thread compiles
// which function: each function compiles on one thread and the driver
// commits the results in function order. The whole generated corpus runs
// through the pool-less pipeline (compileWithPre) and through
// ParallelPreDriver::compileCorpus at --jobs=4, and the outputs must
// match bit-identically — printed IR, interpreter dynamic counts, the
// merged PreStats record sequence and every step's invocation count —
// for all six strategies. Plus unit tests of the work-stealing
// ThreadPool itself and of the driver's ordered fan-out.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "pre/ParallelDriver.h"
#include "pre/PreDriver.h"
#include "profile/Profile.h"
#include "support/ThreadPool.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

using namespace specpre;

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  for (size_t N : {0u, 1u, 3u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> Hits(N);
    Pool.parallelFor(N, [&](size_t I) { ++Hits[I]; });
    for (size_t I = 0; I != N; ++I)
      ASSERT_EQ(Hits[I].load(), 1) << "index " << I << " of " << N;
  }
}

TEST(ThreadPool, DeterministicReductionByIndexSlot) {
  // The determinism pattern every user of the pool follows: write into
  // per-index slots, reduce in index order. Scheduling may vary; the
  // reduced result may not.
  ThreadPool Pool(4);
  std::vector<uint64_t> Reference;
  for (int Round = 0; Round != 10; ++Round) {
    std::vector<uint64_t> Slots(257);
    Pool.parallelFor(Slots.size(),
                     [&](size_t I) { Slots[I] = I * I + 13 * I + 7; });
    if (Reference.empty())
      Reference = Slots;
    ASSERT_EQ(Slots, Reference);
  }
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool Pool(4);
  std::atomic<int> Total{0};
  Pool.parallelFor(8, [&](size_t) {
    Pool.parallelFor(16, [&](size_t) { ++Total; });
  });
  EXPECT_EQ(Total.load(), 8 * 16);
}

TEST(ThreadPool, MoreWorkersThanItems) {
  ThreadPool Pool(16);
  std::atomic<int> Total{0};
  Pool.parallelFor(3, [&](size_t I) { Total += static_cast<int>(I); });
  EXPECT_EQ(Total.load(), 3);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.workers(), 1u);
  std::vector<size_t> Order;
  // Inline execution is strictly in-order — no pool thread involved.
  Pool.parallelFor(10, [&](size_t I) { Order.push_back(I); });
  std::vector<size_t> Expected(10);
  std::iota(Expected.begin(), Expected.end(), 0);
  EXPECT_EQ(Order, Expected);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool Pool(3);
  for (int Round = 0; Round != 50; ++Round) {
    std::atomic<uint64_t> Sum{0};
    Pool.parallelFor(40, [&](size_t I) { Sum += I; });
    ASSERT_EQ(Sum.load(), 40u * 39u / 2);
  }
}

//===----------------------------------------------------------------------===//
// Determinism differential: serial reference vs --jobs=4
//===----------------------------------------------------------------------===//

namespace {

struct CorpusProgram {
  Function Prepared;
  Profile Prof;     ///< full profile (edge freqs; for MC-PRE)
  Profile NodeOnly; ///< node frequencies (for the SSA strategies)
  std::vector<int64_t> TrainArgs;
  std::vector<int64_t> RefArgs;
};

std::vector<CorpusProgram> buildCorpus() {
  std::vector<CorpusProgram> Corpus;
  for (uint64_t Seed : {3u, 11u, 17u, 23u, 41u, 59u, 71u, 83u, 97u, 113u}) {
    GeneratorConfig Cfg;
    Cfg.MaxDepth = 3 + Seed % 2;
    Cfg.ExprPoolSize = 8 + Seed % 5;
    CorpusProgram P;
    P.Prepared = generateProgram(Seed, Cfg, "corpus" + std::to_string(Seed));
    prepareFunction(P.Prepared);
    for (unsigned I = 0; I != P.Prepared.Params.size(); ++I) {
      P.TrainArgs.push_back(static_cast<int64_t>(Seed * 31 + I * 7));
      P.RefArgs.push_back(static_cast<int64_t>(Seed * 17 + I * 13 + 5));
    }
    ExecOptions EO;
    EO.CollectProfile = &P.Prof;
    ExecResult Train = interpret(P.Prepared, P.TrainArgs, EO);
    EXPECT_FALSE(Train.Trapped || Train.TimedOut);
    P.NodeOnly = P.Prof.withoutEdgeFreqs();
    Corpus.push_back(std::move(P));
  }
  return Corpus;
}

PreOptions optionsFor(const CorpusProgram &P, PreStrategy Strategy) {
  PreOptions PO;
  PO.Strategy = Strategy;
  PO.Prof = Strategy == PreStrategy::McPre ? &P.Prof : &P.NodeOnly;
  PO.Verify = true;
  return PO;
}

class ParallelDifferential : public ::testing::TestWithParam<PreStrategy> {};

} // namespace

TEST_P(ParallelDifferential, BitIdenticalToSerialOnCorpus) {
  PreStrategy Strategy = GetParam();
  std::vector<CorpusProgram> Corpus = buildCorpus();

  // Serial reference: the pool-less pipeline, function by function,
  // shards stamped and merged like any corpus driver would.
  std::vector<std::string> SerialIr;
  std::vector<Function> SerialFns;
  PreStats SerialStats;
  for (unsigned I = 0; I != Corpus.size(); ++I) {
    PreOptions PO = optionsFor(Corpus[I], Strategy);
    PreStats Shard;
    PO.Stats = &Shard;
    Function Opt = compileWithPre(Corpus[I].Prepared, PO);
    SerialIr.push_back(printFunction(Opt));
    SerialFns.push_back(std::move(Opt));
    Shard.stampFunctionIndex(I);
    SerialStats.merge(Shard);
  }

  // Parallel: 4 workers, functions fanned out.
  ParallelConfig PC;
  PC.Jobs = 4;
  ParallelPreDriver Driver(PC);
  std::vector<CompileTask> Tasks;
  for (const CorpusProgram &P : Corpus)
    Tasks.push_back({&P.Prepared, optionsFor(P, Strategy)});
  PreStats ParallelStats;
  std::vector<Function> ParallelFns =
      Driver.compileCorpus(Tasks, &ParallelStats);

  // 1. Identical printed IR, program by program.
  ASSERT_EQ(ParallelFns.size(), Corpus.size());
  for (unsigned I = 0; I != Corpus.size(); ++I)
    EXPECT_EQ(printFunction(ParallelFns[I]), SerialIr[I])
        << "IR diverged on corpus program " << I << " under "
        << strategyName(Strategy);

  // 2. Identical interpreter behavior and dynamic counts on an input the
  // profile never saw.
  for (unsigned I = 0; I != Corpus.size(); ++I) {
    ExecResult Serial = interpret(SerialFns[I], Corpus[I].RefArgs);
    ExecResult Parallel = interpret(ParallelFns[I], Corpus[I].RefArgs);
    EXPECT_TRUE(Serial.sameObservableBehavior(Parallel));
    EXPECT_EQ(Serial.DynamicComputations, Parallel.DynamicComputations)
        << "dynamic count diverged on corpus program " << I;
    EXPECT_EQ(Serial.Cycles, Parallel.Cycles);
  }

  // 3. Identical merged statistics records, field for field.
  ASSERT_EQ(ParallelStats.records().size(), SerialStats.records().size());
  for (unsigned I = 0; I != SerialStats.records().size(); ++I)
    EXPECT_TRUE(ParallelStats.records()[I] == SerialStats.records()[I])
        << "stats record " << I << " diverged ("
        << SerialStats.records()[I].FunctionName << " / "
        << SerialStats.records()[I].Expr << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ParallelDifferential,
    ::testing::Values(PreStrategy::SsaPre, PreStrategy::SsaPreSpec,
                      PreStrategy::McSsaPre, PreStrategy::McPre,
                      PreStrategy::Lcm, PreStrategy::Lospre),
    [](const ::testing::TestParamInfo<PreStrategy> &Info) {
      switch (Info.param) {
      case PreStrategy::SsaPre:
        return "SsaPre";
      case PreStrategy::SsaPreSpec:
        return "SsaPreSpec";
      case PreStrategy::McSsaPre:
        return "McSsaPre";
      case PreStrategy::McPre:
        return "McPre";
      case PreStrategy::Lospre:
        return "Lospre";
      default:
        return "Lcm";
      }
    });

// Determinism of repeated parallel runs against each other (scheduling
// noise must never leak into the output), at several worker counts.
TEST(ParallelDriver, StableAcrossRunsAndWorkerCounts) {
  std::vector<CorpusProgram> Corpus = buildCorpus();
  std::vector<CompileTask> Tasks;
  for (unsigned I = 0; I != 4; ++I)
    Tasks.push_back(
        {&Corpus[I].Prepared, optionsFor(Corpus[I], PreStrategy::McSsaPre)});

  std::vector<std::string> Reference;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    ParallelConfig PC;
    PC.Jobs = Jobs;
    ParallelPreDriver Driver(PC);
    for (int Round = 0; Round != 3; ++Round) {
      PreStats Stats;
      std::vector<std::string> Ir;
      for (const Function &F : Driver.compileCorpus(Tasks, &Stats))
        Ir.push_back(printFunction(F));
      if (Reference.empty())
        Reference = Ir;
      ASSERT_EQ(Ir, Reference) << "jobs=" << Jobs << " round " << Round;
    }
  }
}

// Every function compiles on one thread, so the metrics sink sees each
// step exactly as often as in a serial compile: invocation counts are
// exact (they are not wall-clock-dependent) at any worker count.
TEST(ParallelDriver, MetricsInvocationCountsMatchSerial) {
  std::vector<CorpusProgram> Corpus = buildCorpus();

  auto CountsFor = [&](unsigned Jobs) {
    ParallelConfig PC;
    PC.Jobs = Jobs;
    ParallelPreDriver Driver(PC);
    std::vector<CompileTask> Tasks;
    for (const CorpusProgram &P : Corpus)
      Tasks.push_back({&P.Prepared, optionsFor(P, PreStrategy::McSsaPre)});
    PipelineMetrics M;
    Driver.compileCorpus(Tasks, nullptr, &M);
    std::vector<uint64_t> Counts;
    for (unsigned S = 0; S != NumPipelineSteps; ++S)
      Counts.push_back(M.step(static_cast<PipelineStep>(S)).Invocations);
    return Counts;
  };

  std::vector<uint64_t> Serial = CountsFor(1);
  std::vector<uint64_t> Parallel = CountsFor(4);
  ASSERT_GT(Serial[static_cast<unsigned>(PipelineStep::PhiInsertion)], 0u);
  for (unsigned S = 0; S != NumPipelineSteps; ++S)
    EXPECT_EQ(Serial[S], Parallel[S])
        << pipelineStepName(static_cast<PipelineStep>(S));
}

//===----------------------------------------------------------------------===//
// The ordered fan-out
//===----------------------------------------------------------------------===//

// Commits run on the calling thread in index order, whatever order the
// bodies finish in, and a commit that returns false stops the walk.
TEST(ParallelDriver, FanOutCommitsInOrderAndStops) {
  for (unsigned Jobs : {1u, 4u}) {
    ParallelConfig PC;
    PC.Jobs = Jobs;
    ParallelPreDriver Driver(PC);
    const std::thread::id Caller = std::this_thread::get_id();
    std::vector<size_t> Parts(64), Committed;
    Driver.fanOut(
        Parts.size(), [&](size_t I) { Parts[I] = I * I; },
        [&](size_t I) {
          EXPECT_EQ(std::this_thread::get_id(), Caller);
          EXPECT_EQ(Parts[I], I * I);
          Committed.push_back(I);
          return I != 40;
        });
    std::vector<size_t> Expected(41);
    std::iota(Expected.begin(), Expected.end(), 0);
    EXPECT_EQ(Committed, Expected) << "jobs=" << Jobs;
  }
}

// A throwing body surfaces at its own place in the commit order: every
// commit before it has run, none after it.
TEST(ParallelDriver, FanOutRethrowsInCommitOrder) {
  for (unsigned Jobs : {1u, 4u}) {
    ParallelConfig PC;
    PC.Jobs = Jobs;
    ParallelPreDriver Driver(PC);
    std::vector<size_t> Committed;
    std::string Thrown;
    try {
      Driver.fanOut(
          32,
          [](size_t I) {
            if (I == 9 || I == 20)
              throw std::runtime_error("body " + std::to_string(I));
          },
          [&](size_t I) {
            Committed.push_back(I);
            return true;
          });
    } catch (const std::runtime_error &E) {
      Thrown = E.what();
    }
    EXPECT_EQ(Thrown, "body 9") << "jobs=" << Jobs;
    std::vector<size_t> Expected(9);
    std::iota(Expected.begin(), Expected.end(), 0);
    EXPECT_EQ(Committed, Expected) << "jobs=" << Jobs;
  }
}
