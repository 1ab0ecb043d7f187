//===- pre/ParallelDriver.cpp - Function-level parallel compiles -------------===//

#include "pre/ParallelDriver.h"

#include "support/ThreadPool.h"

#include <exception>

using namespace specpre;

ParallelPreDriver::ParallelPreDriver(const ParallelConfig &Config)
    : Config(Config) {
  unsigned Jobs =
      Config.Jobs ? Config.Jobs : ThreadPool::hardwareWorkers();
  this->Config.Jobs = Jobs;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs);
}

ParallelPreDriver::~ParallelPreDriver() = default;

unsigned ParallelPreDriver::jobs() const { return Config.Jobs; }

void ParallelPreDriver::fanOut(size_t N,
                               const std::function<void(size_t)> &Body,
                               const std::function<bool(size_t)> &Commit) {
  if (!Pool) {
    for (size_t I = 0; I != N; ++I) {
      Body(I);
      if (!Commit(I))
        return;
    }
    return;
  }
  // Each body's exception waits for its turn in the commit order, so the
  // commits before it run exactly as in the serial walk.
  std::vector<std::exception_ptr> Errors(N);
  Pool->parallelFor(N, [&](size_t I) {
    try {
      Body(I);
    } catch (...) {
      Errors[I] = std::current_exception();
    }
  });
  for (size_t I = 0; I != N; ++I) {
    if (Errors[I])
      std::rethrow_exception(Errors[I]);
    if (!Commit(I))
      return;
  }
}

std::vector<Function>
ParallelPreDriver::compileCorpus(const std::vector<CompileTask> &Tasks,
                                 PreStats *MergedStats,
                                 PipelineMetrics *Metrics) {
  std::vector<Function> Results(Tasks.size());
  std::vector<PreStats> StatShards(Tasks.size());
  std::vector<PipelineMetrics> MetricShards(Tasks.size());
  fanOut(
      Tasks.size(),
      [&](size_t I) {
        PreOptions PO = Tasks[I].Opts;
        PO.Stats = MergedStats ? &StatShards[I] : nullptr;
        MetricsScope Scope(Metrics ? &MetricShards[I] : nullptr);
        Results[I] = compileWithFallback(*Tasks[I].Prepared, PO);
        StatShards[I].stampFunctionIndex(static_cast<unsigned>(I));
      },
      // merge() orders records by (function, expression) key.
      [&](size_t I) {
        if (MergedStats)
          MergedStats->merge(StatShards[I]);
        if (Metrics)
          Metrics->merge(MetricShards[I]);
        return true;
      });
  return Results;
}
