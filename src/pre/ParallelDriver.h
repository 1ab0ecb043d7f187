//===- pre/ParallelDriver.h - Function-level parallel compiles -*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one level of parallelism in a compile: a ParallelPreDriver owns a
/// work-stealing pool (support/ThreadPool.h) and fans whole functions out
/// over it. One function compiles on one thread, start to finish, through
/// the pipeline of pre/PreDriver.h, into its own part (output, statistics
/// and metrics shards); the parts are committed on the calling thread in
/// function order. So `--jobs=N` produces output bit-identical to
/// `--jobs=1`, which tests/parallel_driver_test.cpp asserts over the
/// generated corpus (docs/PARALLELISM.md).
///
/// fanOut is the one place that drives the pool. Its two users are
/// compileCorpus below and processServeRequest (pre/CompileService.h),
/// which fans out a module's functions for specpre-opt and the daemon.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_PARALLELDRIVER_H
#define SPECPRE_PRE_PARALLELDRIVER_H

#include "pre/PreDriver.h"
#include "support/PassTimer.h"

#include <functional>
#include <memory>
#include <vector>

namespace specpre {

class ThreadPool;

struct ParallelConfig {
  /// Total worker count (the calling thread included); 1 = serial,
  /// 0 = one worker per hardware thread.
  unsigned Jobs = 1;
};

/// One function's compilation request for compileCorpus.
struct CompileTask {
  const Function *Prepared = nullptr; ///< prepared, non-SSA (see prepareFunction)
  PreOptions Opts; ///< Opts.Stats is ignored; stats are sharded internally.
};

class ParallelPreDriver {
public:
  explicit ParallelPreDriver(const ParallelConfig &Config);
  ~ParallelPreDriver();

  unsigned jobs() const;

  /// Runs Body(I) for every I in [0, N), on the pool when there is one,
  /// and Commit(I) on the calling thread in index order; a Commit that
  /// returns false stops the walk. Each Body(I) must write only its own
  /// part. Without a pool, each Body(I) is followed directly by Commit(I),
  /// so nothing past a stop runs. With one, all bodies run first, and an
  /// exception from Body(I) is rethrown in place of Commit(I).
  void fanOut(size_t N, const std::function<void(size_t)> &Body,
              const std::function<bool(size_t)> &Commit);

  /// Compiles a whole corpus through compileWithFallback, one function
  /// per thread, so one failing function degrades (worst case to
  /// identity) without taking down the batch or perturbing any other
  /// task's output. Results are positionally aligned with \p Tasks.
  /// \p MergedStats, when set, receives every function's records merged
  /// in (function, expression) order, and \p Metrics every function's
  /// step timings and robustness counters: both bit-identical to a
  /// serial loop.
  std::vector<Function> compileCorpus(const std::vector<CompileTask> &Tasks,
                                      PreStats *MergedStats,
                                      PipelineMetrics *Metrics = nullptr);

private:
  ParallelConfig Config;
  std::unique_ptr<ThreadPool> Pool;
};

} // namespace specpre

#endif // SPECPRE_PRE_PARALLELDRIVER_H
