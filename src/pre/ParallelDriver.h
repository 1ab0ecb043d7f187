//===- pre/ParallelDriver.h - Parallel PRE pipeline ------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel compilation pipeline: a ParallelPreDriver owns a
/// work-stealing pool (support/ThreadPool.h) and hands it to the one
/// pipeline in pre/PreDriver.h. Two levels of fan-out:
///
///  * corpus level — independent functions compile concurrently, each
///    accumulating into a private PreStats shard; shards are stamped
///    with the function index and merged in (function, expression)
///    order, so the merged records equal the serial sequence exactly;
///
///  * expression level — the per-expression loop of the SSA strategies
///    takes the pool: capturePlacements computes every candidate's
///    placement (FRG build, data flow, reduction, min cut / DownSafety)
///    concurrently against the *pre-motion* function, and the loop then
///    commits serially in candidate order, rebuilding each FRG against
///    the current function (statement indices shift as earlier commits
///    insert saves and reloads) and transferring the captured
///    WillBeAvail/Insert decisions onto it. This is sound because
///    distinct candidate expressions have independent FRGs: code motion
///    for one key only introduces fresh temporaries, copies and phis of
///    those temporaries, and never adds, removes or re-kills occurrences
///    of another key (docs/PARALLELISM.md). Should a rebuilt FRG ever
///    differ structurally, the loop places it again itself, so the output
///    is bit-identical to the pool-less pipeline in all cases.
///
/// Every rung of the degradation ladder runs with the pool. The
/// determinism guarantee — `--jobs=N` produces bit-identical IR and
/// PreStats to `--jobs=1` — is asserted over the generated corpus by
/// tests/parallel_driver_test.cpp.
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

  /// compileWithPre on this driver's pool, under Opts.Budget. Stats go
  /// to Opts.Stats as in the serial driver. \p Metrics, when set,
  /// receives the pipeline step timings of this compile.
  Function compileFunction(const Function &Prepared, const PreOptions &Opts,
                           PipelineMetrics *Metrics = nullptr);

  /// compileWithFallback on this driver's pool, recording into
  /// \p Metrics (step timings and robustness counters) when set: the same
  /// ladder walk, cache protocol and outcome as the serial entry, and
  /// bit-identical results.
  Function
  compileFunctionWithFallback(const Function &Prepared, const PreOptions &Opts,
                              PipelineMetrics *Metrics = nullptr,
                              CompileOutcomeRecord *OutcomeOut = nullptr);

  /// Compiles a whole corpus, fanning functions (and expressions within
  /// them) across the pool. Results are positionally aligned with
  /// \p Tasks. \p MergedStats, when set, receives every function's
  /// records merged in (function, expression) order — bit-identical to
  /// a serial loop over compileWithPre.
  ///
  /// Each task compiles through compileFunctionWithFallback, so one
  /// failing function degrades (worst case to identity) without taking
  /// down the batch or perturbing any other task's output.
  std::vector<Function> compileCorpus(const std::vector<CompileTask> &Tasks,
                                      PreStats *MergedStats,
                                      PipelineMetrics *Metrics = nullptr);

private:
  ParallelConfig Config;
  std::unique_ptr<ThreadPool> Pool;
};

/// One candidate's placement as computed against the pre-motion function:
/// the decisions, indexed like the FRG they were computed on, plus the
/// structural fingerprint the commit checks before reusing them.
struct ExprPlacement {
  bool HasReals = false;
  std::vector<char> PhiWillBeAvail;
  std::vector<char> PhiInReducedGraph; ///< needed for SprReloadedFreq stats
  std::vector<char> OperandInsert;     ///< flattened over phis' operands
  std::vector<BlockId> PhiBlocks;
  std::vector<unsigned> OperandCounts;
  unsigned NumReals = 0;
  /// The placement's statistics record (FRG/EFG sizes; the commit adds
  /// the finalize counts).
  ExprStatsRecord Rec;
};

/// Places candidate EI's FRG and returns its statistics record.
using PlaceExprFn = std::function<ExprStatsRecord(Frg &, unsigned EI)>;

/// The parallel pre-pass of the per-expression loop: builds every
/// candidate's FRG against \p F and runs \p Place on it, concurrently on
/// \p Pool, capturing the decisions. Everything read is const and shared;
/// the calling thread's budget and metrics sink are re-installed on the
/// pool threads (metrics into per-candidate shards merged in candidate
/// order). A throwing placement is rethrown here, smallest index first.
std::vector<ExprPlacement> capturePlacements(ThreadPool &Pool,
                                             const Function &F, const Cfg &C,
                                             const DomTree &DT,
                                             const std::vector<ExprKey> &Exprs,
                                             const PlaceExprFn &Place);

/// Transfers \p P's decisions onto \p G, an FRG rebuilt for the same
/// candidate. Returns false, leaving \p G untouched, if \p G is not
/// structurally identical to the FRG \p P was computed on.
bool transferPlacement(Frg &G, const ExprPlacement &P);

} // namespace specpre

#endif // SPECPRE_PRE_PARALLELDRIVER_H
