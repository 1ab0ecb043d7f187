//===- pre/ParallelDriver.cpp - Parallel PRE pipeline -------------------------===//

#include "pre/ParallelDriver.h"

#include "support/Budget.h"
#include "support/ThreadPool.h"

using namespace specpre;

namespace {

/// Captures \p G's placement decisions and structure into \p P.
void capturePlacement(const Frg &G, ExprPlacement &P) {
  P.NumReals = static_cast<unsigned>(G.reals().size());
  P.PhiWillBeAvail.reserve(G.phis().size());
  for (const PhiOcc &Phi : G.phis()) {
    P.PhiBlocks.push_back(Phi.Block);
    P.OperandCounts.push_back(static_cast<unsigned>(Phi.Operands.size()));
    P.PhiWillBeAvail.push_back(Phi.WillBeAvail);
    P.PhiInReducedGraph.push_back(Phi.InReducedGraph);
    for (const PhiOperand &Op : Phi.Operands)
      P.OperandInsert.push_back(Op.Insert);
  }
}

} // namespace

std::vector<ExprPlacement>
specpre::capturePlacements(ThreadPool &Pool, const Function &F, const Cfg &C,
                           const DomTree &DT,
                           const std::vector<ExprKey> &Exprs,
                           const PlaceExprFn &Place) {
  std::vector<ExprPlacement> Placed(Exprs.size());
  BudgetTracker *Budget = currentBudget();
  PipelineMetrics *Metrics = currentMetricsSink();
  std::vector<PipelineMetrics> Shards(Metrics ? Exprs.size() : 0);
  Pool.parallelFor(Exprs.size(), [&](size_t EI) {
    BudgetScope BScope(Budget);
    MetricsScope MScope(Metrics ? &Shards[EI] : nullptr);
    Frg G(F, C, DT, Exprs[EI]);
    if (G.reals().empty())
      return;
    ExprPlacement &P = Placed[EI];
    P.HasReals = true;
    P.Rec = Place(G, static_cast<unsigned>(EI));
    capturePlacement(G, P);
  });
  for (const PipelineMetrics &Shard : Shards)
    Metrics->merge(Shard);
  return Placed;
}

bool specpre::transferPlacement(Frg &G, const ExprPlacement &P) {
  if (G.reals().size() != P.NumReals ||
      G.phis().size() != P.PhiBlocks.size())
    return false;
  for (unsigned I = 0; I != G.phis().size(); ++I)
    if (G.phis()[I].Block != P.PhiBlocks[I] ||
        G.phis()[I].Operands.size() != P.OperandCounts[I])
      return false;
  unsigned Flat = 0;
  for (unsigned I = 0; I != G.phis().size(); ++I) {
    PhiOcc &Phi = G.phis()[I];
    Phi.WillBeAvail = P.PhiWillBeAvail[I];
    Phi.InReducedGraph = P.PhiInReducedGraph[I];
    for (PhiOperand &Op : Phi.Operands)
      Op.Insert = P.OperandInsert[Flat++];
  }
  return true;
}

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

Function ParallelPreDriver::compileFunction(const Function &Prepared,
                                            const PreOptions &Opts,
                                            PipelineMetrics *Metrics) {
  BudgetTracker Tracker(Opts.Budget);
  BudgetScope Scope(Opts.Budget.unlimited() ? nullptr : &Tracker);
  MetricsScope MScope(Metrics);
  return compileWithPre(Prepared, Opts, Pool.get());
}

Function ParallelPreDriver::compileFunctionWithFallback(
    const Function &Prepared, const PreOptions &Opts, PipelineMetrics *Metrics,
    CompileOutcomeRecord *OutcomeOut) {
  MetricsScope Scope(Metrics);
  return compileWithFallback(Prepared, Opts, OutcomeOut, Pool.get());
}

std::vector<Function>
ParallelPreDriver::compileCorpus(const std::vector<CompileTask> &Tasks,
                                 PreStats *MergedStats,
                                 PipelineMetrics *Metrics) {
  std::vector<Function> Results(Tasks.size());
  std::vector<PreStats> StatShards(Tasks.size());
  std::vector<PipelineMetrics> MetricShards(Tasks.size());

  auto CompileOne = [&](size_t I) {
    PreOptions PO = Tasks[I].Opts;
    PO.Stats = MergedStats ? &StatShards[I] : nullptr;
    Results[I] = compileFunctionWithFallback(
        *Tasks[I].Prepared, PO, Metrics ? &MetricShards[I] : nullptr);
    if (PO.Stats)
      PO.Stats->stampFunctionIndex(static_cast<unsigned>(I));
  };

  if (Pool)
    Pool->parallelFor(Tasks.size(), CompileOne);
  else
    for (size_t I = 0; I != Tasks.size(); ++I)
      CompileOne(I);

  // Deterministic reduction: shards merge in function order, and merge()
  // itself orders records by (function, expression) key.
  for (size_t I = 0; I != Tasks.size(); ++I) {
    if (MergedStats)
      MergedStats->merge(StatShards[I]);
    if (Metrics)
      Metrics->merge(MetricShards[I]);
  }
  return Results;
}
