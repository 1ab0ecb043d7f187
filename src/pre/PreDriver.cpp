//===- pre/PreDriver.cpp - PRE pipeline orchestration -------------------------===//

#include "pre/PreDriver.h"

#include "analysis/Cfg.h"
#include "analysis/CriticalEdges.h"
#include "analysis/DomTree.h"
#include "analysis/LoopRestructure.h"
#include "analysis/Loops.h"
#include "analysis/TreeDecomposition.h"
#include "ir/Verifier.h"
#include "pre/CachedCompile.h"
#include "pre/CodeMotion.h"
#include "pre/ExprKey.h"
#include "pre/Finalize.h"
#include "pre/Frg.h"
#include "pre/LexicalDataFlow.h"
#include "pre/Lcm.h"
#include "pre/Lospre.h"
#include "pre/McPre.h"
#include "pre/McSsaPre.h"
#include "pre/SsaPre.h"
#include "support/PassTimer.h"
#include "ssa/SsaConstruction.h"
#include "support/CrashContext.h"
#include "support/Diagnostics.h"

#include <cassert>
#include <exception>

using namespace specpre;

const char *specpre::strategyName(PreStrategy S) {
  switch (S) {
  case PreStrategy::None:
    return "none";
  case PreStrategy::SsaPre:
    return "SSAPRE";
  case PreStrategy::SsaPreSpec:
    return "SSAPREsp";
  case PreStrategy::McSsaPre:
    return "MC-SSAPRE";
  case PreStrategy::McPre:
    return "MC-PRE";
  case PreStrategy::Lcm:
    return "LCM";
  case PreStrategy::Lospre:
    return "LOSPRE";
  }
  SPECPRE_UNREACHABLE("bad strategy");
}

bool specpre::strategyNeedsProfile(PreStrategy S) {
  return S == PreStrategy::McSsaPre || S == PreStrategy::McPre ||
         S == PreStrategy::Lospre;
}

void specpre::prepareFunction(Function &F) {
  assert(!F.IsSSA && "prepareFunction expects pre-SSA input");
  removeUnreachableBlocks(F);
  restructureWhileLoops(F);
  splitCriticalEdges(F);
}

namespace {

/// Checks \p F once PRE under \p S has transformed it: the IR verifier,
/// then the Definition-1 oracle over every temp in \p Temps (the SSA
/// legs' {expression, temp} pairs; empty for MC-PRE and LCM), timed as
/// one PipelineStep::Verify invocation. A failure throws
/// StatusException(VerifyFailed), which the degradation ladder converts
/// into a retry on a cheaper strategy. The message names the strategy
/// and either the failing statement, whose `pre.tmp.<index>` temp names
/// the candidate, or the expression not available at a reload.
void verifyAfterPre(const Function &F, PreStrategy S,
                    const std::vector<std::pair<ExprKey, VarId>> &Temps) {
  PassTimer Timer(PipelineStep::Verify, F.numBlocks());
  std::string Error;
  if (!verifyFunction(F, Error))
    throw StatusException(ErrorCode::VerifyFailed,
                          std::string("IR verification failed after ") +
                              strategyName(S) + ": " + Error);
  if (!Temps.empty() && !checkReloadsFullyAvailable(F, Temps, Error))
    throw StatusException(ErrorCode::VerifyFailed,
                          "Definition-1 correctness violated by " +
                              std::string(strategyName(S)) + ": " + Error);
}

/// Leg D's whole-function gate: Krause's linear-time construction
/// assumes structured (reducible) control flow, so an irreducible CFG
/// is refused up front — one recoverable bailout for the function, not
/// one per expression — and the degradation ladder retries with
/// MC-SSAPRE, which accepts anything.
void gateLospreReducibility(const Cfg &C, const DomTree &DT) {
  if (isReducibleCfg(C, DT))
    return;
  if (PipelineMetrics *M = currentMetricsSink())
    ++M->lospre().Bailouts;
  throw StatusException(ErrorCode::ResourceLimit,
                        "LOSPRE requires a reducible CFG");
}

/// True if candidate \p E gets leg A's safe placement under \p S, the
/// one placement that reads the lexical data flow. Faulting computations
/// cannot be speculated (paper Section 2), so every leg gives them the
/// safe placement.
bool takesSafePlacement(PreStrategy S, const ExprKey &E) {
  return (S != PreStrategy::McSsaPre && S != PreStrategy::Lospre) ||
         E.canFault();
}

/// The strategy switch: runs the placement of Opts.Strategy on \p G, the
/// FRG of candidate \p EI, and returns the candidate's statistics record
/// with the FRG and EFG sizes filled in (commitExpression adds the rest).
/// The legs differ only here: MC-SSAPRE replaces SSAPRE's steps 3-8 by
/// a min cut (paper Figure 4), and leg D solves the same EFG's cut by
/// treewidth DP. \p LdfColumn is the candidate's column of \p LDF when
/// it takes the safe placement.
ExprStatsRecord placeExpression(Frg &G, unsigned EI, const PreOptions &Opts,
                                const LexicalDataFlow &LDF,
                                unsigned LdfColumn, const LoopInfo &LI) {
  const ExprKey &E = G.expr();
  ExprStatsRecord Rec;
  Rec.Expr = E.toString(G.function());
  CrashContext ExprFrame("expression", Rec.Expr);
  Rec.FunctionName = G.function().Name;
  Rec.ExprIndex = EI;
  Rec.FrgPhis = static_cast<unsigned>(G.phis().size());
  Rec.FrgReals = static_cast<unsigned>(G.reals().size());

  if (takesSafePlacement(Opts.Strategy, E)) {
    // Leg A's DownSafety placement, with loop speculation for leg B.
    computeSafePlacement(
        G, LDF, LdfColumn,
        /*LoopSpeculation=*/Opts.Strategy == PreStrategy::SsaPreSpec &&
            !E.canFault(),
        &LI);
    return Rec;
  }

  assert(Opts.Prof && "the speculative legs require a profile");
  EfgStats ES = Opts.Strategy == PreStrategy::Lospre
                    ? computeLosprePlacement(G, *Opts.Prof, Opts.Objective,
                                             Opts.LospreMaxWidth)
                    : computeSpeculativePlacement(G, *Opts.Prof,
                                                  Opts.Placement, Opts.Algo,
                                                  Opts.Objective);
  Rec.Speculated = true;
  Rec.EfgEmpty = ES.Empty;
  Rec.EfgNodes = ES.NumNodes;
  Rec.EfgEdges = ES.NumEdges;
  Rec.CutWeight = ES.CutWeight;
  Rec.SprWeight = ES.SprWeight;
  Rec.InsertedWeight = ES.InsertedWeight;
  Rec.InPlaceWeight = ES.InPlaceWeight;
  Rec.Saturated = ES.Saturated;
  Rec.LospreWidth = ES.TdWidth;
  Rec.LospreDpEntries = ES.DpEntries;
  return Rec;
}

/// The commit step of candidate \p EI, whose placement is on \p G:
/// finalize (and its statistics into \p Rec) and code motion. Returns
/// the temp the motion defined, or InvalidVar when the plan changed
/// nothing.
VarId commitExpression(Function &F, Frg &G, unsigned EI,
                       const PreOptions &Opts, ExprStatsRecord &Rec) {
  FinalizePlan Plan = finalizePlacement(G);
  for (const RealOcc &R : G.reals()) {
    Rec.NumReloads += R.Reload;
    Rec.NumSaves += R.Save;
    if (Opts.Prof && R.Reload) {
      uint64_t Freq = Opts.Prof->blockFreq(R.Block);
      Rec.ReloadedFreq += Freq;
      // An SPR occurrence: one that participated in the EFG (its
      // defining Φ survived graph reduction). Only those are covered
      // by the min-cut reconciliation identities.
      if (!R.RgExcluded && R.Def.isPhi() && G.phiOf(R.Def).InReducedGraph)
        Rec.SprReloadedFreq += Freq;
    }
  }
  for (const TempDef &D : Plan.TempDefs) {
    if (!D.Live)
      continue;
    if (D.K == TempDef::Kind::Phi)
      ++Rec.NumTempPhis;
    if (D.K == TempDef::Kind::Insert) {
      ++Rec.NumInsertions;
      if (Opts.Prof)
        Rec.InsertedFreq += Opts.Prof->blockFreq(D.Block);
    }
  }

  if (!Plan.hasAnyEffect())
    return InvalidVar;
  VarId Temp = F.makeFreshVar("pre.tmp." + std::to_string(EI));
  applyCodeMotion(F, G, Plan, Temp);
  return Temp;
}

/// The per-expression loop of the SSA strategies: per candidate, build
/// its FRG against the current function, place, commit; then, under
/// Opts.Verify, verify the function once. A motion rewrites only its own
/// expression's computations and defines a fresh temp, so it can neither
/// repair nor change what an earlier motion produced: the final function
/// fails a check exactly when some intermediate one would have. For the
/// same reason the per-function facts (FrgSites, the lexical data flow)
/// are computed once, up front.
void runSsaStrategies(Function &F, const PreOptions &Opts) {
  assert(F.IsSSA && "SSA strategies require SSA form");
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  LoopInfo LI(C, DT);
  if (Opts.Strategy == PreStrategy::Lospre)
    gateLospreReducibility(C, DT);

  FrgSites Sites(F, C, DT);
  const std::vector<ExprKey> &Exprs = Sites.candidates();
  // Each candidate's column of the lexical data flow depends on that
  // candidate alone, so it is solved only for those that read it.
  std::vector<ExprKey> SafeExprs;
  for (const ExprKey &E : Exprs)
    if (takesSafePlacement(Opts.Strategy, E))
      SafeExprs.push_back(E);
  LexicalDataFlow LDF;
  if (!SafeExprs.empty())
    LDF = solveLexicalDataFlow(F, C, SafeExprs);
  unsigned NextLdfColumn = 0;
  BudgetTracker *Budget = currentBudget();
  std::vector<std::pair<ExprKey, VarId>> Temps;
  for (unsigned EI = 0; EI != Exprs.size(); ++EI) {
    if (Budget)
      throwIfError(Budget->checkDeadline("SSA PRE candidate"));
    unsigned LdfColumn = NextLdfColumn;
    NextLdfColumn += takesSafePlacement(Opts.Strategy, Exprs[EI]);
    Frg G(F, Sites, EI);
    if (G.reals().empty())
      continue;
    ExprStatsRecord Rec = placeExpression(G, EI, Opts, LDF, LdfColumn, LI);
    CrashContext ExprFrame("expression", Rec.Expr);
    VarId Temp = commitExpression(F, G, EI, Opts, Rec);
    if (Temp != InvalidVar)
      Temps.emplace_back(Exprs[EI], Temp);
    if (Opts.Stats)
      Opts.Stats->addRecord(std::move(Rec));
  }
  if (Opts.Verify && !Temps.empty())
    verifyAfterPre(F, Opts.Strategy, Temps);
}

} // namespace

void specpre::runPre(Function &F, const PreOptions &Opts) {
  switch (Opts.Strategy) {
  case PreStrategy::None:
    return;
  case PreStrategy::SsaPre:
  case PreStrategy::SsaPreSpec:
  case PreStrategy::McSsaPre:
  case PreStrategy::Lospre:
    runSsaStrategies(F, Opts);
    return;
  case PreStrategy::McPre: {
    assert(Opts.Prof && "MC-PRE requires a profile");
    Profile EdgeProf = Opts.Prof->HasEdgeFreqs
                           ? *Opts.Prof
                           : Opts.Prof->withEstimatedEdgeFreqs(F);
    runMcPre(F, EdgeProf, Opts.Stats, Opts.Placement);
    if (Opts.Verify)
      verifyAfterPre(F, Opts.Strategy, {});
    return;
  }
  case PreStrategy::Lcm:
    runLcm(F, Opts.Stats);
    if (Opts.Verify)
      verifyAfterPre(F, Opts.Strategy, {});
    return;
  }
  SPECPRE_UNREACHABLE("bad strategy");
}

Function specpre::compileWithPre(const Function &Prepared,
                                 const PreOptions &Opts) {
  assert(!Prepared.IsSSA && "compileWithPre expects prepared non-SSA input");
  Function F = Prepared;
  if (Opts.Strategy == PreStrategy::SsaPre ||
      Opts.Strategy == PreStrategy::SsaPreSpec ||
      Opts.Strategy == PreStrategy::McSsaPre ||
      Opts.Strategy == PreStrategy::Lospre)
    constructSsa(F);
  runPre(F, Opts);
  return F;
}

std::vector<PreStrategy> specpre::degradationLadder(PreStrategy Requested) {
  switch (Requested) {
  case PreStrategy::Lospre:
    // Leg D's bailouts (irreducible CFG, width bound) land on the exact
    // max-flow leg first: same optimum, just not linear time.
    return {PreStrategy::Lospre, PreStrategy::McSsaPre,
            PreStrategy::SsaPreSpec, PreStrategy::SsaPre, PreStrategy::None};
  case PreStrategy::McSsaPre:
    return {PreStrategy::McSsaPre, PreStrategy::SsaPreSpec,
            PreStrategy::SsaPre, PreStrategy::None};
  case PreStrategy::SsaPreSpec:
    return {PreStrategy::SsaPreSpec, PreStrategy::SsaPre, PreStrategy::None};
  case PreStrategy::SsaPre:
    return {PreStrategy::SsaPre, PreStrategy::None};
  case PreStrategy::McPre:
    return {PreStrategy::McPre, PreStrategy::None};
  case PreStrategy::Lcm:
    return {PreStrategy::Lcm, PreStrategy::None};
  case PreStrategy::None:
    return {PreStrategy::None};
  }
  SPECPRE_UNREACHABLE("bad strategy");
}

namespace {

/// The degradation-ladder walk itself, cache-oblivious; the public
/// compileWithFallback wraps it in the cache protocol.
Function walkLadder(const Function &Prepared, const PreOptions &Opts,
                    CompileOutcomeRecord *OutcomeOut) {
  assert(!Prepared.IsSSA &&
         "compileWithFallback expects prepared non-SSA input");
  CrashContext FnFrame("function", Prepared.Name);

  CompileOutcomeRecord Outcome;
  Outcome.FunctionName = Prepared.Name;
  Outcome.Requested = strategyName(Opts.Strategy);
  uint64_t WorkerFailures = 0;
  auto Finish = [&](Function F) {
    if (Opts.Stats)
      Opts.Stats->addOutcome(Outcome);
    if (OutcomeOut)
      *OutcomeOut = Outcome;
    if (PipelineMetrics *M = currentMetricsSink()) {
      RobustnessCounters &R = M->robustness();
      ++R.FunctionsCompiled;
      if (Outcome.degraded())
        ++R.FunctionsDegraded;
      R.LadderRetries += Outcome.Retries;
      R.WorkerFailures += WorkerFailures;
    }
    return F;
  };

  const bool Budgeted = !Opts.Budget.unlimited();
  BudgetTracker Tracker(Opts.Budget);

  for (PreStrategy Rung : degradationLadder(Opts.Strategy)) {
    CrashContext RungFrame("strategy", strategyName(Rung));
    PreOptions RungOpts = Opts;
    RungOpts.Strategy = Rung;
    // Isolate the rung's statistics so an abandoned rung leaves no
    // partial records behind.
    PreStats RungStats;
    RungOpts.Stats = Opts.Stats ? &RungStats : nullptr;

    Status Failure = Status::ok();
    try {
      // Each rung gets the full budget: a cheap fallback must not be
      // starved by the expensive attempt that preceded it.
      Tracker.reset();
      BudgetScope Scope(Budgeted ? &Tracker : nullptr);
      Function F = compileWithPre(Prepared, RungOpts);
      Outcome.Used = strategyName(Rung);
      if (Opts.Stats)
        for (const ExprStatsRecord &R : RungStats.records())
          Opts.Stats->addRecord(R);
      return Finish(std::move(F));
    } catch (const StatusException &E) {
      Failure = E.status();
    } catch (const std::exception &E) {
      // A non-Status exception escaping a worker (bad_alloc, logic_error)
      // is contained the same way; only signals/aborts remain fatal.
      Failure = Status::error(ErrorCode::WorkerFailed, E.what());
    }
    if (Failure.code() == ErrorCode::WorkerFailed)
      ++WorkerFailures;
    if (Outcome.Cause.empty()) {
      Outcome.Cause = errorCodeName(Failure.code());
      Outcome.Message = Failure.message();
    }
    ++Outcome.Retries;
  }

  // Unreachable in practice: the None rung runs no pass code and has no
  // fault sites, so it cannot fail. Return the input unchanged anyway.
  Outcome.Used = strategyName(PreStrategy::None);
  return Finish(Prepared);
}

} // namespace

Function specpre::compileWithFallback(const Function &Prepared,
                                      const PreOptions &Opts,
                                      CompileOutcomeRecord *OutcomeOut,
                                      std::string *TextOut) {
  return compileThroughCache(Prepared, Opts, OutcomeOut, walkLadder, TextOut);
}
