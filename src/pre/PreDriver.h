//===- pre/PreDriver.h - PRE pipeline orchestration ------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation pipeline tying everything together, mirroring the
/// paper's experimental setup (Section 5):
///
///   parse -> while-loop restructuring (Figure 1; "the compiler always
///   restructures while loops") -> critical-edge splitting -> profile
///   collection (training run) -> PRE under one of four strategies:
///
///     A. SsaPre     safe SSAPRE, no speculation, no profile
///     B. SsaPreSpec SSAPRE + conservative loop speculation (SSAPREsp)
///     C. McSsaPre   optimal speculative PRE via min-cut on the FRG
///     D. Lospre     the same optimum in linear time on reducible,
///                   bounded-treewidth CFGs (Krause), with a
///                   ResourceLimit bailout to MC-SSAPRE otherwise
///     -- McPre      the CFG-based baseline (Section 4 comparison)
///
/// The SSA strategies run on SSA form; MC-PRE runs on non-SSA form.
///
/// There is one per-expression loop for the SSA strategies and one
/// degradation-ladder walk, and one function compiles on one thread:
/// every parallel compile fans out whole functions instead
/// (pre/ParallelDriver.h, docs/PARALLELISM.md).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_PREDRIVER_H
#define SPECPRE_PRE_PREDRIVER_H

#include "ir/Ir.h"
#include "mincut/MinCut.h"
#include "pre/McSsaPre.h"
#include "pre/PreStats.h"
#include "profile/Profile.h"
#include "support/Budget.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace specpre {

class CompileCache;

enum class PreStrategy {
  None,       ///< No PRE at all (sanity baseline).
  SsaPre,     ///< Leg A: safe SSAPRE.
  SsaPreSpec, ///< Leg B: SSAPRE with loop-based speculation.
  McSsaPre,   ///< Leg C: the paper's contribution.
  McPre,      ///< The CFG-based min-cut baseline (Xue & Cai).
  Lcm,        ///< Classic lazy code motion (Knoop et al.): the safe
              ///< optimum, used as an oracle for leg A.
  Lospre,     ///< Leg D: leg C's optimum via treewidth DP (pre/Lospre.h);
              ///< bails out to MC-SSAPRE on irreducible or wide CFGs.
};

const char *strategyName(PreStrategy S);

/// True for the profile-guided strategies (MC-SSAPRE, LOSPRE, MC-PRE),
/// which a compile must train or load a profile for.
bool strategyNeedsProfile(PreStrategy S);

struct PreOptions {
  PreStrategy Strategy = PreStrategy::McSsaPre;
  /// Execution profile; required by McSsaPre (node frequencies) and
  /// McPre (edge frequencies; estimated from nodes if absent).
  const Profile *Prof = nullptr;
  /// Tie-breaking of minimum cuts; Latest is the paper's choice
  /// (lifetime optimality). Earliest exists for the ablation bench.
  CutPlacement Placement = CutPlacement::Latest;
  MaxFlowAlgorithm Algo = MaxFlowAlgorithm::Dinic;
  /// What the MC-SSAPRE cut minimizes: the paper optimizes speed;
  /// CutObjective::size() explores the Section-6 code-size direction.
  CutObjective Objective = CutObjective::speed();
  /// Run the IR verifier and the Definition-1 availability oracle on the
  /// transformed function, once, after its last code motion. A violation
  /// throws StatusException(ErrorCode::VerifyFailed), which
  /// compileWithFallback converts into a retry on the next ladder rung.
  bool Verify = true;
  /// Statistics sink (may be null).
  PreStats *Stats = nullptr;
  /// Resource limits for one function's compilation (default: none).
  /// Exhaustion surfaces as StatusException(BudgetExhausted), which the
  /// degradation ladder turns into a retry on a cheaper strategy.
  CompileBudget Budget;
  /// Leg D's treewidth budget: computeLosprePlacement refuses, with a
  /// recoverable ResourceLimit, any EFG whose tree decomposition comes
  /// out wider than this (the DP is O(2^w · N), so the bound caps both
  /// time and table memory). Only consulted when Strategy == Lospre;
  /// part of the compilation cache key there.
  unsigned LospreMaxWidth = 8;
  /// Content-addressed compilation cache consulted by compileWithFallback;
  /// see pre/CachedCompile.h for the protocol and docs/CACHING.md for the
  /// design. Null (the default) compiles uncached.
  CompileCache *Cache = nullptr;
};

/// Normalizes a freshly parsed (non-SSA) function for compilation:
/// removes unreachable blocks, restructures while loops and splits
/// critical edges. Must run before profile collection so block ids match.
void prepareFunction(Function &F);

/// Runs the selected PRE strategy over a prepared function. For
/// the SSA strategies, \p F must already be in SSA form (see
/// constructSsa); for McPre it must not be. Mutates F in place.
void runPre(Function &F, const PreOptions &Opts);

/// Convenience: takes a *prepared, non-SSA* function, builds SSA if the
/// strategy requires it, and runs PRE. Returns the optimized function,
/// leaving the input untouched.
Function compileWithPre(const Function &Prepared, const PreOptions &Opts);

/// The retry sequence compileWithFallback walks when \p Requested fails,
/// most capable first, ending in PreStrategy::None (the identity rung,
/// which runs no pass code and therefore cannot fail):
///
///   LOSPRE    -> MC-SSAPRE -> SSAPREsp -> SSAPRE -> none
///   MC-SSAPRE -> SSAPREsp -> SSAPRE -> none
///   SSAPREsp  -> SSAPRE -> none        MC-PRE -> none
///   SSAPRE    -> none                  LCM    -> none
std::vector<PreStrategy> degradationLadder(PreStrategy Requested);

/// Fault-isolated compilation of one function: tries the requested
/// strategy under Opts.Budget, and on any recoverable failure (injected
/// fault, budget exhaustion, verification failure, recoverable internal
/// error, or a contained non-Status exception as worker-failed) retries
/// down the degradation ladder. Each rung restarts with a fresh budget
/// and is accepted only if the verifier and the Definition-1 oracle
/// pass (PreOptions::Verify). Never fails: the identity rung returns the
/// input unchanged. Consults Opts.Cache (pre/CachedCompile.h); a caller
/// that needs only the printed IR passes \p TextOut, with the contract
/// of compileThroughCache's TextOut (a mode-On hit returns an empty
/// Function and the stored text).
///
/// The outcome (rung used, retries, first failure) is written to
/// \p OutcomeOut when non-null and recorded in Opts.Stats when set.
/// Partial statistics of abandoned rungs are discarded, so with no
/// degradation the stats stream is identical to compileWithPre's.
///
/// Every rung, and a replayed cache hit, records into the metrics sink
/// installed on the calling thread (MetricsScope), whose robustness
/// counters count: functions_compiled, every function returned (hits
/// included); functions_degraded, those that landed below the requested
/// rung; ladder_retries, rungs abandoned; worker_failures, rungs
/// abandoned because of a worker-failed exception.
Function compileWithFallback(const Function &Prepared, const PreOptions &Opts,
                             CompileOutcomeRecord *OutcomeOut = nullptr,
                             std::string *TextOut = nullptr);

} // namespace specpre

#endif // SPECPRE_PRE_PREDRIVER_H
