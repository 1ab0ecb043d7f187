//===- workload/FuzzOracles.cpp - Differential fuzzing oracles -----------------===//

#include "workload/FuzzOracles.h"

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "mincut/MinCut.h"
#include "mincut/TreewidthCut.h"
#include "pre/ExprKey.h"
#include "pre/Frg.h"
#include "pre/McSsaPre.h"
#include "pre/PreDriver.h"
#include "ssa/SsaConstruction.h"
#include "support/FaultInjector.h"
#include "support/LineCodec.h"
#include "support/Random.h"

#include <climits>
#include <fstream>
#include <sstream>

using namespace specpre;

namespace {

/// Mixes a seed and a case index into one PRNG seed (splitmix-style
/// constant so nearby cases decorrelate).
uint64_t mixSeed(uint64_t Seed, uint64_t CaseIdx) {
  return Seed * 0x9E3779B97F4A7C15ull + CaseIdx * 0xBF58476D1CE4E5B9ull + 1;
}

OracleFailure fail(std::string Oracle, std::string Message) {
  return OracleFailure{std::move(Oracle), std::move(Message)};
}

} // namespace

std::optional<OracleFailure> specpre::guardOracles(
    const std::function<std::optional<OracleFailure>()> &Check) {
  try {
    return Check();
  } catch (const StatusException &E) {
    return fail("uncaught-status", E.status().toString());
  } catch (const std::exception &E) {
    return fail("uncaught-exception", E.what());
  }
}

GeneratorConfig specpre::fuzzGeneratorConfig(uint64_t Seed, uint64_t CaseIdx) {
  Rng R(mixSeed(Seed, CaseIdx));
  GeneratorConfig C;
  C.NumParams = 2 + static_cast<unsigned>(R.nextBelow(3));
  C.NumVars = 4 + static_cast<unsigned>(R.nextBelow(5));
  C.ExprPoolSize = 4 + static_cast<unsigned>(R.nextBelow(6));
  C.MaxDepth = 2 + static_cast<unsigned>(R.nextBelow(2));
  C.StmtsPerBlock = 2 + static_cast<unsigned>(R.nextBelow(4));
  C.RegionsPerLevel = 2 + static_cast<unsigned>(R.nextBelow(2));
  C.AllowDiv = R.chance(1, 4);
  C.InvariantChance = 100 + static_cast<unsigned>(R.nextBelow(150));
  C.MinTrip = 2;
  C.MaxTrip = 2 + static_cast<unsigned>(R.nextBelow(7));
  // A third of the cases admit bounded-treewidth grid regions, so the
  // pipeline matrix routinely exercises leg D's DP on widths 2-5 (the
  // rest keep the legacy shapes, where grids never fire). Drawn last:
  // the rolls above stay identical for every historical (seed, case).
  if (R.chance(1, 3))
    C.MaxWidth = 2 + static_cast<unsigned>(R.nextBelow(4));
  return C;
}

Function specpre::fuzzProgram(uint64_t Seed, uint64_t CaseIdx) {
  return generateProgram(mixSeed(Seed, CaseIdx),
                         fuzzGeneratorConfig(Seed, CaseIdx), "fuzzed");
}

std::vector<int64_t> specpre::fuzzTrainArgs(const Function &F, uint64_t Seed,
                                            uint64_t CaseIdx) {
  Rng R(mixSeed(Seed, CaseIdx) ^ 0xA5A5A5A5A5A5A5A5ull);
  std::vector<int64_t> Args;
  for (unsigned P = 0; P != F.Params.size(); ++P)
    Args.push_back(R.nextInRange(-8, 64));
  return Args;
}

std::vector<std::vector<int64_t>>
specpre::fuzzVariantArgs(const Function &F, uint64_t Seed, uint64_t CaseIdx) {
  Rng R(mixSeed(Seed, CaseIdx) ^ 0x5A5A5A5A5A5A5A5Aull);
  std::vector<std::vector<int64_t>> Out;
  for (unsigned V = 0; V != 3; ++V) {
    std::vector<int64_t> Args;
    for (unsigned P = 0; P != F.Params.size(); ++P)
      Args.push_back(R.nextInRange(-64, 512));
    Out.push_back(std::move(Args));
  }
  return Out;
}

namespace {

std::string joinArgs(const std::vector<int64_t> &Args) {
  std::string S;
  for (size_t I = 0; I != Args.size(); ++I)
    S += (I ? "," : "") + std::to_string(Args[I]);
  return S;
}

/// compileWithPre into \p Out, with the verification failures a fuzz case
/// reports as the `verifier(<leg>)` oracle: their message is returned,
/// and any other error is rethrown.
std::optional<std::string> compileVerified(const Function &Prepared,
                                           const PreOptions &PO,
                                           Function &Out) {
  try {
    Out = compileWithPre(Prepared, PO);
  } catch (const StatusException &E) {
    if (E.status().code() != ErrorCode::VerifyFailed)
      throw;
    return E.status().message();
  }
  return std::nullopt;
}

/// One strategy's compile + training-input run, with non-fatal verify.
struct StrategyRun {
  Function Opt;
  PreStats Stats;
  ExecResult TrainResult;
  CompileOutcomeRecord Outcome; ///< Only populated under fault injection.
};

std::optional<OracleFailure>
runStrategy(const Function &Prepared, PreStrategy S, const Profile *Prof,
            const ExecResult &Reference, const std::vector<int64_t> &TrainArgs,
            const std::vector<std::vector<int64_t>> &VariantArgs,
            StrategyRun &Out) {
  PreOptions PO;
  PO.Strategy = S;
  PO.Prof = Prof;
  PO.Stats = &Out.Stats;
  const char *Name = strategyName(S);
  if (faultInjectionEnabled()) {
    // Under injection the leg runs through the degradation ladder: a
    // tripped verifier or injected fault degrades instead of failing the
    // case. Semantic equivalence below still gates whatever rung landed.
    Out.Opt = compileWithFallback(Prepared, PO, &Out.Outcome);
  } else if (std::optional<std::string> VErr =
                 compileVerified(Prepared, PO, Out.Opt)) {
    return fail(std::string("verifier(") + Name + ")", *VErr);
  }

  Out.TrainResult = interpret(Out.Opt, TrainArgs);
  if (!Out.TrainResult.sameObservableBehavior(Reference))
    return fail(std::string("semantics(") + Name + ")",
                "training input [" + joinArgs(TrainArgs) + "]: original " +
                    Reference.describe() + "; optimized " +
                    Out.TrainResult.describe());
  for (const std::vector<int64_t> &Args : VariantArgs) {
    ExecResult Ref = interpret(Prepared, Args);
    if (Ref.TimedOut)
      continue;
    ExecResult R = interpret(Out.Opt, Args);
    if (!R.sameObservableBehavior(Ref))
      return fail(std::string("semantics(") + Name + ")",
                  "variant input [" + joinArgs(Args) + "]: original " +
                      Ref.describe() + "; optimized " + R.describe());
  }
  return std::nullopt;
}

/// The prediction identity for one SSA strategy run under the training
/// profile: the dynamic computations removed must equal the reloaded
/// frequency minus the inserted frequency, summed over all expressions.
std::optional<OracleFailure>
checkPrediction(const char *Name, uint64_t BaseDyn, const StrategyRun &Run) {
  int64_t Predicted = 0;
  for (const ExprStatsRecord &R : Run.Stats.records())
    Predicted += static_cast<int64_t>(R.ReloadedFreq) -
                 static_cast<int64_t>(R.InsertedFreq);
  int64_t Actual = static_cast<int64_t>(BaseDyn) -
                   static_cast<int64_t>(Run.TrainResult.DynamicComputations);
  if (Predicted != Actual)
    return fail(std::string("prediction(") + Name + ")",
                "profile-predicted saving " + std::to_string(Predicted) +
                    " != measured saving " + std::to_string(Actual));
  return std::nullopt;
}

/// The min-cut reconciliation identities per speculated MC-SSAPRE record
/// (speed objective, unsaturated weights, node-only profile):
///   CutWeight == InsertedWeight + InPlaceWeight   (cut partition)
///   CutWeight <= SprWeight                        (trivial in-place cut)
///   InsertedWeight == InsertedFreq                (live insertions)
///   SprWeight == InPlaceWeight + SprReloadedFreq  (SPR reals either
///                                                  reload or stay put)
std::optional<OracleFailure> checkCutReconciliation(const StrategyRun &Run) {
  for (const ExprStatsRecord &R : Run.Stats.records()) {
    if (!R.Speculated || R.Saturated)
      continue;
    auto Fail = [&](const std::string &What) {
      return fail("cut-reconciliation",
                  "expr '" + R.Expr + "': " + What + " (cut " +
                      std::to_string(R.CutWeight) + ", inserted-w " +
                      std::to_string(R.InsertedWeight) + ", in-place-w " +
                      std::to_string(R.InPlaceWeight) + ", spr-w " +
                      std::to_string(R.SprWeight) + ", inserted-f " +
                      std::to_string(R.InsertedFreq) + ", spr-reloaded-f " +
                      std::to_string(R.SprReloadedFreq) + ")");
    };
    if (R.CutWeight != R.InsertedWeight + R.InPlaceWeight)
      return Fail("cut weight is not the sum of its edges");
    if (R.CutWeight > R.SprWeight)
      return Fail("cut weight exceeds the trivial all-in-place cut");
    if (R.InsertedWeight != static_cast<int64_t>(R.InsertedFreq))
      return Fail("insertion edge weight disagrees with live insertions");
    if (R.SprWeight !=
        R.InPlaceWeight + static_cast<int64_t>(R.SprReloadedFreq))
      return Fail("SPR occurrences neither reload nor compute in place");
  }
  return std::nullopt;
}

} // namespace

std::optional<OracleFailure> specpre::checkPipelineOracles(
    const Function &Unprepared, const std::vector<int64_t> &TrainArgs,
    const std::vector<std::vector<int64_t>> &VariantArgs) {
  Function Prepared = Unprepared;
  prepareFunction(Prepared);

  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  ExecResult Train = interpret(Prepared, TrainArgs, EO);
  if (Train.TimedOut)
    return std::nullopt; // No profile to check against: vacuous case.

  // Preparation itself must preserve behavior.
  ExecResult Orig = interpret(Unprepared, TrainArgs);
  if (!Train.sameObservableBehavior(Orig))
    return fail("prepare-semantics", "original " + Orig.describe() +
                                         "; prepared " + Train.describe());

  std::string ConsErr;
  if (!Train.Trapped && !Prof.verifyConservation(Prepared, ConsErr))
    return fail("flow-conservation", ConsErr);

  Profile NodeOnly = Prof.withoutEdgeFreqs();

  struct Leg {
    PreStrategy S;
    const Profile *Prof;
  };
  const Leg Legs[] = {
      {PreStrategy::SsaPre, &NodeOnly},  {PreStrategy::SsaPreSpec, &NodeOnly},
      {PreStrategy::McSsaPre, &NodeOnly}, {PreStrategy::McPre, &Prof},
      {PreStrategy::Lcm, nullptr},
  };
  StrategyRun Runs[5];
  uint64_t Dyn[5] = {};
  for (unsigned I = 0; I != 5; ++I) {
    if (auto F = runStrategy(Prepared, Legs[I].S, Legs[I].Prof, Train,
                             TrainArgs, VariantArgs, Runs[I]))
      return F;
    Dyn[I] = Runs[I].TrainResult.DynamicComputations;
  }
  enum { ISafe = 0, ISpec = 1, IMc = 2, IMcPre = 3, ILcm = 4 };

  // The remaining oracles are exact identities over the training profile;
  // a trapped run executes blocks partially, so they only hold untrapped.
  if (Train.Trapped)
    return std::nullopt;

  // A leg that degraded down the ladder (fault injection) did not run its
  // requested strategy, so the cross-strategy identities below are
  // meaningless; the verifier and semantic equivalence above already
  // gated each leg's actual output.
  for (const StrategyRun &Run : Runs)
    if (Run.Outcome.degraded())
      return std::nullopt;

  // Profile-predicted savings must reconcile with the measured counts.
  for (unsigned I : {ISafe, ISpec, IMc})
    if (auto F = checkPrediction(strategyName(Legs[I].S),
                                 Train.DynamicComputations, Runs[I]))
      return F;
  if (auto F = checkCutReconciliation(Runs[IMc]))
    return F;

  // Optimality ordering on the training input (Theorem 7 and the safe
  // optimum): the optimal speculative placement can never lose to the
  // safe or heuristic ones, and safe SSAPRE must match LCM exactly.
  auto Ordering = [&](const char *What, uint64_t A, uint64_t B, bool Exact) {
    std::optional<OracleFailure> F;
    if (Exact ? A != B : A > B)
      F = fail("ordering", std::string(What) + ": " + std::to_string(A) +
                               " vs " + std::to_string(B));
    return F;
  };
  if (auto F = Ordering("dyn(SSAPRE) <= dyn(original)", Dyn[ISafe],
                        Train.DynamicComputations, false))
    return F;
  if (auto F = Ordering("dyn(SSAPRE) == dyn(LCM)", Dyn[ISafe], Dyn[ILcm],
                        true))
    return F;
  if (auto F =
          Ordering("dyn(MC-SSAPRE) <= dyn(SSAPRE)", Dyn[IMc], Dyn[ISafe],
                   false))
    return F;
  if (auto F = Ordering("dyn(MC-SSAPRE) <= dyn(SSAPREsp)", Dyn[IMc],
                        Dyn[ISpec], false))
    return F;

  // ---- Leg D (LOSPRE): always through the ladder, because a width or
  // reducibility bailout is leg D's *specified* behavior, not a failure.
  // The verifier and semantic equivalence gate whatever rung landed; the
  // cross-leg cost identities below only apply to genuine leg D output.
  StrategyRun LosRun;
  {
    PreOptions PO;
    PO.Strategy = PreStrategy::Lospre;
    PO.Prof = &NodeOnly;
    PO.Stats = &LosRun.Stats;
    LosRun.Opt = compileWithFallback(Prepared, PO, &LosRun.Outcome);
  }
  LosRun.TrainResult = interpret(LosRun.Opt, TrainArgs);
  if (!LosRun.TrainResult.sameObservableBehavior(Train))
    return fail("semantics(LOSPRE)",
                "training input [" + joinArgs(TrainArgs) + "]: original " +
                    Train.describe() + "; optimized " +
                    LosRun.TrainResult.describe());
  for (const std::vector<int64_t> &Args : VariantArgs) {
    ExecResult Ref = interpret(Prepared, Args);
    if (Ref.TimedOut)
      continue;
    ExecResult R = interpret(LosRun.Opt, Args);
    if (!R.sameObservableBehavior(Ref))
      return fail("semantics(LOSPRE)",
                  "variant input [" + joinArgs(Args) + "]: original " +
                      Ref.describe() + "; optimized " + R.describe());
  }
  if (LosRun.Outcome.degraded() && !faultInjectionEnabled()) {
    // "Bailout, never wrong": with no faults injected, the only way leg
    // D may abandon its rung is the documented ResourceLimit refusal
    // (irreducible CFG or over-wide decomposition), and the ladder's
    // next rung — MC-SSAPRE, which cannot fail uninjected — must stick.
    if (LosRun.Outcome.Cause != "resource-limit")
      return fail("lospre-bailout",
                  "degraded with cause '" + LosRun.Outcome.Cause + "' (" +
                      LosRun.Outcome.Message + "), not resource-limit");
    if (LosRun.Outcome.Used != "MC-SSAPRE")
      return fail("lospre-bailout",
                  "bailout landed on " + LosRun.Outcome.Used +
                      ", not MC-SSAPRE");
  }
  if (!Train.Trapped && !LosRun.Outcome.degraded()) {
    // Leg D solved every EFG itself: its placements must be exactly as
    // cheap as the max-flow leg's, expression by expression. The cut
    // *partitions* may differ (ties), so cost — not IR — is compared;
    // equal capacity on the shared EFG forces equal dynamic counts.
    if (auto F = Ordering("dyn(LOSPRE) == dyn(MC-SSAPRE)",
                          LosRun.TrainResult.DynamicComputations, Dyn[IMc],
                          true))
      return F;
    if (auto F = checkPrediction("LOSPRE", Train.DynamicComputations, LosRun))
      return F;
    if (auto F = checkCutReconciliation(LosRun))
      return F;
    const std::vector<ExprStatsRecord> &A = LosRun.Stats.records();
    const std::vector<ExprStatsRecord> &B = Runs[IMc].Stats.records();
    if (A.size() != B.size())
      return fail("lospre-cost-equality",
                  "record counts differ: " + std::to_string(A.size()) +
                      " vs " + std::to_string(B.size()));
    for (size_t I = 0; I != A.size(); ++I) {
      const ExprStatsRecord &L = A[I], &M = B[I];
      if (L.ExprIndex != M.ExprIndex || L.Expr != M.Expr)
        return fail("lospre-cost-equality",
                    "record " + std::to_string(I) + ": expression order "
                    "diverged ('" + L.Expr + "' vs '" + M.Expr + "')");
      if (L.EfgNodes != M.EfgNodes || L.EfgEdges != M.EfgEdges)
        return fail("lospre-cost-equality",
                    "expr '" + L.Expr + "': EFG sizes differ (" +
                        std::to_string(L.EfgNodes) + "n/" +
                        std::to_string(L.EfgEdges) + "e vs " +
                        std::to_string(M.EfgNodes) + "n/" +
                        std::to_string(M.EfgEdges) + "e)");
      if (L.CutWeight != M.CutWeight || L.SprWeight != M.SprWeight)
        return fail("lospre-cost-equality",
                    "expr '" + L.Expr + "': cut weight " +
                        std::to_string(L.CutWeight) + " (spr " +
                        std::to_string(L.SprWeight) + ") vs MC-SSAPRE " +
                        std::to_string(M.CutWeight) + " (spr " +
                        std::to_string(M.SprWeight) + ")");
    }
  }

  bool Faulting = false;
  for (const ExprKey &K : collectCandidateExprs(Prepared))
    Faulting |= K.canFault();
  if (!Faulting) {
    // Two independent optimal algorithms must agree exactly.
    if (auto F = Ordering("dyn(MC-SSAPRE) == dyn(MC-PRE)", Dyn[IMc],
                          Dyn[IMcPre], true))
      return F;
    // Section 4: once critical edges are split, the node-only profile
    // carries the same information as the full edge profile.
    StrategyRun EdgeRun;
    if (auto F = runStrategy(Prepared, PreStrategy::McSsaPre, &Prof, Train,
                             TrainArgs, VariantArgs, EdgeRun))
      return F;
    if (!EdgeRun.Outcome.degraded())
      if (auto F = Ordering("dyn(MC-SSAPRE, edge profile) == dyn(MC-SSAPRE, "
                            "node profile)",
                            EdgeRun.TrainResult.DynamicComputations, Dyn[IMc],
                            true))
        return F;
  }
  return std::nullopt;
}

std::optional<OracleFailure> specpre::checkStoredProfileOracles(
    const Function &Unprepared, const Profile &Prof,
    const std::vector<std::vector<int64_t>> &Inputs) {
  Function Prepared = Unprepared;
  prepareFunction(Prepared);
  if (Prof.BlockFreq.size() < Prepared.numBlocks())
    return fail("corpus", "stored profile covers " +
                              std::to_string(Prof.BlockFreq.size()) +
                              " blocks but the prepared function has " +
                              std::to_string(Prepared.numBlocks()) +
                              " (reproducer must be prepare-idempotent)");

  Profile NodeOnly = Prof.withoutEdgeFreqs();
  struct Leg {
    PreStrategy S;
    const Profile *P;
  };
  const Leg Legs[] = {{PreStrategy::McSsaPre, &NodeOnly},
                      {PreStrategy::McPre, &Prof}};
  for (const Leg &L : Legs) {
    PreOptions PO;
    PO.Strategy = L.S;
    PO.Prof = L.P;
    PreStats Stats;
    PO.Stats = &Stats;
    Function Opt;
    const char *Name = strategyName(L.S);
    if (std::optional<std::string> VErr = compileVerified(Prepared, PO, Opt))
      return fail(std::string("verifier(") + Name + ")", *VErr);
    for (const std::vector<int64_t> &Args : Inputs) {
      ExecResult Ref = interpret(Prepared, Args);
      if (Ref.TimedOut)
        continue;
      ExecResult R = interpret(Opt, Args);
      if (!R.sameObservableBehavior(Ref))
        return fail(std::string("semantics(") + Name + ")",
                    "input [" + joinArgs(Args) + "]: original " +
                        Ref.describe() + "; optimized " + R.describe());
    }
    // A finite minimum cut always exists (the trivial cut computes every
    // occurrence in place), so no recorded cut may reach the infinite
    // capacity — that is precisely what weight saturation guarantees
    // under arbitrarily large stored frequencies.
    for (const ExprStatsRecord &R : Stats.records())
      if (R.CutWeight >= InfiniteCapacity)
        return fail("cut-capacity",
                    std::string(Name) + " expr '" + R.Expr +
                        "': cut weight " + std::to_string(R.CutWeight) +
                        " reached InfiniteCapacity");
  }
  return std::nullopt;
}

std::optional<OracleFailure>
specpre::checkEfgCutOracles(const Function &F, const Profile &Prof,
                            std::optional<int64_t> ExpectCutWeight) {
  // The FRG is built directly on the function AS WRITTEN — deliberately
  // without prepareFunction, so reproducers can carry unsplit critical
  // edges (the configuration where Φ-operand edge frequency and
  // predecessor block frequency genuinely differ).
  Function Ssa = F;
  if (!Ssa.IsSSA)
    constructSsa(Ssa);
  Cfg C(Ssa);
  DomTree DT = DomTree::buildDominators(C);
  FrgSites Sites(Ssa, C, DT);
  for (unsigned EI = 0; EI != Sites.candidates().size(); ++EI) {
    const ExprKey &E = Sites.candidates()[EI];
    if (E.canFault())
      continue;
    Frg G(Ssa, Sites, EI);
    if (G.reals().empty())
      continue;
    EfgStats ES = computeSpeculativePlacement(G, Prof);
    if (ES.Empty)
      continue;
    if (!ES.Saturated) {
      if (ES.CutWeight != ES.InsertedWeight + ES.InPlaceWeight ||
          ES.CutWeight > ES.SprWeight)
        return fail("efg-cut-reconciliation",
                    "expr '" + E.toString(Ssa) + "': cut " +
                        std::to_string(ES.CutWeight) + ", inserted " +
                        std::to_string(ES.InsertedWeight) + ", in-place " +
                        std::to_string(ES.InPlaceWeight) + ", spr " +
                        std::to_string(ES.SprWeight));
    }
    if (ExpectCutWeight && ES.CutWeight != *ExpectCutWeight)
      return fail("efg-cut-weight",
                  "expr '" + E.toString(Ssa) + "': cut weight " +
                      std::to_string(ES.CutWeight) + ", expected " +
                      std::to_string(*ExpectCutWeight));
    // Leg D cross-check on the same candidate: the treewidth DP over a
    // fresh build of the identical EFG must yield a structurally valid
    // cut of exactly the max-flow capacity — or refuse with the
    // documented ResourceLimit. Any other status is an oracle failure.
    Frg G2(Ssa, Sites, EI);
    EfgBuild B;
    buildEfgNetwork(G2, Prof, CutObjective::speed(), B);
    if (!B.Empty) {
      Expected<MinCutResult> Tw =
          computeTreewidthMinCut(B.Net, B.Source, B.Sink, 16);
      if (Tw.hasValue()) {
        std::string Error;
        if (!verifyMinCut(B.Net, B.Source, B.Sink, *Tw, Error))
          return fail("treewidth-cut-structure",
                      "expr '" + E.toString(Ssa) + "': " + Error);
        if (Tw->Capacity != ES.CutWeight)
          return fail("treewidth-cut-capacity",
                      "expr '" + E.toString(Ssa) + "': treewidth cut " +
                          std::to_string(Tw->Capacity) +
                          " != max-flow cut " +
                          std::to_string(ES.CutWeight));
      } else if (Tw.status().code() != ErrorCode::ResourceLimit) {
        return fail("treewidth-cut", "expr '" + E.toString(Ssa) + "': " +
                                         Tw.status().toString());
      }
    }
    return std::nullopt; // First non-faulting candidate with an EFG.
  }
  return fail("corpus", "no non-faulting candidate with a non-empty EFG");
}

NetworkCase specpre::fuzzNetworkCase(uint64_t Seed, uint64_t CaseIdx) {
  Rng R(mixSeed(Seed, CaseIdx) ^ 0x0F0F0F0F0F0F0F0Full);
  NetworkCase C;
  C.Source = C.Net.addNode();
  C.Sink = C.Net.addNode();
  unsigned Inner = 2 + static_cast<unsigned>(R.nextBelow(6));
  std::vector<int> Nodes;
  for (unsigned I = 0; I != Inner; ++I)
    Nodes.push_back(C.Net.addNode());

  // An inner capacity mixes the adversarial extremes: zero (a present
  // but unusable edge), the finite saturation cap (one step below the
  // infinite band), the infinite band itself, and ordinary small values.
  auto InnerCap = [&](unsigned InfChance) {
    if (R.chance(1, InfChance))
      return InfiniteCapacity;
    if (R.chance(1, 16))
      return MaxFiniteCapacity;
    return static_cast<int64_t>(R.nextBelow(20)); // 1-in-20 chance of 0
  };

  // Every source edge is finite, so a finite minimum cut always exists
  // and verifyMinCut's no-infinite-crossing check applies.
  for (int N : Nodes)
    if (R.chance(3, 4))
      C.Net.addEdge(C.Source, N,
                    R.chance(1, 16) ? MaxFiniteCapacity
                                    : static_cast<int64_t>(R.nextBelow(20)),
                    -1);
  for (unsigned I = 0; I != Inner; ++I)
    for (unsigned J = 0; J != Inner; ++J) {
      if (I == J || !R.chance(1, 3))
        continue;
      C.Net.addEdge(Nodes[I], Nodes[J], InnerCap(8), -1);
    }
  for (int N : Nodes)
    if (R.chance(1, 2))
      C.Net.addEdge(N, C.Sink, InnerCap(6), -1);
  return C;
}

std::optional<OracleFailure>
specpre::checkNetworkOracles(NetworkCase &C,
                             std::optional<int64_t> ExpectCutWeight) {
  Expected<int64_t> TruthOrError =
      bruteForceMinCutCapacity(C.Net, C.Source, C.Sink);
  if (!TruthOrError.hasValue())
    return OracleFailure{"brute-force-oracle",
                         TruthOrError.status().toString()};
  int64_t Truth = *TruthOrError;
  if (ExpectCutWeight && Truth != *ExpectCutWeight)
    return fail("mincut-expected-weight",
                "brute force " + std::to_string(Truth) + " != expected " +
                    std::to_string(*ExpectCutWeight));
  // Earliest/latest cuts are properties of the residual graph, which is
  // the same for every maximum flow — so beyond capacity agreement, the
  // cut edge lists must match the first algorithm's exactly.
  std::vector<int> RefCut[2];
  bool HaveRef[2] = {false, false};
  for (MaxFlowAlgorithm Algo : AllMaxFlowAlgorithms)
    for (CutPlacement P : {CutPlacement::Earliest, CutPlacement::Latest}) {
      C.Net.resetFlow();
      MinCutResult Cut = computeMinCut(C.Net, C.Source, C.Sink, P, Algo);
      int PI = P == CutPlacement::Earliest ? 0 : 1;
      std::string Context =
          std::string(maxFlowAlgorithmName(Algo)) + "/" +
          (P == CutPlacement::Earliest ? "earliest" : "latest");
      std::string Error;
      if (!verifyMinCut(C.Net, C.Source, C.Sink, Cut, Error))
        return fail("mincut-structure", Context + ": " + Error);
      if (Cut.Capacity != Truth)
        return fail("mincut-capacity",
                    Context + ": cut " + std::to_string(Cut.Capacity) +
                        " != brute force " + std::to_string(Truth));
      if (!HaveRef[PI]) {
        HaveRef[PI] = true;
        RefCut[PI] = Cut.CutEdgeIds;
      } else if (Cut.CutEdgeIds != RefCut[PI]) {
        return fail("mincut-cut-identity",
                    Context + ": cut edges differ from " +
                        maxFlowAlgorithmName(AllMaxFlowAlgorithms[0]) +
                        "'s (" + std::to_string(Cut.CutEdgeIds.size()) +
                        " vs " + std::to_string(RefCut[PI].size()) +
                        " edges)");
      }
    }
  // The treewidth DP is a third independent solver over the same
  // network. Its cut may pick a different (tied) partition — only the
  // capacity is pinned to the brute-force truth, plus structural
  // validity. Width 16 comfortably covers the fuzzed 8-node networks,
  // so a ResourceLimit refusal here is itself a failure.
  C.Net.resetFlow();
  Expected<MinCutResult> Tw =
      computeTreewidthMinCut(C.Net, C.Source, C.Sink, 16);
  if (!Tw.hasValue())
    return fail("treewidth-cut", Tw.status().toString());
  std::string TwError;
  if (!verifyMinCut(C.Net, C.Source, C.Sink, *Tw, TwError))
    return fail("treewidth-cut-structure", TwError);
  if (Tw->Capacity != Truth)
    return fail("treewidth-cut-capacity",
                "treewidth cut " + std::to_string(Tw->Capacity) +
                    " != brute force " + std::to_string(Truth));
  return std::nullopt;
}

std::optional<OracleFailure> specpre::checkRandomNetworkCase(uint64_t Seed,
                                                             uint64_t CaseIdx) {
  NetworkCase C = fuzzNetworkCase(Seed, CaseIdx);
  return checkNetworkOracles(C, std::nullopt);
}

std::string specpre::formatNetworkReproducer(const NetworkCase &C,
                                             const OracleFailure &Failure) {
  std::string Out;
  Out += "// specpre-fuzz reproducer\n";
  Out += "// mode: network\n";
  Out += "// oracle: " + Failure.Oracle + "\n";
  Out += "// nodes: " + std::to_string(C.Net.numNodes()) + "\n";
  Out += "// source: " + std::to_string(C.Source) + "\n";
  Out += "// sink: " + std::to_string(C.Sink) + "\n";
  for (int E = 0; E != C.Net.numOriginalEdges(); ++E) {
    int64_t Cap = C.Net.edgeCapacity(E);
    Out += "// edge: " + std::to_string(C.Net.edgeFrom(E)) + " " +
           std::to_string(C.Net.edgeTo(E)) + " " +
           (Cap >= InfiniteCapacity ? std::string("inf")
                                    : std::to_string(Cap)) +
           "\n";
  }
  return Out;
}

NetworkCase specpre::reduceNetworkCase(const NetworkCase &C,
                                       const OracleFailure &Failure) {
  NetworkCase Cur = C;
  bool Shrunk = true;
  while (Shrunk) {
    Shrunk = false;
    for (int Drop = 0; Drop != Cur.Net.numOriginalEdges(); ++Drop) {
      NetworkCase Cand;
      Cand.Source = Cur.Source;
      Cand.Sink = Cur.Sink;
      while (Cand.Net.numNodes() != Cur.Net.numNodes())
        Cand.Net.addNode();
      for (int E = 0; E != Cur.Net.numOriginalEdges(); ++E)
        if (E != Drop)
          Cand.Net.addEdge(Cur.Net.edgeFrom(E), Cur.Net.edgeTo(E),
                           Cur.Net.edgeCapacity(E), -1);
      std::optional<OracleFailure> F = checkNetworkOracles(Cand, std::nullopt);
      if (F && F->Oracle == Failure.Oracle) {
        Cur = std::move(Cand);
        Shrunk = true;
        break;
      }
    }
  }
  return Cur;
}

//===----------------------------------------------------------------------===//
// Corpus replay
//===----------------------------------------------------------------------===//

namespace {

struct CorpusDirectives {
  std::string Mode;
  std::vector<int64_t> Args;
  std::string Oracle;
  std::optional<int64_t> ExpectCutWeight;

  // Network mode: the case is the network itself.
  int Nodes = 0, Source = -1, Sink = -1;
  struct NetEdge {
    int From = 0, To = 0;
    int64_t Cap = 0;
  };
  std::vector<NetEdge> NetEdges;
};

/// Parses the `// key: value` directive comments of a reproducer.
/// Numeric directive values go through the checked linecodec parsers: a
/// malformed or fuzzer-mutated value (`cap=junk`, overflow digits) sets
/// \p Error with the offending directive and the caller reports a parse
/// diagnostic instead of aborting on an uncaught std::stoll exception.
CorpusDirectives parseDirectives(const std::string &Text,
                                 std::string &Error) {
  CorpusDirectives D;
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  auto Bad = [&](const char *Key, const std::string &V) {
    if (Error.empty())
      Error = "line " + std::to_string(LineNo) + ": bad integer '" + V +
              "' in " + Key + " directive";
  };
  // Checked narrowing: int-typed directives (node ids) reject anything
  // outside int range, not just anything outside int64 range.
  auto ParseInt = [&](const char *Key, const std::string &V, int &Out) {
    int64_t Wide;
    if (!linecodec::parseI64(V, Wide) || Wide < INT_MIN || Wide > INT_MAX) {
      Bad(Key, V);
      return false;
    }
    Out = static_cast<int>(Wide);
    return true;
  };
  while (std::getline(In, Line)) {
    ++LineNo;
    size_t Pos = Line.find("//");
    if (Pos == std::string::npos)
      continue;
    std::string Rest = Line.substr(Pos + 2);
    auto Value = [&](const char *Key) -> std::optional<std::string> {
      std::string Prefix = std::string(" ") + Key + ":";
      if (Rest.rfind(Prefix, 0) != 0)
        return std::nullopt;
      std::string V = Rest.substr(Prefix.size());
      while (!V.empty() && V.front() == ' ')
        V.erase(V.begin());
      while (!V.empty() && (V.back() == ' ' || V.back() == '\r'))
        V.pop_back();
      return V;
    };
    if (auto V = Value("mode"))
      D.Mode = *V;
    else if (auto V = Value("oracle"))
      D.Oracle = *V;
    else if (auto V = Value("expect-cut-weight")) {
      int64_t W;
      if (!linecodec::parseI64(*V, W)) {
        Bad("expect-cut-weight", *V);
        continue;
      }
      D.ExpectCutWeight = W;
    } else if (auto V = Value("args")) {
      std::istringstream AS(*V);
      std::string Tok;
      while (std::getline(AS, Tok, ',')) {
        while (!Tok.empty() && Tok.front() == ' ')
          Tok.erase(Tok.begin());
        while (!Tok.empty() && Tok.back() == ' ')
          Tok.pop_back();
        if (Tok.empty())
          continue;
        int64_t A;
        if (!linecodec::parseI64(Tok, A)) {
          Bad("args", Tok);
          break;
        }
        D.Args.push_back(A);
      }
    } else if (auto V = Value("nodes"))
      ParseInt("nodes", *V, D.Nodes);
    else if (auto V = Value("source"))
      ParseInt("source", *V, D.Source);
    else if (auto V = Value("sink"))
      ParseInt("sink", *V, D.Sink);
    else if (auto V = Value("edge")) {
      std::vector<std::string> T = linecodec::splitTokens(*V);
      if (T.size() != 3) {
        if (Error.empty())
          Error = "line " + std::to_string(LineNo) +
                  ": edge directive wants 'from to cap', got '" + *V + "'";
        continue;
      }
      CorpusDirectives::NetEdge E;
      if (!ParseInt("edge", T[0], E.From) || !ParseInt("edge", T[1], E.To))
        continue;
      if (T[2] == "inf")
        E.Cap = InfiniteCapacity;
      else if (!linecodec::parseI64(T[2], E.Cap)) {
        Bad("edge", T[2]);
        continue;
      }
      D.NetEdges.push_back(E);
    }
  }
  return D;
}

/// Deterministic exercise inputs derived from the training arguments.
std::vector<std::vector<int64_t>>
derivedInputs(const std::vector<int64_t> &Args) {
  std::vector<std::vector<int64_t>> Out{Args};
  std::vector<int64_t> A = Args, B = Args, C(Args.size(), 0);
  for (int64_t &V : A)
    V += 1;
  for (int64_t &V : B)
    V ^= 0x55;
  Out.push_back(std::move(A));
  Out.push_back(std::move(B));
  Out.push_back(std::move(C));
  return Out;
}

std::optional<std::string> slurpFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

std::optional<OracleFailure>
specpre::replayCorpusFile(const std::string &IrPath) {
  std::optional<std::string> Text = slurpFile(IrPath);
  if (!Text)
    return fail("corpus", "cannot read " + IrPath);
  std::string DirectiveError;
  CorpusDirectives D = parseDirectives(*Text, DirectiveError);
  if (!DirectiveError.empty())
    return fail("corpus", IrPath + ": " + DirectiveError);

  // Network-mode reproducers carry no IR: the flow network lives entirely
  // in the directives. Handle them before attempting to parse a module.
  if (D.Mode == "network") {
    NetworkCase C;
    if (D.Nodes < 2 || D.Source < 0 || D.Source >= D.Nodes || D.Sink < 0 ||
        D.Sink >= D.Nodes)
      return fail("corpus", IrPath + ": malformed network directives");
    while (C.Net.numNodes() != D.Nodes)
      C.Net.addNode();
    C.Source = D.Source;
    C.Sink = D.Sink;
    for (const CorpusDirectives::NetEdge &E : D.NetEdges) {
      if (E.From < 0 || E.From >= D.Nodes || E.To < 0 || E.To >= D.Nodes)
        return fail("corpus", IrPath + ": edge endpoint out of range");
      C.Net.addEdge(E.From, E.To, E.Cap, -1);
    }
    return checkNetworkOracles(C, D.ExpectCutWeight);
  }

  std::string ParseError;
  std::optional<Module> M = parseModule(*Text, ParseError);
  if (!M || M->Functions.empty())
    return fail("corpus", IrPath + ": " +
                              (ParseError.empty() ? "no function" : ParseError));
  Function &F = M->Functions.front();
  if (D.Args.size() != F.Params.size() && D.Mode != "efg-cut")
    return fail("corpus", IrPath + ": args directive has " +
                              std::to_string(D.Args.size()) +
                              " values for " +
                              std::to_string(F.Params.size()) + " params");

  Profile Prof;
  if (D.Mode == "profile" || D.Mode == "efg-cut") {
    std::string ProfPath = IrPath;
    size_t Dot = ProfPath.rfind(".ir");
    if (Dot != std::string::npos)
      ProfPath = ProfPath.substr(0, Dot);
    ProfPath += ".prof";
    std::optional<std::string> ProfText = slurpFile(ProfPath);
    if (!ProfText)
      return fail("corpus", "cannot read " + ProfPath);
    std::string ProfError;
    if (!parseProfile(*ProfText, Prof, ProfError))
      return fail("corpus", ProfPath + ": " + ProfError);
  }

  if (D.Mode == "pipeline")
    return checkPipelineOracles(F, D.Args, derivedInputs(D.Args));
  if (D.Mode == "profile")
    return checkStoredProfileOracles(F, Prof, derivedInputs(D.Args));
  if (D.Mode == "efg-cut")
    return checkEfgCutOracles(F, Prof, D.ExpectCutWeight);
  return fail("corpus", IrPath + ": unknown mode '" + D.Mode + "'");
}

std::string
specpre::formatPipelineReproducer(const Function &Unprepared,
                                  const std::vector<int64_t> &TrainArgs,
                                  const OracleFailure &Failure) {
  std::string Out;
  Out += "// specpre-fuzz reproducer\n";
  Out += "// mode: pipeline\n";
  Out += "// args: " + joinArgs(TrainArgs) + "\n";
  Out += "// oracle: " + Failure.Oracle + "\n";
  Out += printFunction(Unprepared);
  return Out;
}
