//===- tests/mcssapre_test.cpp - MC-SSAPRE (leg C) tests ------------------------===//

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pre/Frg.h"
#include "pre/Lospre.h"
#include "pre/McSsaPre.h"
#include "pre/PreDriver.h"
#include "ssa/SsaConstruction.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <thread>
#include <tuple>

using namespace specpre;

namespace {

/// Runs the full pipeline: prepare, profile on TrainArgs, optimize with
/// the given strategy.
struct Compiled {
  Function Prepared;
  Function Optimized;
  Profile Prof;
};

Compiled compile(const char *Src, PreStrategy Strategy,
                 std::vector<int64_t> TrainArgs,
                 CutPlacement Placement = CutPlacement::Latest) {
  Compiled C;
  C.Prepared = parseFunctionOrDie(Src);
  prepareFunction(C.Prepared);
  ExecOptions EO;
  EO.CollectProfile = &C.Prof;
  interpret(C.Prepared, TrainArgs, EO);
  Profile NodeOnly = C.Prof.withoutEdgeFreqs();
  PreOptions PO;
  PO.Strategy = Strategy;
  PO.Prof = Strategy == PreStrategy::McPre ? &C.Prof : &NodeOnly;
  PO.Placement = Placement;
  C.Optimized = compileWithPre(C.Prepared, PO);
  return C;
}

uint64_t dynComputations(const Function &F, std::vector<int64_t> Args) {
  return interpret(F, Args).DynamicComputations;
}

/// The skewed-diamond scenario: the expression is used only on the cold
/// path, but its operands are available before the branch. Safe PRE
/// cannot touch it; speculation under a profile moves the computation to
/// the cold side.
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

} // namespace

TEST(McSsaPre, EmptyEfgWhenNoPartialRedundancy) {
  // Two independent computations with a kill in between: nothing
  // strictly partial, the EFG is empty.
  Function F = parseFunctionOrDie(R"(
    func f(a, b) {
    entry:
      x = a + b
      a = a + 1
      y = a + b
      ret y
    }
  )");
  prepareFunction(F);
  constructSsa(F);
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  ExprKey K;
  K.Op = Opcode::Add;
  K.L.Var = F.findVar("a");
  K.R.Var = F.findVar("b");
  Frg G(F, C, DT, K);
  Profile Prof;
  Prof.reset(F.numBlocks(), false);
  EfgStats S = computeSpeculativePlacement(G, Prof);
  EXPECT_TRUE(S.Empty);
  EXPECT_EQ(S.NumInsertions, 0u);
}

TEST(McSsaPre, MinimalEfgIsFourNodes) {
  // The paper: a non-empty EFG cannot be smaller than 4 nodes (source,
  // sink, one Φ, one SPR occurrence). The diamond gives exactly that.
  Function F = parseFunctionOrDie(R"(
    func f(a, b, p) {
    entry:
      br p, t, e
    t:
      x = a + b
      print x
      jmp j
    e:
      print 0
      jmp j
    j:
      z = a + b
      ret z
    }
  )");
  prepareFunction(F);
  constructSsa(F);
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  ExprKey K;
  K.Op = Opcode::Add;
  K.L.Var = F.findVar("a");
  K.R.Var = F.findVar("b");
  Frg G(F, C, DT, K);
  Profile Prof;
  Prof.reset(F.numBlocks(), false);
  for (auto &BF : Prof.BlockFreq)
    BF = 10;
  EfgStats S = computeSpeculativePlacement(G, Prof);
  EXPECT_FALSE(S.Empty);
  EXPECT_EQ(S.NumNodes, 4u);
}

TEST(McSsaPre, SpeculatesIntoColdPath) {
  // Trained where the cold path runs 1/8 of iterations: speculating the
  // computation into 'cold' (or keeping it in place — equal here since
  // cold is the only use) must at least not lose; against SSAPREsp the
  // invariant hoist wins. Check against safe SSAPRE.
  Compiled Mc = compile(SkewedDiamond, PreStrategy::McSsaPre, {3, 4, 64});
  Compiled Safe = compile(SkewedDiamond, PreStrategy::SsaPre, {3, 4, 64});
  uint64_t McCount = dynComputations(Mc.Optimized, {3, 4, 64});
  uint64_t SafeCount = dynComputations(Safe.Optimized, {3, 4, 64});
  EXPECT_LE(McCount, SafeCount);
  EXPECT_EQ(interpret(Mc.Optimized, {3, 4, 64}).ReturnValue,
            interpret(Safe.Optimized, {3, 4, 64}).ReturnValue);
}

TEST(McSsaPre, HoistsOutOfHotLoopUnderProfile) {
  // Invariant computed under a 7/8-hot condition inside the loop: the
  // min cut moves it to the loop entry (cost 1) instead of computing
  // ~7n/8 times.
  const char *Src = R"(
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
      s = s + 1
      jmp latch
    hot:
      x = a * b
      s = s + x
      jmp latch
    latch:
      i = i + 1
      jmp h
    exit:
      ret s
    }
  )";
  Compiled Mc = compile(Src, PreStrategy::McSsaPre, {3, 4, 64});
  Compiled Safe = compile(Src, PreStrategy::SsaPre, {3, 4, 64});
  uint64_t McCount = dynComputations(Mc.Optimized, {3, 4, 64});
  uint64_t SafeCount = dynComputations(Safe.Optimized, {3, 4, 64});
  // Safe computes a*b 56 times (hot iterations); MC computes it once.
  EXPECT_LE(McCount + 50, SafeCount);
  EXPECT_EQ(interpret(Mc.Optimized, {3, 4, 64}).ReturnValue,
            interpret(Safe.Optimized, {3, 4, 64}).ReturnValue);
}

TEST(McSsaPre, RespectsProfileDirection) {
  // The same program trained with opposite skews must place the
  // computation differently — measured by dynamic counts on matching
  // inputs. Program: expression used on one side of a branch whose
  // direction depends on p.
  const char *Src = R"(
    func f(a, b, p, n) {
    entry:
      i = 0
      s = 0
      jmp h
    h:
      t = i < n
      br t, body, exit
    body:
      c = i % p
      cz = c == 0
      br cz, use, skip
    use:
      x = a + b
      s = s + x
      jmp latch
    skip:
      s = s + 1
      jmp latch
    latch:
      i = i + 1
      jmp h
    exit:
      ret s
    }
  )";
  // p=1: 'use' taken every iteration (hot use) -> hoist pays.
  // p=1000: 'use' taken once per 1000 (cold use) -> keep in place.
  Compiled HotUse = compile(Src, PreStrategy::McSsaPre, {3, 4, 1, 64});
  Compiled ColdUse = compile(Src, PreStrategy::McSsaPre, {3, 4, 1000, 64});
  // Each must be no worse than the original on its own training input.
  EXPECT_LE(dynComputations(HotUse.Optimized, {3, 4, 1, 64}),
            dynComputations(HotUse.Prepared, {3, 4, 1, 64}));
  EXPECT_LE(dynComputations(ColdUse.Optimized, {3, 4, 1000, 64}),
            dynComputations(ColdUse.Prepared, {3, 4, 1000, 64}));
}

TEST(McSsaPre, FaultingExpressionFallsBackToSafePlacement) {
  const char *Src = R"(
    func f(a, b, n) {
    entry:
      i = 0
      s = 0
      jmp h
    h:
      t = i < n
      br t, body, exit
    body:
      c = i & 1
      br c, odd, even
    odd:
      x = a / b
      s = s + x
      jmp latch
    even:
      s = s + 1
      jmp latch
    latch:
      i = i + 1
      jmp h
    exit:
      ret s
    }
  )";
  Compiled Mc = compile(Src, PreStrategy::McSsaPre, {8, 2, 16});
  // With b == 0 and only one iteration (i=0 even), the original never
  // divides; the optimized must not introduce a trap.
  ExecResult R = interpret(Mc.Optimized, {8, 0, 1});
  EXPECT_FALSE(R.Trapped);
  EXPECT_TRUE(interpret(Mc.Optimized, {8, 0, 2}).Trapped);
}

TEST(McSsaPre, Figure7WillBeAvailMatchesManualInserts) {
  // Lemma 8: WillBeAvail == full availability after insertions. Check on
  // a diamond by setting inserts by hand.
  Function F = parseFunctionOrDie(R"(
    func f(a, b, p) {
    entry:
      br p, t, e
    t:
      x = a + b
      print x
      jmp j
    e:
      print 0
      jmp j
    j:
      z = a + b
      ret z
    }
  )");
  prepareFunction(F);
  constructSsa(F);
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  ExprKey K;
  K.Op = Opcode::Add;
  K.L.Var = F.findVar("a");
  K.R.Var = F.findVar("b");
  Frg G(F, C, DT, K);
  ASSERT_EQ(G.phis().size(), 1u);
  PhiOcc &P = G.phis()[0];

  // No inserts: the ⊥ operand keeps the Φ unavailable.
  for (PhiOperand &Op : P.Operands)
    Op.Insert = false;
  computeWillBeAvailFromInserts(G);
  EXPECT_FALSE(P.WillBeAvail);

  // Insert at the ⊥ operand: now available.
  for (PhiOperand &Op : P.Operands)
    Op.Insert = Op.isBottom();
  computeWillBeAvailFromInserts(G);
  EXPECT_TRUE(P.WillBeAvail);
}

TEST(McSsaPre, LatestVsEarliestCutSameComputationCount) {
  // Lifetime optimality changes placement, not the computation count.
  Compiled Latest =
      compile(SkewedDiamond, PreStrategy::McSsaPre, {3, 4, 64},
              CutPlacement::Latest);
  Compiled Earliest =
      compile(SkewedDiamond, PreStrategy::McSsaPre, {3, 4, 64},
              CutPlacement::Earliest);
  EXPECT_EQ(dynComputations(Latest.Optimized, {3, 4, 64}),
            dynComputations(Earliest.Optimized, {3, 4, 64}));
}

TEST(McSsaPre, NodeFrequenciesSufficeExactly) {
  // Paper Sections 1/4: MC-SSAPRE needs only node frequencies. Giving it
  // the full edge profile must not change the result.
  Function F = parseFunctionOrDie(SkewedDiamond);
  prepareFunction(F);
  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  interpret(F, {3, 4, 64}, EO);
  Profile NodeOnly = Prof.withoutEdgeFreqs();

  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &Prof;
  Function WithEdges = compileWithPre(F, PO);
  PO.Prof = &NodeOnly;
  Function WithNodes = compileWithPre(F, PO);
  EXPECT_EQ(printFunction(WithEdges), printFunction(WithNodes));
}

TEST(McSsaPre, ForeignPhiArgumentBlocksBogusSpeculation) {
  // Hand-written SSA where the variable phi at the join substitutes a
  // *different* variable along one edge (legal SSA; arises from copy
  // propagation). The expression value changes across that edge, so no
  // lexical insertion can cover it: PRE must not relate the downstream
  // occurrence to upstream computations through that phi (regression
  // test for a miscompile found by iterated-PRE fuzzing).
  Function F = parseFunctionOrDie(R"(
    func f(a, b, p) {
    entry:
      x#1 = a#1 + 0
      u#1 = x#1 * b#1
      print u#1
      br p#1, t, e
    t:
      y#1 = a#1 + 5
      jmp j
    e:
      jmp j
    j:
      x#2 = phi [t: y#1] [e: x#1]
      v#1 = x#2 * b#1
      ret v#1
    }
  )");
  ASSERT_TRUE(F.IsSSA);
  Profile Prof;
  Prof.reset(F.numBlocks(), false);
  for (auto &BF : Prof.BlockFreq)
    BF = 100;
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &Prof;
  Function Opt = F;
  runPre(Opt, PO);
  // Semantics must hold on both paths; the t path in particular computes
  // (a+5)*b at the join, which no x-based reuse can produce.
  for (int64_t P : {0, 1}) {
    ExecResult Base = interpret(F, {7, 3, P});
    ExecResult O = interpret(Opt, {7, 3, P});
    ASSERT_TRUE(Base.sameObservableBehavior(O))
        << "p=" << P << "\n" << printFunction(Opt);
  }
}

TEST(McSsaPre, UndefinedOperandPathNeverGetsInsertion) {
  // `q` is defined only inside the loop; the expression q+b is partially
  // redundant around the back edge, but the loop-entry path has no value
  // of q at all: insertion there is blocked, so the placement must keep
  // the in-loop computation (or place it after q's definition) and never
  // reference an undefined version.
  Function F = parseFunctionOrDie(R"(
    func f(b, n) {
    entry:
      i = 0
      s = 0
      jmp h
    h:
      t = i < n
      br t, body, exit
    body:
      q = i * 3
      z = q + b
      s = s + z
      z2 = q + b
      s = s + z2
      i = i + 1
      jmp h
    exit:
      ret s
    }
  )");
  prepareFunction(F);
  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  interpret(F, {4, 16}, EO);
  Profile NodeOnly = Prof.withoutEdgeFreqs();
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &NodeOnly;
  Function Opt = compileWithPre(F, PO);
  for (int64_t N : {0, 1, 16}) {
    ExecResult Base = interpret(F, {4, N});
    ExecResult O = interpret(Opt, {4, N});
    ASSERT_TRUE(Base.sameObservableBehavior(O)) << "n=" << N;
    ASSERT_LE(O.DynamicComputations, Base.DynamicComputations);
  }
}

//===----------------------------------------------------------------------===//
// EFG edge-weight regressions (see tests/corpus/README.md)
//===----------------------------------------------------------------------===//

namespace {

/// SSA form of the critical-edge reproducer, built WITHOUT preparation so
/// the critical edge left->join stays unsplit — the one configuration
/// where a phi-operand's edge frequency and its predecessor's block
/// frequency genuinely differ.
Function criticalEdgeFunction() {
  Function F = parseFunctionOrDie(R"(
    func f(a, b, p, q) {
    entry:
      br p, left, join
    left:
      x = a + b
      print x
      br q, join, out
    out:
      print 0
      ret 0
    join:
      z = a + b
      ret z
    }
  )");
  constructSsa(F);
  return F;
}

/// Profile for criticalEdgeFunction: blocks entry=100 left=90 out=50
/// join=50; edges entry->left=90, entry->join=10, left->out=50,
/// left->join=40. The insertion point for `a + b` is the phi operand
/// along entry->join: its edge frequency is 10, but its predecessor
/// (entry) runs 100 times.
Profile criticalEdgeProfile() {
  Profile P;
  P.BlockFreq = {100, 90, 50, 50};
  P.HasEdgeFreqs = true;
  P.EdgeFreq[{0, 1}] = 90;
  P.EdgeFreq[{0, 3}] = 10;
  P.EdgeFreq[{1, 2}] = 50;
  P.EdgeFreq[{1, 3}] = 40;
  return P;
}

} // namespace

TEST(McSsaPre, PhiOperandUsesEdgeFrequencyOnUnsplitCriticalEdges) {
  Function F = criticalEdgeFunction();
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  std::vector<ExprKey> Exprs = collectCandidateExprs(F);
  ASSERT_EQ(Exprs.size(), 1u);

  // With edge frequencies the insertion costs edgeFreq(entry->join) = 10,
  // cheaper than computing in place at join (freq 50).
  Profile Prof = criticalEdgeProfile();
  Frg G(F, C, DT, Exprs[0]);
  EfgStats S = computeSpeculativePlacement(G, Prof);
  ASSERT_FALSE(S.Empty);
  EXPECT_EQ(S.CutWeight, 10);
  EXPECT_EQ(S.NumInsertions, 1u);
  EXPECT_EQ(S.NumComputeInPlace, 0u);

  // Degraded to a node-only profile the weight falls back to
  // blockFreq(entry) = 100 — a sound upper bound — and the placement
  // rightly prefers computing in place at join (weight 50). The bug was
  // using blockFreq even when edge frequencies were available.
  Profile NodeOnly = Prof.withoutEdgeFreqs();
  Frg G2(F, C, DT, Exprs[0]);
  EfgStats S2 = computeSpeculativePlacement(G2, NodeOnly);
  ASSERT_FALSE(S2.Empty);
  EXPECT_EQ(S2.CutWeight, 50);
  EXPECT_EQ(S2.NumInsertions, 0u);
  EXPECT_EQ(S2.NumComputeInPlace, 1u);
}

TEST(McSsaPre, ZeroFrequencyTieBreaksTowardComputeInPlace) {
  // Cold join: both cutting the insertion edge and cutting the type-2
  // in-place edge cost 0. Latest placement must take the cut closest to
  // the sink — compute in place — which keeps the temporary's live range
  // empty (lifetime optimality under ties, paper Section 5).
  Function F = parseFunctionOrDie(R"(
    func f(a, b, p) {
    entry:
      br p, t, e
    t:
      x = a + b
      print x
      jmp j
    e:
      print 0
      jmp j
    j:
      z = a + b
      ret z
    }
  )");
  constructSsa(F);
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  std::vector<ExprKey> Exprs = collectCandidateExprs(F);
  ASSERT_EQ(Exprs.size(), 1u);

  Profile Prof;
  Prof.BlockFreq = {1, 1, 0, 0}; // entry, t, e, j — the join never runs

  Frg GLate(F, C, DT, Exprs[0]);
  EfgStats Late = computeSpeculativePlacement(GLate, Prof,
                                              CutPlacement::Latest);
  ASSERT_FALSE(Late.Empty);
  EXPECT_EQ(Late.CutWeight, 0);
  EXPECT_EQ(Late.NumInsertions, 0u);
  EXPECT_EQ(Late.NumComputeInPlace, 1u);

  Frg GEarly(F, C, DT, Exprs[0]);
  EfgStats Early = computeSpeculativePlacement(GEarly, Prof,
                                               CutPlacement::Earliest);
  ASSERT_FALSE(Early.Empty);
  EXPECT_EQ(Early.CutWeight, 0);
  EXPECT_EQ(Early.NumInsertions, 1u); // same capacity, earlier placement
}

TEST(McSsaPre, HugeFrequenciesSaturateInsteadOfAliasingInfinity) {
  Function F = criticalEdgeFunction();
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  std::vector<ExprKey> Exprs = collectCandidateExprs(F);
  ASSERT_EQ(Exprs.size(), 1u);

  Profile Huge;
  Huge.BlockFreq = {uint64_t(1) << 62, (uint64_t(1) << 62) - 1, 1,
                    uint64_t(1) << 62};

  Frg G(F, C, DT, Exprs[0]);
  EfgStats S = computeSpeculativePlacement(G, Huge);
  ASSERT_FALSE(S.Empty);
  EXPECT_TRUE(S.Saturated);
  EXPECT_LT(S.CutWeight, InfiniteCapacity);
  EXPECT_EQ(S.CutWeight, MaxFiniteCapacity);
}

//===----------------------------------------------------------------------===//
// Reuse of the per-thread EFG build
//===----------------------------------------------------------------------===//

namespace {

/// A program in SSA form with the analyses its FRGs borrow, the profile
/// its candidates are placed under, and its non-faulting candidates.
struct PlacedProgram {
  Function F;
  Profile Prof;
  Cfg C;
  DomTree DT;
  std::vector<ExprKey> Exprs;

  PlacedProgram(Function SsaF, Profile P)
      : F(std::move(SsaF)), Prof(std::move(P)), C(F),
        DT(DomTree::buildDominators(C)) {
    for (const ExprKey &E : collectCandidateExprs(F))
      if (!E.canFault())
        Exprs.push_back(E);
  }
};

/// What one placement leaves behind: its statistics (or the status it
/// threw) and the WillBeAvail/Insert flags of every Φ of the FRG.
struct Placement {
  std::optional<EfgStats> Stats;
  std::string Error;
  std::vector<bool> Flags;
};

auto statsFields(const EfgStats &S) {
  return std::make_tuple(S.Empty, S.NumNodes, S.NumEdges, S.CutWeight,
                         S.NumCutEdges, S.NumInsertions, S.NumComputeInPlace,
                         S.SprWeight, S.InsertedWeight, S.InPlaceWeight,
                         S.Saturated, S.TdWidth, S.TdBags, S.DpEntries);
}

/// Places candidate \p E of \p P on a fresh FRG, through the max-flow
/// leg or, with \p Lospre, the treewidth leg. Each leg refills its own
/// per-thread EfgBuild.
Placement place(const PlacedProgram &P, const ExprKey &E, bool Lospre) {
  Frg G(P.F, P.C, P.DT, E);
  Placement Out;
  try {
    Out.Stats = Lospre ? computeLosprePlacement(G, P.Prof,
                                                CutObjective::speed(), 8)
                       : computeSpeculativePlacement(G, P.Prof);
  } catch (const StatusException &Ex) {
    Out.Error = Ex.what();
  }
  for (const PhiOcc &Phi : G.phis()) {
    Out.Flags.push_back(Phi.WillBeAvail);
    for (const PhiOperand &Op : Phi.Operands)
      Out.Flags.push_back(Op.Insert);
  }
  return Out;
}

} // namespace

TEST(McSsaPre, ReusedEfgBuildPlacesLikeAFreshOne) {
  // The placement legs refill one EfgBuild per thread. Placing every
  // candidate twice on this thread, forward and then in reverse, so that
  // each network follows both larger and smaller ones, must give what a
  // fresh build gives: a field the refill or FlowNetwork::clear() forgets
  // leaks the previous candidate's network into the next placement.
  std::vector<std::unique_ptr<PlacedProgram>> Programs;
  std::vector<BenchmarkSpec> Suite = fullCpu2006Suite();
  for (size_t I = 0; I < Suite.size(); I += 4) {
    Function F = Suite[I].buildProgram();
    prepareFunction(F);
    Profile Prof;
    ExecOptions EO;
    EO.CollectProfile = &Prof;
    interpret(F, Suite[I].TrainArgs, EO);
    constructSsa(F);
    Programs.push_back(
        std::make_unique<PlacedProgram>(std::move(F), Prof.withoutEdgeFreqs()));
  }
  // Frequencies so large that every finite weight saturates: the build's
  // Saturated flag must not outlive this candidate.
  Profile Huge;
  Huge.BlockFreq = {uint64_t(1) << 62, (uint64_t(1) << 62) - 1, 1,
                    uint64_t(1) << 62};
  Programs.insert(Programs.begin() + 2, std::make_unique<PlacedProgram>(
                                            criticalEdgeFunction(), Huge));

  std::vector<std::pair<const PlacedProgram *, const ExprKey *>> Candidates;
  for (const auto &P : Programs)
    for (const ExprKey &E : P->Exprs)
      Candidates.emplace_back(P.get(), &E);

  for (bool Lospre : {false, true}) {
    // The reference: each candidate on a new thread, whose thread-local
    // build has never been filled.
    std::vector<Placement> Fresh(Candidates.size());
    unsigned NonEmpty = 0, Saturated = 0;
    for (size_t I = 0; I != Candidates.size(); ++I) {
      std::thread T([&] {
        Fresh[I] = place(*Candidates[I].first, *Candidates[I].second, Lospre);
      });
      T.join();
      NonEmpty += Fresh[I].Stats && !Fresh[I].Stats->Empty;
      Saturated += Fresh[I].Stats && Fresh[I].Stats->Saturated;
    }
    EXPECT_GT(NonEmpty, 20u);
    EXPECT_EQ(Saturated, 1u);

    auto Check = [&](size_t I, const char *Order) {
      Placement Got = place(*Candidates[I].first, *Candidates[I].second,
                            Lospre);
      std::string What = std::string(Lospre ? "lospre" : "mcssapre") + " " +
                         Order + " candidate " + std::to_string(I);
      ASSERT_EQ(Got.Stats.has_value(), Fresh[I].Stats.has_value()) << What;
      if (Got.Stats) {
        EXPECT_EQ(statsFields(*Got.Stats), statsFields(*Fresh[I].Stats))
            << What;
      }
      EXPECT_EQ(Got.Error, Fresh[I].Error) << What;
      EXPECT_EQ(Got.Flags, Fresh[I].Flags) << What;
    };
    for (size_t I = 0; I != Candidates.size(); ++I)
      Check(I, "forward");
    for (size_t I = Candidates.size(); I-- != 0;)
      Check(I, "reverse");
  }
}
