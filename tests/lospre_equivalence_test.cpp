//===- tests/lospre_equivalence_test.cpp - Leg D cross-leg optimality -----------===//
//
// The proof obligation behind PreStrategy::Lospre (leg D): on every CFG
// it accepts, the linear-time treewidth dynamic program must place
// computations exactly as cheaply as MC-SSAPRE's max-flow min-cut — and
// on every CFG it refuses, the refusal must be the documented
// ResourceLimit bailout whose ladder result is bit-identical to running
// MC-SSAPRE directly. Four layers, each independently diagnosable:
//
//  1. the tree-decomposition builder itself (widths of known graphs,
//     the axioms, the width-cap refusal),
//  2. the treewidth min-cut solver against brute-force enumeration and
//     the max-flow solvers on fuzzed adversarial networks,
//  3. a differential matrix of generated structured programs — leg D
//     versus leg C, expression by expression, cost and dynamic-count
//     equal (cut *partitions* may differ: ties are real, see
//     tests/corpus/treewidth-dp-charge.ir),
//  4. the bailout contract on irreducible and over-wide inputs.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "analysis/TreeDecomposition.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "mincut/MinCut.h"
#include "mincut/TreewidthCut.h"
#include "pre/PreDriver.h"
#include "profile/Profile.h"
#include "workload/FuzzOracles.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace specpre;

//===----------------------------------------------------------------------===//
// 1. Tree decompositions
//===----------------------------------------------------------------------===//

namespace {

TdGraph pathGraph(unsigned N) {
  TdGraph G;
  G.NumVertices = N;
  for (unsigned V = 0; V + 1 < N; ++V)
    G.Edges.push_back({V, V + 1});
  return G;
}

TdGraph cycleGraph(unsigned N) {
  TdGraph G = pathGraph(N);
  G.Edges.push_back({N - 1, 0});
  return G;
}

TdGraph cliqueGraph(unsigned N) {
  TdGraph G;
  G.NumVertices = N;
  for (unsigned U = 0; U != N; ++U)
    for (unsigned V = U + 1; V != N; ++V)
      G.Edges.push_back({U, V});
  return G;
}

TdGraph gridGraph(unsigned W, unsigned H) {
  TdGraph G;
  G.NumVertices = W * H;
  for (unsigned J = 0; J != H; ++J)
    for (unsigned I = 0; I != W; ++I) {
      if (I + 1 != W)
        G.Edges.push_back({J * W + I, J * W + I + 1});
      if (J + 1 != H)
        G.Edges.push_back({J * W + I, (J + 1) * W + I});
    }
  return G;
}

void expectValid(const TdGraph &G, const TreeDecomposition &TD) {
  std::string Error;
  EXPECT_TRUE(verifyTreeDecomposition(G, TD, Error)) << Error;
}

} // namespace

TEST(TreeDecomposition, PathHasWidthOne) {
  TdGraph G = pathGraph(12);
  Expected<TreeDecomposition> TD = buildTreeDecomposition(G, 8);
  ASSERT_TRUE(TD.hasValue());
  EXPECT_EQ(TD->Width, 1u);
  expectValid(G, *TD);
}

TEST(TreeDecomposition, CycleHasWidthTwo) {
  TdGraph G = cycleGraph(9);
  Expected<TreeDecomposition> TD = buildTreeDecomposition(G, 8);
  ASSERT_TRUE(TD.hasValue());
  EXPECT_EQ(TD->Width, 2u);
  expectValid(G, *TD);
}

TEST(TreeDecomposition, CliqueWidthIsSizeMinusOne) {
  TdGraph G = cliqueGraph(5);
  Expected<TreeDecomposition> TD = buildTreeDecomposition(G, 8);
  ASSERT_TRUE(TD.hasValue());
  EXPECT_EQ(TD->Width, 4u); // treewidth(K_n) = n - 1, and min-degree is exact
  expectValid(G, *TD);
}

TEST(TreeDecomposition, GridWidthMatchesTheShortSide) {
  // treewidth(W x H grid) = min(W, H); min-degree stays within a small
  // constant of it on grids, and the leg D generator family relies on
  // exactly this shape (workload/ProgramGenerator.h MaxWidth).
  TdGraph G = gridGraph(3, 7);
  Expected<TreeDecomposition> TD = buildTreeDecomposition(G, 8);
  ASSERT_TRUE(TD.hasValue());
  EXPECT_GE(TD->Width, 3u);
  EXPECT_LE(TD->Width, 4u);
  expectValid(G, *TD);
}

TEST(TreeDecomposition, EmptyAndEdgelessGraphs) {
  TdGraph Empty;
  Expected<TreeDecomposition> TD = buildTreeDecomposition(Empty, 0);
  ASSERT_TRUE(TD.hasValue());
  EXPECT_EQ(TD->Width, 0u);
  EXPECT_TRUE(TD->Bags.empty());

  TdGraph Isolated;
  Isolated.NumVertices = 4;
  TD = buildTreeDecomposition(Isolated, 0);
  ASSERT_TRUE(TD.hasValue());
  EXPECT_EQ(TD->Width, 0u);
  EXPECT_EQ(TD->Bags.size(), 4u);
  expectValid(Isolated, *TD);
}

TEST(TreeDecomposition, WidthCapRefusesWithResourceLimit) {
  // K6 has treewidth 5; any cap below that must refuse recoverably —
  // this status is precisely what leg D's degradation bailout keys on.
  TdGraph G = cliqueGraph(6);
  Expected<TreeDecomposition> TD = buildTreeDecomposition(G, 4);
  ASSERT_FALSE(TD.hasValue());
  EXPECT_EQ(TD.status().code(), ErrorCode::ResourceLimit);
  ASSERT_TRUE(buildTreeDecomposition(G, 5).hasValue()); // exact cap fits
}

TEST(TreeDecomposition, HomeBagInvariants) {
  TdGraph G = gridGraph(3, 3);
  Expected<TreeDecomposition> TD = buildTreeDecomposition(G, 8);
  ASSERT_TRUE(TD.hasValue());
  ASSERT_EQ(TD->HomeBag.size(), G.NumVertices);
  ASSERT_EQ(TD->ElimPos.size(), G.NumVertices);
  for (unsigned V = 0; V != G.NumVertices; ++V) {
    EXPECT_EQ(TD->HomeBag[V], TD->ElimPos[V]);
    const TdBag &Bag = TD->Bags[TD->HomeBag[V]];
    EXPECT_TRUE(std::find(Bag.Vertices.begin(), Bag.Vertices.end(), V) !=
                Bag.Vertices.end());
    // Child-before-parent schedule: parents always have larger indices.
    if (Bag.Parent != -1) {
      EXPECT_GT(Bag.Parent, static_cast<int>(TD->HomeBag[V]));
    }
  }
}

//===----------------------------------------------------------------------===//
// 2. Treewidth min-cut vs brute force and max flow
//===----------------------------------------------------------------------===//

TEST(TreewidthCut, AgreesWithBruteForceOnFuzzedNetworks) {
  // The same adversarial family the fuzzer's network mode uses: zero
  // capacities, MaxFiniteCapacity, infinite inner/sink edges. The DP's
  // capacity must equal the enumerated optimum, and its partition must
  // be a structurally valid cut, on every single case.
  for (uint64_t Case = 0; Case != 300; ++Case) {
    NetworkCase C = fuzzNetworkCase(7, Case);
    Expected<int64_t> Truth =
        bruteForceMinCutCapacity(C.Net, C.Source, C.Sink);
    ASSERT_TRUE(Truth.hasValue()) << "case " << Case;
    Expected<MinCutResult> Tw =
        computeTreewidthMinCut(C.Net, C.Source, C.Sink, 16);
    ASSERT_TRUE(Tw.hasValue()) << "case " << Case << ": "
                               << Tw.status().message();
    EXPECT_EQ(Tw->Capacity, *Truth) << "case " << Case;
    std::string Error;
    EXPECT_TRUE(verifyMinCut(C.Net, C.Source, C.Sink, *Tw, Error))
        << "case " << Case << ": " << Error;
  }
}

TEST(TreewidthCut, AgreesWithMaxFlowOnFuzzedNetworks) {
  for (uint64_t Case = 300; Case != 400; ++Case) {
    NetworkCase C = fuzzNetworkCase(7, Case);
    Expected<MinCutResult> Tw =
        computeTreewidthMinCut(C.Net, C.Source, C.Sink, 16);
    ASSERT_TRUE(Tw.hasValue()) << "case " << Case;
    C.Net.resetFlow();
    MinCutResult Flow = computeMinCut(C.Net, C.Source, C.Sink);
    EXPECT_EQ(Tw->Capacity, Flow.Capacity) << "case " << Case;
  }
}

TEST(TreewidthCut, RefusesMaskBudgetAboveTwentyFour) {
  NetworkCase C = fuzzNetworkCase(7, 0);
  Expected<MinCutResult> Tw =
      computeTreewidthMinCut(C.Net, C.Source, C.Sink, 25);
  ASSERT_FALSE(Tw.hasValue());
  EXPECT_EQ(Tw.status().code(), ErrorCode::ResourceLimit);
}

TEST(TreewidthCut, RefusesWhenTheCoreExceedsTheWidthCap) {
  // A K6 core between source and sink: treewidth 5, cap 3 -> bailout.
  FlowNetwork Net;
  int S = Net.addNode(), T = Net.addNode();
  std::vector<int> Core;
  for (int I = 0; I != 6; ++I)
    Core.push_back(Net.addNode());
  for (int U : Core)
    for (int V : Core)
      if (U != V)
        Net.addEdge(U, V, 5, -1);
  Net.addEdge(S, Core.front(), 3, -1);
  Net.addEdge(Core.back(), T, 3, -1);
  Expected<MinCutResult> Tw = computeTreewidthMinCut(Net, S, T, 3);
  ASSERT_FALSE(Tw.hasValue());
  EXPECT_EQ(Tw.status().code(), ErrorCode::ResourceLimit);
  Expected<MinCutResult> Ok = computeTreewidthMinCut(Net, S, T, 6);
  ASSERT_TRUE(Ok.hasValue());
  EXPECT_EQ(Ok->Capacity, 3); // the single source edge
}

//===----------------------------------------------------------------------===//
// 3. The differential matrix: leg D vs leg C on generated programs
//===----------------------------------------------------------------------===//

namespace {

/// One generated program, both legs, every cross-leg identity. Returns
/// true when leg D genuinely solved (no bailout), false on a (legal)
/// bailout; failures are reported through gtest.
bool runDifferentialCase(unsigned Width, uint64_t Seed) {
  GeneratorConfig Cfg0;
  Cfg0.MaxWidth = Width;
  Cfg0.GridChance = 400;
  // Shallower nesting than the defaults: a depth-3 region tree studded
  // with width-5 grids produces functions of many hundreds of blocks,
  // which shifts this test's time into the O(blocks^2) verifier oracle
  // without sharpening the cross-leg comparison at all.
  Cfg0.MaxDepth = 2;
  Cfg0.RegionsPerLevel = 2;
  Function F = generateProgram(Seed * 131 + Width, Cfg0);
  prepareFunction(F);

  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  std::vector<int64_t> Args(F.Params.size(),
                            static_cast<int64_t>(Seed * 37 + 5));
  ExecResult Train = interpret(F, Args, EO);
  if (Train.TimedOut || Train.Trapped)
    return false; // no usable profile; nothing to differentiate
  Profile NodeOnly = Prof.withoutEdgeFreqs();

  PreStats McStats;
  PreOptions McOpts;
  McOpts.Strategy = PreStrategy::McSsaPre;
  McOpts.Prof = &NodeOnly;
  McOpts.Stats = &McStats;
  Function McOpt = compileWithPre(F, McOpts);

  PreStats LoStats;
  CompileOutcomeRecord Outcome;
  PreOptions LoOpts;
  LoOpts.Strategy = PreStrategy::Lospre;
  LoOpts.Prof = &NodeOnly;
  LoOpts.Stats = &LoStats;
  Function LoOpt = compileWithFallback(F, LoOpts, &Outcome);

  if (Outcome.degraded()) {
    // Bailout, never wrong: the only legal cause is ResourceLimit, the
    // landing rung is MC-SSAPRE, and its output is bit-identical to
    // compiling with MC-SSAPRE directly.
    EXPECT_EQ(Outcome.Cause, "resource-limit")
        << "width " << Width << " seed " << Seed << ": " << Outcome.Message;
    EXPECT_EQ(Outcome.Used, "MC-SSAPRE")
        << "width " << Width << " seed " << Seed;
    EXPECT_EQ(printFunction(LoOpt), printFunction(McOpt))
        << "width " << Width << " seed " << Seed;
    return false;
  }

  // Solved: dynamic counts tie exactly on the training input...
  EXPECT_EQ(interpret(LoOpt, Args).DynamicComputations,
            interpret(McOpt, Args).DynamicComputations)
      << "width " << Width << " seed " << Seed;
  // ...because the per-expression costs tie exactly. Partitions (and
  // hence the optimized IR) may differ on ties, so costs are what the
  // equivalence pins.
  const std::vector<ExprStatsRecord> &Lo = LoStats.records();
  const std::vector<ExprStatsRecord> &Mc = McStats.records();
  EXPECT_EQ(Lo.size(), Mc.size()) << "width " << Width << " seed " << Seed;
  for (size_t I = 0; I != Lo.size() && I != Mc.size(); ++I) {
    EXPECT_EQ(Lo[I].Expr, Mc[I].Expr) << "record " << I;
    EXPECT_EQ(Lo[I].EfgNodes, Mc[I].EfgNodes)
        << "expr " << Lo[I].Expr << " width " << Width << " seed " << Seed;
    EXPECT_EQ(Lo[I].EfgEdges, Mc[I].EfgEdges)
        << "expr " << Lo[I].Expr << " width " << Width << " seed " << Seed;
    EXPECT_EQ(Lo[I].CutWeight, Mc[I].CutWeight)
        << "expr " << Lo[I].Expr << " width " << Width << " seed " << Seed;
    EXPECT_EQ(Lo[I].SprWeight, Mc[I].SprWeight)
        << "expr " << Lo[I].Expr << " width " << Width << " seed " << Seed;
  }
  return true;
}

} // namespace

TEST(LospreEquivalence, MatchesMcSsaPreAcrossTheGeneratedMatrix) {
  // >= 200 structured programs spanning the legacy shapes (width 0, no
  // grids) and the bounded-treewidth grid family at widths 2-5.
  unsigned Total = 0, Solved = 0;
  for (unsigned Width : {0u, 2u, 3u, 4u, 5u}) {
    for (uint64_t Seed = 1; Seed <= 48; ++Seed) {
      ++Total;
      Solved += runDifferentialCase(Width, Seed);
      if (::testing::Test::HasFailure())
        return; // first divergence is the diagnosis; stop the flood
    }
  }
  EXPECT_EQ(Total, 240u);
  // The default width budget (8) comfortably covers this family: leg D
  // must genuinely solve nearly everything, or the "linear-time lospre"
  // claim is vacuously delegating to max flow.
  EXPECT_GE(Solved, 220u) << "of " << Total;
}

//===----------------------------------------------------------------------===//
// 4. The bailout contract
//===----------------------------------------------------------------------===//

namespace {

/// The textbook irreducible shape: a two-entry loop {b, c} reachable
/// from the entry branch on both sides, so neither b nor c dominates
/// the other.
const char *IrreducibleText = R"(
  func irr(a, b2, p) {
  entry:
    br p, left, right
  left:
    x = a + b2
    print x
    jmp c
  right:
    y = a + b2
    print y
    jmp b
  b:
    a = a + 1
    br a, c, out
  c:
    a = a - 1
    br a, b, out
  out:
    z = a + b2
    ret z
  }
)";

} // namespace

TEST(LospreBailout, IrreducibleCfgDegradesToDirectMcSsaPre) {
  Function F = parseFunctionOrDie(IrreducibleText);
  // Deliberately NOT prepareFunction: preparation cannot make this
  // reducible, but keeping the block set as written makes the shape
  // auditable. Collect a profile by running it.
  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  ExecResult R = interpret(F, {3, 4, 1}, EO);
  ASSERT_FALSE(R.Trapped);
  Profile NodeOnly = Prof.withoutEdgeFreqs();

  {
    Cfg C(F);
    DomTree DT = DomTree::buildDominators(C);
    ASSERT_FALSE(isReducibleCfg(C, DT)) << "test premise: irreducible";
  }

  CompileOutcomeRecord Outcome;
  PreOptions LoOpts;
  LoOpts.Strategy = PreStrategy::Lospre;
  LoOpts.Prof = &NodeOnly;
  Function LoOpt = compileWithFallback(F, LoOpts, &Outcome);
  ASSERT_TRUE(Outcome.degraded());
  EXPECT_EQ(Outcome.Requested, "LOSPRE");
  EXPECT_EQ(Outcome.Used, "MC-SSAPRE");
  EXPECT_EQ(Outcome.Retries, 1u);
  EXPECT_EQ(Outcome.Cause, "resource-limit");

  PreOptions McOpts;
  McOpts.Strategy = PreStrategy::McSsaPre;
  McOpts.Prof = &NodeOnly;
  EXPECT_EQ(printFunction(LoOpt), printFunction(compileWithPre(F, McOpts)));
}

TEST(LospreBailout, WidthBudgetZeroDegradesToDirectMcSsaPre) {
  // With a width budget of 0, any EFG whose core has a single edge is
  // over budget, so a program with genuine partial redundancy must bail
  // out — and still match direct MC-SSAPRE bit for bit.
  GeneratorConfig Cfg0;
  Cfg0.MaxWidth = 3;
  Cfg0.GridChance = 600;
  Function F = generateProgram(11, Cfg0);
  prepareFunction(F);
  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  ExecResult R = interpret(F, std::vector<int64_t>(F.Params.size(), 9), EO);
  ASSERT_FALSE(R.Trapped);
  Profile NodeOnly = Prof.withoutEdgeFreqs();

  CompileOutcomeRecord Outcome;
  PreOptions LoOpts;
  LoOpts.Strategy = PreStrategy::Lospre;
  LoOpts.Prof = &NodeOnly;
  LoOpts.LospreMaxWidth = 0;
  Function LoOpt = compileWithFallback(F, LoOpts, &Outcome);
  ASSERT_TRUE(Outcome.degraded());
  EXPECT_EQ(Outcome.Cause, "resource-limit");
  EXPECT_EQ(Outcome.Used, "MC-SSAPRE");

  PreOptions McOpts;
  McOpts.Strategy = PreStrategy::McSsaPre;
  McOpts.Prof = &NodeOnly;
  EXPECT_EQ(printFunction(LoOpt), printFunction(compileWithPre(F, McOpts)));
}

TEST(LospreBailout, GenerousWidthBudgetSolvesTheGridFamily) {
  // The converse: the family the generator emits at MaxWidth <= 5 fits
  // the default budget, and leg D records its decomposition telemetry.
  GeneratorConfig Cfg0;
  Cfg0.MaxWidth = 4;
  Cfg0.GridChance = 600;
  Function F = generateProgram(3, Cfg0);
  prepareFunction(F);
  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  ASSERT_FALSE(
      interpret(F, std::vector<int64_t>(F.Params.size(), 7), EO).Trapped);
  Profile NodeOnly = Prof.withoutEdgeFreqs();

  PreStats Stats;
  CompileOutcomeRecord Outcome;
  PreOptions LoOpts;
  LoOpts.Strategy = PreStrategy::Lospre;
  LoOpts.Prof = &NodeOnly;
  LoOpts.Stats = &Stats;
  compileWithFallback(F, LoOpts, &Outcome);
  ASSERT_FALSE(Outcome.degraded()) << Outcome.Message;
  bool SawDp = false;
  for (const ExprStatsRecord &Rec : Stats.records())
    if (!Rec.EfgEmpty && Rec.Speculated) {
      EXPECT_GT(Rec.LospreDpEntries, 0u) << Rec.Expr;
      SawDp = true;
    }
  EXPECT_TRUE(SawDp) << "premise: the program has partial redundancy";
}
