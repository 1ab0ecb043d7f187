//===- tests/maxflow_equivalence_test.cpp - Cross-solver equivalence -----------===//
//
// Property tests asserting that Dinic, the production max-flow solver,
// is interchangeable with Edmonds-Karp, the reference: equal flow values,
// verifyMinCut-valid cuts, and — because the earliest/latest residual
// cuts are properties of the residual graph, which every maximum flow
// shares — identical cut edge lists. Exercised on three network
// families: EFGs built from the checked-in corpus, EFGs of randomized
// generated programs under real training profiles, and hand-built
// adversarial shapes (long chains, stars, saturated capacities,
// zero-capacity edges).
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "mincut/MinCut.h"
#include "pre/ExprKey.h"
#include "pre/Frg.h"
#include "pre/McSsaPre.h"
#include "ssa/SsaConstruction.h"
#include "workload/FuzzOracles.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#ifndef SPECPRE_CORPUS_DIR
#error "SPECPRE_CORPUS_DIR must point at tests/corpus"
#endif

using namespace specpre;

namespace {

/// The core property: every algorithm, under both placements, must
/// produce the same capacity and the same cut edge list, and every cut
/// must pass structural verification.
void expectSolversAgree(FlowNetwork &Net, int Source, int Sink,
                        const std::string &What) {
  for (CutPlacement P : {CutPlacement::Earliest, CutPlacement::Latest}) {
    const char *PName = P == CutPlacement::Earliest ? "earliest" : "latest";
    std::optional<MinCutResult> Ref;
    for (MaxFlowAlgorithm A : AllMaxFlowAlgorithms) {
      Net.resetFlow();
      MinCutResult Cut = computeMinCut(Net, Source, Sink, P, A);
      std::string Context = What + ": " + maxFlowAlgorithmName(A) + "/" +
                            PName;
      std::string Error;
      ASSERT_TRUE(verifyMinCut(Net, Source, Sink, Cut, Error))
          << Context << ": " << Error;
      if (!Ref) {
        Ref = Cut;
        continue;
      }
      EXPECT_EQ(Cut.Capacity, Ref->Capacity) << Context;
      EXPECT_EQ(Cut.CutEdgeIds, Ref->CutEdgeIds) << Context;
    }
  }
}

/// Builds the EFG network of every non-faulting candidate of \p F under
/// \p Prof and runs the agreement property on each. Returns how many
/// non-empty networks were exercised.
unsigned checkEfgNetworks(const Function &F, const Profile &Prof,
                          const std::string &What) {
  Function Ssa = F;
  if (!Ssa.IsSSA)
    constructSsa(Ssa);
  Cfg C(Ssa);
  DomTree DT = DomTree::buildDominators(C);
  unsigned Exercised = 0;
  for (const ExprKey &E : collectCandidateExprs(Ssa)) {
    if (E.canFault())
      continue;
    Frg G(Ssa, C, DT, E);
    if (G.reals().empty())
      continue;
    EfgBuild B;
    buildEfgNetwork(G, Prof, CutObjective::speed(), B);
    if (B.Empty)
      continue;
    ++Exercised;
    expectSolversAgree(B.Net, B.Source, B.Sink,
                       What + " expr '" + E.toString(Ssa) + "'");
  }
  return Exercised;
}

std::optional<std::string> slurp(const std::filesystem::path &P) {
  std::ifstream In(P);
  if (!In)
    return std::nullopt;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(MaxFlowEquivalence, CorpusEfgNetworks) {
  // Every corpus program that ships a stored profile yields EFG networks
  // shaped by real reproducers (capacity overflow, critical edges, ...).
  unsigned Exercised = 0;
  for (const std::filesystem::directory_entry &Entry :
       std::filesystem::directory_iterator(SPECPRE_CORPUS_DIR)) {
    if (Entry.path().extension() != ".prof")
      continue;
    std::filesystem::path IrPath = Entry.path();
    IrPath.replace_extension(".ir");
    std::optional<std::string> IrText = slurp(IrPath);
    std::optional<std::string> ProfText = slurp(Entry.path());
    ASSERT_TRUE(IrText && ProfText) << IrPath;
    std::string Error;
    std::optional<Module> M = parseModule(*IrText, Error);
    ASSERT_TRUE(M && !M->Functions.empty()) << IrPath << ": " << Error;
    Profile Prof;
    ASSERT_TRUE(parseProfile(*ProfText, Prof, Error))
        << Entry.path() << ": " << Error;
    Exercised += checkEfgNetworks(M->Functions.front(), Prof,
                                  IrPath.filename().string());
  }
  EXPECT_GT(Exercised, 0u) << "corpus produced no EFG networks";
}

TEST(MaxFlowEquivalence, GeneratedProgramEfgNetworks) {
  // Randomized programs under genuine training profiles: the networks
  // MC-SSAPRE actually solves, across many shapes.
  unsigned Exercised = 0;
  for (uint64_t Case = 0; Case != 40; ++Case) {
    Function F = fuzzProgram(/*Seed=*/11, Case);
    std::vector<int64_t> Args = fuzzTrainArgs(F, 11, Case);
    Profile Prof;
    ExecOptions EO;
    EO.CollectProfile = &Prof;
    ExecResult Train = interpret(F, Args, EO);
    if (Train.Trapped || Train.TimedOut)
      continue;
    Exercised += checkEfgNetworks(F, Prof,
                                  "generated case " + std::to_string(Case));
  }
  EXPECT_GT(Exercised, 10u) << "generator produced too few EFG networks";
}

TEST(MaxFlowEquivalence, RandomNetworkMatrixAgainstBruteForce) {
  // The full oracle (all solvers x both placements x brute-force
  // capacity x cut identity) over the fuzzer's own network generator.
  for (uint64_t Case = 0; Case != 250; ++Case) {
    std::optional<OracleFailure> F = checkRandomNetworkCase(/*Seed=*/3, Case);
    ASSERT_FALSE(F) << "network case " << Case << ": oracle '" << F->Oracle
                    << "': " << F->Message;
  }
}

TEST(MaxFlowEquivalence, LongChain) {
  // A deep chain is the adversarial shape for phase-based solvers: the
  // augmenting path length equals the chain depth. The unique bottleneck
  // sits mid-chain.
  FlowNetwork Net;
  int S = Net.addNode(), T = Net.addNode();
  const int Depth = 300;
  int Prev = S;
  for (int I = 0; I != Depth; ++I) {
    int N = Net.addNode();
    Net.addEdge(Prev, N, I == Depth / 2 ? 3 : 10, -1);
    Prev = N;
  }
  Net.addEdge(Prev, T, 10, -1);
  expectSolversAgree(Net, S, T, "long chain");
  Net.resetFlow();
  MinCutResult Cut = computeMinCut(Net, S, T, CutPlacement::Earliest,
                                   MaxFlowAlgorithm::Dinic);
  EXPECT_EQ(Cut.Capacity, 3);
  ASSERT_EQ(Cut.CutEdgeIds.size(), 1u);
}

TEST(MaxFlowEquivalence, StarWithMixedCapacities) {
  // A hub fanning out to many spokes, mixing ordinary, saturated
  // (MaxFiniteCapacity), zero and infinite capacities.
  FlowNetwork Net;
  int S = Net.addNode(), T = Net.addNode();
  int Hub = Net.addNode();
  Net.addEdge(S, Hub, MaxFiniteCapacity, -1);
  int64_t ExpectFlow = 0;
  for (int I = 0; I != 40; ++I) {
    int Spoke = Net.addNode();
    int64_t HubCap = I % 4 == 0 ? 0 : (I % 7 == 0 ? MaxFiniteCapacity : I);
    int64_t OutCap = I % 7 == 0 ? 5 : InfiniteCapacity;
    Net.addEdge(Hub, Spoke, HubCap, -1);
    Net.addEdge(Spoke, T, OutCap, -1);
    ExpectFlow += std::min(HubCap, OutCap);
  }
  expectSolversAgree(Net, S, T, "star");
  Net.resetFlow();
  MinCutResult Cut = computeMinCut(Net, S, T, CutPlacement::Latest,
                                   MaxFlowAlgorithm::Dinic);
  EXPECT_EQ(Cut.Capacity, ExpectFlow);
}

TEST(MaxFlowEquivalence, SaturatedParallelPathsStayFinite) {
  // Several MaxFiniteCapacity edges in parallel: capacities near the
  // finite ceiling must accumulate without tipping into the infinite
  // band or overflowing.
  FlowNetwork Net;
  int S = Net.addNode(), T = Net.addNode();
  for (int I = 0; I != 4; ++I) {
    int Mid = Net.addNode();
    Net.addEdge(S, Mid, MaxFiniteCapacity, -1);
    Net.addEdge(Mid, T, MaxFiniteCapacity, -1);
  }
  expectSolversAgree(Net, S, T, "saturated parallel paths");
  Net.resetFlow();
  MinCutResult Cut = computeMinCut(Net, S, T, CutPlacement::Earliest,
                                   MaxFlowAlgorithm::Dinic);
  EXPECT_EQ(Cut.Capacity, 4 * MaxFiniteCapacity);
  EXPECT_LT(Cut.Capacity, InfiniteCapacity);
}

TEST(MaxFlowEquivalence, ZeroCapacityEdgesAreInert) {
  // Zero-capacity edges (zero-frequency profile edges) exist in the
  // network but carry nothing; solvers must neither push through them
  // nor report them as cut members with weight.
  FlowNetwork Net;
  int S = Net.addNode(), T = Net.addNode();
  int A = Net.addNode(), B = Net.addNode();
  Net.addEdge(S, A, 7, -1);
  Net.addEdge(A, B, 0, -1);  // dead path
  Net.addEdge(B, T, 9, -1);
  Net.addEdge(A, T, 5, -1);  // the only live route
  Net.addEdge(S, B, 0, -1);  // dead source edge
  expectSolversAgree(Net, S, T, "zero-capacity edges");
  Net.resetFlow();
  MinCutResult Cut = computeMinCut(Net, S, T, CutPlacement::Earliest,
                                   MaxFlowAlgorithm::Dinic);
  EXPECT_EQ(Cut.Capacity, 5);
}

} // namespace
