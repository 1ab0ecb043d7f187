//===- mincut/MaxFlow.h - Max-flow algorithms ------------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Max-flow solvers: Dinic's algorithm (level graph + blocking flow),
/// the solver every default path runs, and Edmonds-Karp (BFS augmenting
/// paths), a reference simple enough to audit by eye. The equivalence
/// tests and fuzz oracles check Dinic against it cut edge for cut edge.
/// The paper uses an O(V^2 sqrt(E)) algorithm and, citing Chekuri et
/// al.'s experimental study, treats the choice of min-cut algorithm as
/// immaterial at EFG sizes; the mincut_algorithms bench times both
/// solvers, next to leg D's treewidth DP, on EFG-shaped and stress
/// inputs.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_MINCUT_MAXFLOW_H
#define SPECPRE_MINCUT_MAXFLOW_H

#include "mincut/FlowNetwork.h"

#include <string>

namespace specpre {

/// The numeric values enter the compile-cache key (pre/CachedCompile.cpp)
/// and must never be renumbered.
enum class MaxFlowAlgorithm { EdmondsKarp = 0, Dinic = 1 };

/// Stable machine-readable name ("edmonds-karp", "dinic"), used by tool
/// flags, the serve protocol and the bench JSON.
const char *maxFlowAlgorithmName(MaxFlowAlgorithm Algo);

/// Inverse of maxFlowAlgorithmName (also accepts "ek"). Returns false on
/// an unknown name.
bool parseMaxFlowAlgorithm(const std::string &Name, MaxFlowAlgorithm &Out);

/// All implemented algorithms, reference first, for test/fuzz matrices.
constexpr MaxFlowAlgorithm AllMaxFlowAlgorithms[] = {
    MaxFlowAlgorithm::EdmondsKarp, MaxFlowAlgorithm::Dinic};

/// Runs the chosen max-flow algorithm from \p Source to \p Sink, leaving
/// the flow in the network's residual capacities. Freezes the network
/// into its CSR layout first if needed. Returns the max-flow value.
///
/// Both algorithms leave a maximum flow in the residual network, so
/// min-cut extraction by residual reachability is valid after either —
/// and since the source-reachable and sink-co-reachable sets are the
/// same for every maximum flow, the extracted cuts are identical edge
/// for edge across algorithms.
int64_t computeMaxFlow(FlowNetwork &Net, int Source, int Sink,
                       MaxFlowAlgorithm Algo = MaxFlowAlgorithm::Dinic);

} // namespace specpre

#endif // SPECPRE_MINCUT_MAXFLOW_H
