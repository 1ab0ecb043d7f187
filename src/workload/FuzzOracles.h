//===- workload/FuzzOracles.h - Differential fuzzing oracles ---*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracle stack behind the `specpre-fuzz` tool and the corpus replay
/// test. A fuzz case is a deterministically generated program (or a
/// reproducer read back from tests/corpus/); the oracles check, per case:
///
///  * IR verification after every transforming pass (non-fatal: the
///    VerifyFailed error is reported as the case's failure),
///  * semantic equivalence of every strategy's output against the
///    unoptimized program under the interpreter (training input plus
///    variant inputs),
///  * flow conservation of the collected profile,
///  * cut-weight-vs-dynamic-count reconciliation: the min-cut capacity
///    and the profile-weighted reload/insert statistics must satisfy the
///    identities documented on ExprStatsRecord,
///  * the optimality ordering on the training input:
///      dyn(MC-SSAPRE) <= dyn(SSAPREsp) <= dyn(SSAPRE) == dyn(LCM)
///    and dyn(MC-SSAPRE) == dyn(MC-PRE) when no candidate can fault,
///  * node-vs-edge-profile equivalence of MC-SSAPRE (Section 4: node
///    profiles suffice once critical edges are split).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_WORKLOAD_FUZZORACLES_H
#define SPECPRE_WORKLOAD_FUZZORACLES_H

#include "ir/Ir.h"
#include "mincut/FlowNetwork.h"
#include "profile/Profile.h"
#include "workload/ProgramGenerator.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace specpre {

/// A tripped oracle: a stable identifier (used by the reducer to insist
/// the *same* invariant keeps failing while shrinking) and diagnostics.
struct OracleFailure {
  std::string Oracle;
  std::string Message;
};

/// Runs \p Check and returns its result, converting an exception that
/// escapes it into a failure: oracle `uncaught-status` for a
/// StatusException, `uncaught-exception` for any other std::exception.
/// Paths that bypass the degradation ladder throw (SSA construction
/// rejects a reducer candidate that lost a variable's only definition;
/// the stored-profile and EFG replay modes compile without fallback), so
/// `specpre-fuzz` runs every case, replay and reducer candidate through
/// this guard.
std::optional<OracleFailure>
guardOracles(const std::function<std::optional<OracleFailure>()> &Check);

/// Deterministic per-case derivations. The fuzzer, the reducer, the CI
/// smoke run and the regression tests all agree that (Seed, CaseIdx)
/// names exactly one program and input set.
GeneratorConfig fuzzGeneratorConfig(uint64_t Seed, uint64_t CaseIdx);
Function fuzzProgram(uint64_t Seed, uint64_t CaseIdx);
std::vector<int64_t> fuzzTrainArgs(const Function &F, uint64_t Seed,
                                   uint64_t CaseIdx);
std::vector<std::vector<int64_t>> fuzzVariantArgs(const Function &F,
                                                  uint64_t Seed,
                                                  uint64_t CaseIdx);

/// Runs the full pipeline oracle stack on an UNPREPARED non-SSA function.
/// Returns std::nullopt when every oracle passes, or when the case is
/// vacuous (the training run times out, so no profile exists to check
/// against).
std::optional<OracleFailure>
checkPipelineOracles(const Function &Unprepared,
                     const std::vector<int64_t> &TrainArgs,
                     const std::vector<std::vector<int64_t>> &VariantArgs);

/// Oracles for a case with a STORED profile whose frequencies need not be
/// reproducible by any execution (this is how the capacity-overflow
/// reproducer carries frequencies near 2^62): verifier, semantic
/// equivalence on \p Inputs, and the cut-capacity oracle — every recorded
/// min-cut weight must stay below InfiniteCapacity, since the trivial
/// compute-everything-in-place cut is always finite.
std::optional<OracleFailure>
checkStoredProfileOracles(const Function &Unprepared, const Profile &Prof,
                          const std::vector<std::vector<int64_t>> &Inputs);

/// EFG-level oracle under an explicit profile: puts the function into SSA
/// form as written (no preparation — critical edges stay unsplit), builds
/// the FRG of the first non-faulting candidate expression, runs
/// MC-SSAPRE's speculative placement, and compares the cut weight against
/// \p ExpectCutWeight when given. Unsplit critical edges are the
/// configuration where Φ-operand edge frequency and predecessor block
/// frequency genuinely differ.
std::optional<OracleFailure>
checkEfgCutOracles(const Function &F, const Profile &Prof,
                   std::optional<int64_t> ExpectCutWeight);

/// A serializable min-cut fuzz case: one flow network with its two
/// terminals. Built by fuzzNetworkCase, checked by checkNetworkOracles,
/// written to tests/corpus/ by formatNetworkReproducer and replayed
/// through `// mode: network` reproducer files.
struct NetworkCase {
  FlowNetwork Net;
  int Source = 0, Sink = 1;
};

/// Deterministic random network for (Seed, CaseIdx): a mix of finite,
/// infinite, saturated (MaxFiniteCapacity) and zero capacities, small
/// enough (<= 22 nodes) that the brute-force oracle always applies.
NetworkCase fuzzNetworkCase(uint64_t Seed, uint64_t CaseIdx);

/// Differential min-cut oracle on one network: the full matrix of every
/// max-flow algorithm x both cut placements, verifyMinCut on each cut,
/// capacity against the brute-force partition enumeration, and cut
/// identity — the same CutEdgeIds, edge for edge — across algorithms per
/// placement (earliest/latest residual cuts are flow-independent).
/// \p ExpectCutWeight additionally pins the capacity when replaying a
/// checked-in reproducer.
std::optional<OracleFailure>
checkNetworkOracles(NetworkCase &C, std::optional<int64_t> ExpectCutWeight);

/// fuzzNetworkCase + checkNetworkOracles for (Seed, CaseIdx).
std::optional<OracleFailure> checkRandomNetworkCase(uint64_t Seed,
                                                    uint64_t CaseIdx);

/// Serializes a failing network case into the reproducer format: a
/// `// mode: network` file whose network lives entirely in `// nodes:`,
/// `// source:`, `// sink:` and `// edge: U V CAP` directives.
std::string formatNetworkReproducer(const NetworkCase &C,
                                    const OracleFailure &Failure);

/// Greedy edge-dropping reducer: removes original edges one at a time
/// while checkNetworkOracles keeps failing with the same oracle.
NetworkCase reduceNetworkCase(const NetworkCase &C,
                              const OracleFailure &Failure);

//===----------------------------------------------------------------------===//
// Corpus replay
//===----------------------------------------------------------------------===//

/// A reproducer is a `.ir` file with directive comments
///
///   // specpre-fuzz reproducer
///   // mode: pipeline | profile | efg-cut | network
///   // args: 1,2,3            (training input; pipeline/profile modes)
///   // oracle: <identifier>   (the invariant this case once violated)
///   // expect-cut-weight: N   (efg-cut/network golden value)
///   // nodes/source/sink/edge (network mode: the flow network itself)
///
/// and, for the profile and efg-cut modes, a sibling `<stem>.prof` file
/// in the serializeProfile format. Network-mode files carry no IR at
/// all — the case is the network in the directives.
std::optional<OracleFailure> replayCorpusFile(const std::string &IrPath);

/// Serializes a failing pipeline case into the reproducer format.
std::string formatPipelineReproducer(const Function &Unprepared,
                                     const std::vector<int64_t> &TrainArgs,
                                     const OracleFailure &Failure);

} // namespace specpre

#endif // SPECPRE_WORKLOAD_FUZZORACLES_H
