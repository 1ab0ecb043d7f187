//===- support/FaultInjector.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seeded fault injection for exercising the recovery
/// paths (degradation ladder, parser diagnostics, worker isolation)
/// without hand-crafting a failing input for each one.
///
/// Sites are named after the pipeline steps they live in (phi-insertion,
/// rename, data-flow, reduction, min-cut, safe-placement, speculation,
/// finalize, code-motion, verify) plus two cross-cutting ones: `alloc`
/// (simulated allocation failure at graph-build time) and `budget`
/// (simulated budget exhaustion at a pass boundary). The `verify` site
/// probes the always-on min-cut validation (pre/McSsaPre.cpp,
/// applyEfgCut) once per cut; the `verify` pipeline step, which runs
/// once per function, has no probe. The chaos harness
/// (docs/ROBUSTNESS.md) adds network and process sites — `torn-frame`,
/// `partial-write`, `delayed-write`, `dropped-connection` in the socket
/// framing layer, and `worker-kill` / `worker-crash` probed by the
/// compile-worker supervisor — and disk sites enacted inside the
/// CompileCache I/O helpers: `disk-short-write`, `disk-enospc`,
/// `disk-eio`, `disk-corrupt-byte`, `disk-rename-fail`. The spec string
///
///   site:rate[:seed][,site:rate[:seed]...]     e.g.  min-cut:0.01:7
///
/// arms the named sites; `all` arms every site at the given rate. A hit
/// throws StatusException(FaultInjected), which the per-function ladder
/// treats exactly like a real recoverable failure.
///
/// Determinism: each (site, hit-counter) pair is hashed with the seed,
/// and one function compiles on one thread, so a function's compile
/// replays bit-identically at any `--jobs`. The per-site counters are
/// atomic and shared, so in a module of several functions compiled
/// concurrently, only which function observes hit #k depends on
/// scheduling; see docs/ROBUSTNESS.md.
///
/// When no spec is armed (the default), maybeInject() is a single
/// relaxed atomic load of a null pointer — cheap enough to leave the
/// probes in release builds.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_SUPPORT_FAULTINJECTOR_H
#define SPECPRE_SUPPORT_FAULTINJECTOR_H

#include "support/Status.h"

#include <cstdint>
#include <string_view>

namespace specpre {

/// Places a fault probe can live. Keep pipelineStepName-compatible
/// spellings in faultSiteName().
enum class FaultSite : unsigned {
  PhiInsertion,
  Rename,
  DataFlow,
  Reduction,
  MinCut,
  SafePlacement,
  Speculation,
  Finalize,
  CodeMotion,
  Verify,
  Alloc,
  Budget,
  // Network sites, enacted by support/Socket's framing layer (the fault
  // is *performed*, not thrown — see shouldInjectFault).
  TornFrame,          ///< Corrupt a frame's magic bytes on the wire.
  PartialWrite,       ///< Send a frame prefix, then shut down writes.
  DelayedWrite,       ///< Stall a frame write (slow-peer simulation).
  DroppedConnection,  ///< Shut the connection down mid-exchange.
  // Process sites, probed by the compile-worker supervisor
  // (pre/CompileService --isolate=process).
  WorkerKill,         ///< SIGKILL a sandbox worker mid-request.
  WorkerCrash,        ///< Make a sandbox worker segfault mid-request.
  // Disk sites, enacted inside support/CompileCache's publish and read
  // helpers (docs/CACHING.md "Durability and self-healing").
  DiskShortWrite,     ///< Publish only a prefix of the entry (torn write).
  DiskEnospc,         ///< Fail a publish as if the disk were full.
  DiskEio,            ///< Fail a disk read or write with an I/O error.
  DiskCorruptByte,    ///< Flip one payload byte before it hits disk.
  DiskRenameFail,     ///< Fail the atomic rename that publishes an entry.
};

constexpr unsigned NumFaultSites =
    static_cast<unsigned>(FaultSite::DiskRenameFail) + 1;

/// Spec-string spelling of \p S ("min-cut", "alloc", ...).
const char *faultSiteName(FaultSite S);

/// Parses and arms a spec (see file comment); replaces any previous
/// configuration. An empty spec disarms injection. Returns InvalidInput
/// with a message naming the bad entry on malformed input.
Status configureFaultInjection(std::string_view Spec);

/// Disarms all sites (used by tests to restore a clean state).
void disableFaultInjection();

/// True when any site is armed.
bool faultInjectionEnabled();

/// True when any *pipeline* site (phi-insertion through budget — the
/// throwing sites that perturb a compile's outcome) is armed. The
/// network, process, and disk sites only perturb transport and storage,
/// so compilation results stay a pure function of their inputs and the
/// compile cache remains sound under them; cache admission keys off this
/// narrower check (pre/CachedCompile).
bool pipelineFaultInjectionEnabled();

/// Probe: if \p S is armed and the deterministic coin for this hit comes
/// up, throws StatusException(FaultInjected) naming the site and hit
/// index; otherwise returns. \p Detail is included in the message.
void maybeInject(FaultSite S, const char *Detail = "");

/// Query-style probe for faults the *caller* enacts (a torn frame is
/// written corrupted, a worker is killed) rather than thrown through the
/// ladder. Same deterministic coin and hit accounting as maybeInject;
/// returns true when the caller should perform the fault.
bool shouldInjectFault(FaultSite S);

/// Total injected faults since the last configure/disable, across all
/// sites and threads. Lets tools report how much the run was stressed.
uint64_t faultsInjectedCount();

} // namespace specpre

#endif // SPECPRE_SUPPORT_FAULTINJECTOR_H
