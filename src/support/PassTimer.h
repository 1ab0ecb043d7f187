//===- support/PassTimer.h - Pipeline step timing and metrics --*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer of the PRE pipeline: wall time and problem
/// sizes per algorithmic step (Φ-insertion, rename, the sparse data
/// flow, graph reduction, the min cut, safe placement, finalize, code
/// motion, verification), accumulated into a PipelineMetrics and
/// exportable as JSON (`specpre-opt --metrics-out=`).
///
/// Collection is pull-free: each step's implementation constructs a
/// PassTimer, which records into the thread-local sink installed by the
/// innermost MetricsScope. With no scope installed the timer is a no-op
/// (not even a clock read), so the instrumented hot paths cost nothing
/// in normal runs. Worker threads each install a scope over a private
/// shard; shards are merged deterministically in task order (durations
/// themselves are wall-clock measurements and naturally vary run to
/// run — only the *structure* of the report is deterministic).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_SUPPORT_PASSTIMER_H
#define SPECPRE_SUPPORT_PASSTIMER_H

#include "support/CompileCache.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace specpre {

/// The instrumented steps of the PRE pipeline, in pipeline order.
enum class PipelineStep : unsigned {
  PhiInsertion,  ///< FRG step 1: Φ placement + real-occurrence collection.
  Rename,        ///< FRG step 2: redundancy classes.
  DataFlow,      ///< MC-SSAPRE step 3: full availability / partial antic.
  Reduction,     ///< MC-SSAPRE steps 4-6: reduced graph and EFG build.
  MinCut,        ///< MC-SSAPRE step 7: max-flow/min-cut + cut application.
  SafePlacement, ///< SSAPRE legs A/B: DownSafety/WillBeAvail.
  Finalize,      ///< Step 9: reload/save decisions, temp phis.
  CodeMotion,    ///< Step 10: applying the edit plan to the IR.
  Verify,        ///< IR verifier + Definition-1 oracle, once per function.
  Count
};

constexpr unsigned NumPipelineSteps =
    static_cast<unsigned>(PipelineStep::Count);

/// Stable machine-readable step name ("phi-insertion", "min-cut", ...).
const char *pipelineStepName(PipelineStep S);

/// Accumulated measurements of one step.
struct StepMetrics {
  uint64_t Invocations = 0;
  uint64_t Nanos = 0;       ///< Total wall time across invocations.
  uint64_t ProblemSize = 0; ///< Sum of per-invocation problem sizes.
};

/// Fault-isolation counters for one pipeline run (or one worker's
/// shard). Exported under the metrics JSON "robustness" key.
struct RobustnessCounters {
  uint64_t FunctionsCompiled = 0;
  uint64_t FunctionsDegraded = 0; ///< Landed below the requested strategy.
  uint64_t LadderRetries = 0;     ///< Total rungs abandoned.
  uint64_t WorkerFailures = 0;    ///< Parallel worker errors contained.
};

/// Request-level counters of the compilation service (specpre-serve).
/// Exported under the metrics JSON "service" key; all zero in plain
/// batch runs, whose documents still carry the group.
struct ServiceCounters {
  uint64_t RequestsReceived = 0;
  uint64_t RequestsSucceeded = 0;
  uint64_t RequestsFailed = 0;   ///< Rejected or errored end-to-end.
  uint64_t RequestsDegraded = 0; ///< Succeeded below the requested rung.
  uint64_t QueueDepthPeak = 0;   ///< Max in-flight requests observed.
  uint64_t QueueWaitNanos = 0;   ///< Total submit-to-start latency.
  uint64_t CompileNanos = 0;     ///< Total start-to-finish compile time.
  // Process-isolation supervision (pre/CompileService --isolate=process)
  // and backpressure; zero in in-process mode except Shed.
  uint64_t WorkerCrashes = 0; ///< Sandbox workers that died mid-request.
  uint64_t DeadlineKills = 0; ///< Workers killed at the request deadline.
  uint64_t Quarantined = 0;   ///< Requests refused as poisoned.
  uint64_t Shed = 0;          ///< Requests answered 'B' at a full queue.
  uint64_t Retries = 0;       ///< Worker re-forks after a contained death.
};

/// Leg D (pre/Lospre.h) counters: how often the treewidth engine solved
/// a placement, how often it bailed out to MC-SSAPRE, and how big its
/// decompositions ran. Exported under the metrics JSON "lospre" key.
struct LospreCounters {
  uint64_t Solved = 0;    ///< EFGs placed by the treewidth DP.
  uint64_t Bailouts = 0;  ///< ResourceLimit refusals (width/irreducible).
  uint64_t WidthPeak = 0; ///< Max decomposition width observed (a gauge).
  uint64_t DpEntries = 0; ///< Total DP table entries evaluated.
};

/// Per-step metrics for one pipeline run (or one worker's shard of it).
/// Each counter is one row of a field table in support/PassTimer.cpp
/// (JSON key, member, fold, unit); merge(), toJson() and the shard codec
/// are derived from the tables.
class PipelineMetrics {
public:
  void note(PipelineStep S, uint64_t Nanos, uint64_t ProblemSize);

  RobustnessCounters &robustness() { return Robust; }
  const RobustnessCounters &robustness() const { return Robust; }

  /// Compilation-cache counters of this run (hit/miss/evict/...). The
  /// drivers do not fill these incrementally; the tool snapshots its
  /// CompileCache's counters here before export, so the JSON reflects
  /// the whole process.
  CacheCounters &cache() { return Cache; }
  const CacheCounters &cache() const { return Cache; }

  /// Serve-daemon request counters; filled by pre/CompileService, zero
  /// elsewhere.
  ServiceCounters &service() { return Service; }
  const ServiceCounters &service() const { return Service; }

  /// Leg-D treewidth engine counters; filled by pre/Lospre and the
  /// PreDriver's reducibility gate, zero elsewhere.
  LospreCounters &lospre() { return Lospre; }
  const LospreCounters &lospre() const { return Lospre; }

  const StepMetrics &step(PipelineStep S) const {
    return Steps[static_cast<unsigned>(S)];
  }

  uint64_t totalNanos() const;

  /// Folds \p Other into this shard, counter by counter: sums, except
  /// the gauges (width peak, breaker state, queue depth peak), which
  /// keep the max. Commutative and associative, so any merge order
  /// yields the same totals.
  void merge(const PipelineMetrics &Other);

  /// The metrics document every exporter writes (`--metrics-out`, the
  /// daemon's 'T' frame, serve_throughput), without a trailing newline:
  /// "jobs", then "steps" (one {"step", "invocations", "millis",
  /// "problem_size"} object per step, in pipeline order), then the
  /// robustness, lospre, cache and service groups.
  std::string toJson(unsigned Jobs) const;

  /// The shard as one line of decimal counters in table order (the
  /// sandbox worker's 'M' frame). Nanoseconds travel unrounded.
  std::string encode() const;

  /// Inverse of encode() by the strict support/LineCodec parsers; a
  /// missing or extra token, a sign or an overflow leaves \p Out as is.
  static bool decode(const std::string &Text, PipelineMetrics &Out);

private:
  /// Calls \p Visit(Row, Counter...) for every counter of \p M, the
  /// matching counters of all shards at once, in field-table order.
  template <class Visitor, class... Metrics>
  static void forEachCounter(Visitor &&Visit, Metrics &...M);

  std::array<StepMetrics, NumPipelineSteps> Steps;
  RobustnessCounters Robust;
  CacheCounters Cache;
  ServiceCounters Service;
  LospreCounters Lospre;
};

/// Installs a thread-local metrics sink for the current scope; nesting
/// restores the previous sink on destruction. Pass nullptr to suspend
/// collection within the scope.
class MetricsScope {
public:
  explicit MetricsScope(PipelineMetrics *M);
  ~MetricsScope();

  MetricsScope(const MetricsScope &) = delete;
  MetricsScope &operator=(const MetricsScope &) = delete;

private:
  PipelineMetrics *Prev;
};

/// The sink installed by the innermost MetricsScope on this thread, or
/// null when collection is off.
PipelineMetrics *currentMetricsSink();

/// RAII wall-clock timer for one step invocation. No-op (no clock read)
/// when no sink is installed on the constructing thread.
class PassTimer {
public:
  explicit PassTimer(PipelineStep S, uint64_t ProblemSize = 0)
      : S(S), Size(ProblemSize), Sink(currentMetricsSink()) {
    if (Sink)
      Start = std::chrono::steady_clock::now();
  }

  ~PassTimer() {
    if (!Sink)
      return;
    auto End = std::chrono::steady_clock::now();
    Sink->note(S,
               static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       End - Start)
                       .count()),
               Size);
  }

  PassTimer(const PassTimer &) = delete;
  PassTimer &operator=(const PassTimer &) = delete;

  /// For steps whose problem size is only known mid-flight (e.g. the
  /// EFG is sized while it is built).
  void setProblemSize(uint64_t ProblemSize) { Size = ProblemSize; }

private:
  PipelineStep S;
  uint64_t Size;
  PipelineMetrics *Sink;
  std::chrono::steady_clock::time_point Start;
};

} // namespace specpre

#endif // SPECPRE_SUPPORT_PASSTIMER_H
