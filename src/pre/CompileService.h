//===- pre/CompileService.h - Long-lived compilation service ---*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation service behind specpre-serve (docs/SERVING.md): a
/// long-lived front end over the batch pipeline that lets many clients
/// share one warm process — one ParallelPreDriver pool, one
/// content-addressed CompileCache (memory LRU + shared disk tier) — so
/// repeat compilations of the same function/profile/options are served
/// from cache no matter which client asks.
///
/// Three layers, separable for testing:
///
///  * ServeRequest / ServeResponse — the payload schema of the 'C'/'R'
///    frames, encoded with the same checked line codec the cache
///    payloads use (support/LineCodec.h). A request is a whole module
///    plus the exact options surface of specpre-opt's batch mode; the
///    response carries the tool's stdout/stderr byte-for-byte. A local
///    specpre-opt run builds the same request and runs it through
///    processServeRequest too, which is what makes the daemon
///    bit-identical to a local run: the client just replays the streams.
///    processServeRequest fans the module's functions out over the
///    driver's pool, one function per thread, and commits their output
///    in function order.
///
///  * CompileService — the request queue. submit() enqueues and returns
///    a future; a small pool of request workers dequeues and runs each
///    request through processServeRequest (full degradation ladder,
///    budgets, metrics). Request workers only orchestrate — a request's
///    functions run on the shared driver pool, which is safe to drive
///    from several requests at once.
///
///  * ServeServer — the socket front end: accept loop, per-connection
///    reader threads, frame dispatch ('P' ping, 'C' compile, 'S' stats),
///    graceful drain on stop (in-flight requests finish, their
///    responses are delivered, then connections close).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_COMPILESERVICE_H
#define SPECPRE_PRE_COMPILESERVICE_H

#include "pre/ParallelDriver.h"
#include "support/CompileCache.h"
#include "support/Socket.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

namespace specpre {

struct ExecResult;

/// One compile request: a module plus the batch-tool options that affect
/// its output. Mirrors specpre-opt's surface minus the purely local
/// concerns (file paths, DOT export, fault injection).
struct ServeRequest {
  std::string ModuleText;
  PreStrategy Strategy = PreStrategy::McSsaPre;
  CutPlacement Placement = CutPlacement::Latest;
  MaxFlowAlgorithm Algo = MaxFlowAlgorithm::Dinic;
  CutObjective Objective = CutObjective::speed();
  CompileBudget Budget;
  /// Leg D's treewidth budget (PreOptions::LospreMaxWidth). Only on the
  /// wire when Strategy is Lospre; otherwise the default is implied.
  unsigned LospreMaxWidth = 8;
  /// Arguments for the profile-collection run; required by the
  /// profile-guided strategies unless ProfileText is given.
  std::optional<std::vector<int64_t>> TrainArgs;
  /// A serialized profile (profile/Profile.h) to use instead of
  /// training; empty = train.
  std::string ProfileText;
  std::string OnlyFunction; ///< Restrict to one function; empty = all.
  bool Emit = true;
  bool Cleanup = false;
  bool Gvn = false;
  bool OutOfSsa = false;
  bool ReportOutcomes = false;
};

/// The result of one request: the streams a local specpre-opt run with
/// the same options would have produced, plus its exit code.
struct ServeResponse {
  bool Ok = false;          ///< Request was understood and executed.
  std::string Error;        ///< Decode/validation failure (when !Ok).
  std::string StdoutText;   ///< Byte-identical to the batch tool's stdout.
  std::string StderrText;   ///< Diagnostics (degradations, errors).
  int ExitCode = 0;         ///< The batch tool's exit code.
  /// The ladder gave up a rung somewhere inside the request, so the
  /// output is explicitly degraded rather than the requested strategy's
  /// (the chaos harness treats these as acceptable non-identical).
  bool Degraded = false;
  /// The request killed enough sandbox workers to be quarantined; the
  /// server answers it with an 'E' frame, never retries it.
  bool Quarantined = false;

  /// Appends an interpreter run's report line ("train: ret=... cycles=...")
  /// to StdoutText.
  void appendRunReport(const char *Label, const ExecResult &R);
};

/// Parses a --strategy= value ("mcssapre", "lospre", ...), the spelling
/// the request's strategy directive uses too.
bool parseStrategyFlag(const std::string &Name, PreStrategy &Out);

/// Parses a leg D treewidth budget in [0, 64], for --lospre-max-width=
/// and the request's lospre-max-width directive alike, so a local run
/// and the daemon reject the same values.
bool parseLospreMaxWidth(const std::string &Text, unsigned &Out);

/// Request payload codec for the 'C' frame. decode rejects unknown
/// directives, bad integers and missing sections with a diagnostic.
std::string encodeServeRequest(const ServeRequest &R);
bool decodeServeRequest(const std::string &Payload, ServeRequest &Out,
                        std::string &Error);

/// Response payload codec for the 'R' frame.
std::string encodeServeResponse(const ServeResponse &R);
bool decodeServeResponse(const std::string &Payload, ServeResponse &Out,
                         std::string &Error);

/// A caller's extension of processServeRequest, run on the calling
/// thread for each function, in function order, after its output was
/// appended to \p Resp. It sees the prepared input,
/// the profile the function was compiled under (empty for the
/// profile-free strategies), the emitted function and its statistics. A
/// nonzero return ends the request with that exit code. specpre-opt's
/// local side channels (--dot-cfg, --dot-frg, --stats, --run,
/// --profile-out) are such a hook.
using ServeFunctionHook = std::function<int(
    const Function &Prepared, const Profile &Prof, const Function &Optimized,
    const PreStats &Stats, ServeResponse &Resp)>;

/// Runs \p R against the given driver/cache: parse, then per function
/// prepare, train through the cache's training memo (or load the
/// profile), compile through the ladder, report the outcome, run the
/// GVN/cleanup/out-of-SSA post-passes and emit. When no post-pass runs
/// and there is no \p Hook, a cache hit emits its stored IR text without
/// parsing or printing it (docs/CACHING.md). This is both the daemon's
/// request body and a local specpre-opt run, which adds its side
/// channels through \p Hook. The functions run
/// on \p Driver's pool; their output, metrics and hook calls are
/// committed in function order, and the first nonzero exit code ends the
/// request, so the response is the same at any job count.
ServeResponse processServeRequest(const ServeRequest &R,
                                  ParallelPreDriver &Driver,
                                  CompileCache *Cache,
                                  PipelineMetrics *Metrics,
                                  const ServeFunctionHook &Hook = {});

/// How a request worker runs the compile itself.
enum class IsolationMode {
  /// In the daemon's own address space (fast path, the default). A
  /// request that segfaults takes the daemon with it.
  InProcess,
  /// In a forked sandbox worker per request, talking SPV1 frames to the
  /// supervisor over a socketpair. A worker that crashes, blows the
  /// deadline, or exceeds the memory cap is reaped and the request is
  /// answered degraded/errored; the daemon survives.
  Process,
};

class CompileService {
public:
  struct Config {
    /// Workers of the shared driver pool, which compile a request's
    /// functions concurrently (0 = cores).
    unsigned Jobs = 1;
    /// Concurrent requests in execution; queue beyond that.
    unsigned RequestWorkers = 2;
    /// The cache shared by all requests (Mode Off = none). Each sandbox
    /// worker opens the same config over the shared disk tier.
    CompileCache::Config Cache;
    /// Background scrubber cadence: every N ms the scrubber thread
    /// walks the disk tier validating checksums and quarantining
    /// corrupt entries. 0 = no scrubber thread.
    uint64_t CacheScrubIntervalMs = 0;
    /// Byte-rate limit for each scrub pass (0 = unthrottled).
    uint64_t CacheScrubBytesPerSec = 4u << 20;
    /// Crash containment (docs/ROBUSTNESS.md).
    IsolationMode Isolation = IsolationMode::InProcess;
    /// Hard per-request wall-clock deadline, enforced daemon-side. In
    /// process mode a worker past it is SIGKILLed; in-process it clamps
    /// the compile budget's DeadlineMillis (soft: training/emission are
    /// not interruptible without a process boundary). 0 = none.
    uint64_t RequestDeadlineMs = 0;
    /// RLIMIT_DATA cap for sandbox workers, in MiB (0 = none).
    uint64_t WorkerMemLimitMb = 0;
    /// A request whose workers die this many times is quarantined:
    /// answered 'E', never forked again.
    unsigned QuarantineAfter = 3;
    /// Bounded queue depth (queued, not in-flight); trySubmit sheds
    /// beyond it. 0 = unbounded. submit() ignores the bound.
    uint64_t QueueMaxDepth = 0;
  };

  explicit CompileService(const Config &C);
  ~CompileService();

  /// Enqueues \p R; the future resolves when a request worker finishes
  /// it. Never blocks on compilation. Fails the future with Ok=false
  /// after shutdown() has begun.
  std::future<ServeResponse> submit(ServeRequest R);

  /// submit() with backpressure: returns false — and leaves \p Out
  /// untouched — when QueueMaxDepth requests are already queued, bumping
  /// the shed counter. The socket front end answers such requests with a
  /// 'B' (busy) frame instead of growing the queue without bound.
  bool trySubmit(ServeRequest R, std::future<ServeResponse> &Out);

  /// Blocks until every submitted request has completed.
  void drain();

  /// Drains, then stops the request workers. Idempotent.
  void shutdown();

  /// Counts a request that failed before reaching the queue (an
  /// undecodable 'C' payload), so the service counters cover every
  /// request a client sent, not just the well-formed ones.
  void noteProtocolFailure();

  /// Snapshot of the merged pipeline metrics across all requests so far:
  /// the shards of finished requests (a sandbox worker's included) plus
  /// the service cache's counters.
  PipelineMetrics metricsSnapshot() const;

  /// The cache shared by all requests; null when Mode is Off.
  CompileCache *cache() { return Cache.get(); }

  unsigned jobs() const { return Driver.jobs(); }

private:
  struct Pending {
    ServeRequest Req;
    std::promise<ServeResponse> Result;
    std::chrono::steady_clock::time_point Submitted;
  };

  void workerLoop();

  /// Runs \p R per Cfg.Isolation, accumulating into \p Shard.
  ServeResponse executeRequest(const ServeRequest &R,
                               PipelineMetrics &Shard);

  /// Process mode: forks sandbox workers for \p R, reaping crashes and
  /// deadline overruns, retrying up to the quarantine threshold.
  ServeResponse superviseRequest(const ServeRequest &R,
                                 PipelineMetrics &Shard);

  std::future<ServeResponse> enqueue(ServeRequest R, bool Bounded,
                                     bool &Shed);

  Config Cfg;
  ParallelPreDriver Driver;
  std::unique_ptr<CompileCache> Cache;

  mutable std::mutex Mu;
  std::condition_variable QueueCv; ///< Signals workers: work or stop.
  std::condition_variable IdleCv;  ///< Signals drain(): all quiet.
  std::deque<std::unique_ptr<Pending>> Queue;
  unsigned InFlight = 0; ///< Dequeued, not yet completed.
  bool Stopping = false;
  PipelineMetrics Metrics; ///< Merged shards of finished requests.
  /// Hashes of requests that killed QuarantineAfter workers; never
  /// forked for again (poisoned-request containment).
  std::unordered_set<uint64_t> Quarantine;
  std::vector<std::thread> Workers;
  /// Background disk-tier scrubber (Cfg.CacheScrubIntervalMs > 0):
  /// cv-signalled so shutdown() never waits out a sleep interval.
  std::thread Scrubber;
  std::mutex ScrubStopMu;
  std::condition_variable ScrubStopCv;
  bool ScrubStop = false;
};

/// The socket front end: owns a CompileService and serves the framed
/// protocol on a Unix-domain socket.
class ServeServer {
public:
  struct Config {
    std::string SocketPath;
    int IoTimeoutMs = 10000; ///< Per-frame read/write budget.
    /// Exit after this many compile requests (0 = unlimited); the
    /// smoke tests use it to bound a daemon's lifetime.
    uint64_t MaxRequests = 0;
    CompileService::Config Service;
  };

  explicit ServeServer(const Config &C);
  ~ServeServer();

  /// Binds and starts the accept loop. Refuses (ResourceLimit) to start
  /// when another live daemon is already serving the socket path —
  /// stale files from a dead daemon are still replaced silently.
  /// InvalidInput/InternalError on socket failures.
  Status start();

  /// Initiates a graceful stop: stop accepting, let in-flight requests
  /// finish and their responses flush, close connections, unlink the
  /// socket file. Safe to call from a signal-triggered watcher thread.
  /// Returns once fully stopped.
  void stop();

  /// True once MaxRequests has been reached (the main loop then stops).
  bool servedEnough() const;

  /// Blocks until stop() completes (or MaxRequests triggers one).
  void wait();

  CompileService &service() { return Service; }

private:
  void acceptLoop();
  void handleConnection(Socket Conn);
  std::string statsJson() const;

  Config Cfg;
  CompileService Service;
  Socket Listener;
  std::atomic<bool> StopRequested{false};
  std::atomic<bool> Stopped{false};
  std::atomic<uint64_t> CompileRequests{0};
  std::thread Acceptor;
  std::mutex ConnMu;
  std::vector<std::thread> ConnThreads;
  std::mutex StopMu; ///< Serializes stop() callers.
};

} // namespace specpre

#endif // SPECPRE_PRE_COMPILESERVICE_H
