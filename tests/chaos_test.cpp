//===- tests/chaos_test.cpp - Crash containment and chaos harness ---------===//
//
// The robustness contracts of --isolate=process and the fault-injected
// serving stack (docs/ROBUSTNESS.md):
//
//  * a sandbox worker that segfaults is reaped, the request retried and
//    eventually quarantined — the service itself keeps serving;
//  * a worker past the request deadline is SIGKILLed, never waited on
//    forever;
//  * a worker over its memory cap dies contained, like any other crash;
//  * a sandboxed compile's counts reach the daemon's metrics as an
//    in-process compile's do;
//  * a bounded queue sheds with 'B' instead of growing without bound;
//  * under concurrent clients with torn frames, dropped connections and
//    worker kills, every request terminates in a bit-identical, an
//    explicitly degraded, or a quarantined outcome — never a hang,
//    never a daemon death.
//
// The fork-based tests are skipped under TSan: forking a multithreaded
// TSan process is unsupported by the runtime (the in-process tests and
// the other sanitizers still cover the logic).
//
//===----------------------------------------------------------------------===//

#include "pre/CompileService.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#if defined(__SANITIZE_THREAD__)
#define SPECPRE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPECPRE_TSAN 1
#endif
#endif
#ifndef SPECPRE_TSAN
#define SPECPRE_TSAN 0
#endif

#if defined(__SANITIZE_ADDRESS__)
#define SPECPRE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SPECPRE_SANITIZED 1
#endif
#endif
#ifndef SPECPRE_SANITIZED
#define SPECPRE_SANITIZED SPECPRE_TSAN
#endif

using namespace specpre;

namespace {

const char *TestModule = R"(func hot(a, b, n) {
entry:
  i = 0
  s = 0
  jmp loop
loop:
  c = i < n
  br c, body, done
body:
  t = a * b
  s = s + t
  i = i + 1
  jmp loop
done:
  ret s
}

func cold(a, b, n) {
entry:
  x = a + b
  ret x
}
)";

ServeRequest basicRequest() {
  ServeRequest R;
  R.ModuleText = TestModule;
  R.Strategy = PreStrategy::McSsaPre;
  R.TrainArgs = std::vector<int64_t>{3, 4, 16};
  return R;
}

/// A request whose training run burns the interpreter's full step budget
/// (50M steps, well over 100 ms of wall clock in any build type) before
/// failing: the deterministic "slow request" for deadline and
/// backpressure tests.
ServeRequest slowRequest() {
  ServeRequest R = basicRequest();
  R.TrainArgs = std::vector<int64_t>{3, 4, 2000000000LL};
  return R;
}

ServeResponse localReference(const ServeRequest &R) {
  ParallelConfig PC;
  PC.Jobs = 1;
  ParallelPreDriver Driver(PC);
  return processServeRequest(R, Driver, nullptr, nullptr);
}

std::string tempSocketPath(const char *Tag) {
  return "/tmp/sprc-" + std::to_string(getpid()) + "-" + Tag + ".sock";
}

/// Disarms injection on every exit path: a failing assertion must not
/// leave fault probes armed for the next test.
struct InjectionGuard {
  explicit InjectionGuard(const char *Spec) {
    Status St = configureFaultInjection(Spec);
    EXPECT_TRUE(St.isOk()) << St.toString();
  }
  ~InjectionGuard() { disableFaultInjection(); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Worker crash containment (no socket: the service layer alone)
//===----------------------------------------------------------------------===//

#if !SPECPRE_TSAN

TEST(ChaosTest, WorkerCrashContainedAndQuarantined) {
  CompileService::Config Cfg;
  Cfg.Isolation = IsolationMode::Process;
  Cfg.QuarantineAfter = 2;
  CompileService Service(Cfg);

  ServeResponse Resp;
  {
    // Every supervisor probe fires: the worker segfaults on attempt 1,
    // again on the retry, and the request is quarantined.
    InjectionGuard Guard("worker-crash:1:5");
    Resp = Service.submit(basicRequest()).get();
  }
  EXPECT_FALSE(Resp.Ok);
  EXPECT_TRUE(Resp.Quarantined);
  EXPECT_NE(Resp.Error.find("refusing to retry"), std::string::npos)
      << Resp.Error;

  PipelineMetrics M = Service.metricsSnapshot();
  EXPECT_EQ(M.service().WorkerCrashes, 2u);
  EXPECT_EQ(M.service().Retries, 1u);
  EXPECT_EQ(M.service().Quarantined, 1u);

  // The crashes were contained: the same service still compiles.
  ServeRequest Other = basicRequest();
  Other.OnlyFunction = "cold";
  ServeResponse Alive = Service.submit(Other).get();
  EXPECT_TRUE(Alive.Ok);
  EXPECT_EQ(Alive.ExitCode, 0);
  EXPECT_EQ(Alive.StdoutText, localReference(Other).StdoutText);

  // Resubmitting the poisoned request answers from the quarantine set —
  // no new fork, no new crash.
  ServeResponse Again = Service.submit(basicRequest()).get();
  EXPECT_TRUE(Again.Quarantined);
  M = Service.metricsSnapshot();
  EXPECT_EQ(M.service().WorkerCrashes, 2u)
      << "a quarantined request was forked again";
  EXPECT_EQ(M.service().Quarantined, 2u);
}

TEST(ChaosTest, DeadlineKillContained) {
  CompileService::Config Cfg;
  Cfg.Isolation = IsolationMode::Process;
  Cfg.RequestDeadlineMs = 100;
  Cfg.QuarantineAfter = 1;
  CompileService Service(Cfg);

  ServeResponse Resp = Service.submit(slowRequest()).get();
  EXPECT_FALSE(Resp.Ok);
  EXPECT_TRUE(Resp.Quarantined);

  PipelineMetrics M = Service.metricsSnapshot();
  EXPECT_EQ(M.service().DeadlineKills, 1u);
  EXPECT_EQ(M.service().WorkerCrashes, 0u)
      << "a deadline overrun was misclassified as a crash";

  ServeResponse Alive = Service.submit(basicRequest()).get();
  EXPECT_TRUE(Alive.Ok);
  EXPECT_EQ(Alive.ExitCode, 0);
}

TEST(ChaosTest, RlimitKillContained) {
  CompileService::Config Cfg;
  Cfg.Isolation = IsolationMode::Process;
  Cfg.WorkerMemLimitMb = 8;
  Cfg.QuarantineAfter = 1;
  // Generous deadline: the point is the memory cap, not the clock.
  Cfg.RequestDeadlineMs = 30000;
  CompileService Service(Cfg);

  // ~24 MiB of payload: receiving it alone blows the 8 MiB RLIMIT_DATA
  // cap inside the worker, long before glibc's pre-mapped arenas could
  // absorb the allocation.
  ServeRequest Big = basicRequest();
  Big.ModuleText.append(24u << 20, 'x');
  ServeResponse Resp = Service.submit(Big).get();
  EXPECT_FALSE(Resp.Ok);
  EXPECT_TRUE(Resp.Quarantined);

  PipelineMetrics M = Service.metricsSnapshot();
  EXPECT_GE(M.service().WorkerCrashes + M.service().DeadlineKills, 1u);

  ServeResponse Alive = Service.submit(basicRequest()).get();
  EXPECT_TRUE(Alive.Ok);
  EXPECT_EQ(Alive.ExitCode, 0);
}

TEST(ChaosTest, SandboxedCompilesCountLikeInProcessOnes) {
  // A sandbox worker sends its metrics shard ahead of its answer, so a
  // process-isolated service reports the same counts for the same
  // requests as an in-process one. The second request is a warm hit in
  // both: from the memory tier in-process, from the shared disk tier in
  // the fresh worker.
  namespace fs = std::filesystem;
  const std::string Want = localReference(basicRequest()).StdoutText;
  auto Run = [&](IsolationMode Mode, const char *Tag) {
    fs::path Dir = fs::temp_directory_path() /
                   ("specpre-chaos-count-" + std::to_string(getpid()) + Tag);
    fs::remove_all(Dir);
    CompileService::Config Cfg;
    Cfg.Isolation = Mode;
    Cfg.Cache.DiskDir = Dir.string();
    PipelineMetrics M;
    {
      CompileService Service(Cfg);
      for (int I = 0; I != 2; ++I) {
        ServeResponse Resp = Service.submit(basicRequest()).get();
        EXPECT_TRUE(Resp.Ok) << Tag;
        EXPECT_EQ(Resp.ExitCode, 0) << Tag;
        EXPECT_EQ(Resp.StdoutText, Want) << Tag;
      }
      M = Service.metricsSnapshot();
    }
    fs::remove_all(Dir);
    return M;
  };
  PipelineMetrics InProcess = Run(IsolationMode::InProcess, "-inproc");
  PipelineMetrics Sandboxed = Run(IsolationMode::Process, "-proc");

  // Two functions per request, both compiled cleanly twice.
  EXPECT_EQ(InProcess.robustness().FunctionsCompiled, 4u);
  EXPECT_EQ(Sandboxed.robustness().FunctionsCompiled,
            InProcess.robustness().FunctionsCompiled);
  EXPECT_EQ(Sandboxed.robustness().FunctionsDegraded,
            InProcess.robustness().FunctionsDegraded);
  EXPECT_EQ(Sandboxed.robustness().LadderRetries,
            InProcess.robustness().LadderRetries);
  EXPECT_EQ(Sandboxed.robustness().WorkerFailures,
            InProcess.robustness().WorkerFailures);

  EXPECT_GT(InProcess.step(PipelineStep::PhiInsertion).Invocations, 0u);
  for (unsigned S = 0; S != NumPipelineSteps; ++S)
    EXPECT_EQ(Sandboxed.step(static_cast<PipelineStep>(S)).Invocations,
              InProcess.step(static_cast<PipelineStep>(S)).Invocations)
        << pipelineStepName(static_cast<PipelineStep>(S));

  EXPECT_EQ(InProcess.cache().Misses, 2u);
  EXPECT_EQ(InProcess.cache().Hits, 2u);
  EXPECT_EQ(Sandboxed.cache().Misses, InProcess.cache().Misses);
  EXPECT_EQ(Sandboxed.cache().Hits, InProcess.cache().Hits);
}

#endif // !SPECPRE_TSAN

//===----------------------------------------------------------------------===//
// Backpressure
//===----------------------------------------------------------------------===//

TEST(ChaosTest, BusyFrameShedsAtDepthOneQueue) {
  CompileService::Config Cfg;
  Cfg.RequestWorkers = 1;
  Cfg.QueueMaxDepth = 1;
  CompileService Service(Cfg);

  // #1 occupies the single worker for >100 ms; #2 fills the depth-1
  // queue; #3 must shed. The lone worker can hold at most one request,
  // so the queue is deterministically non-empty at the third submit.
  std::future<ServeResponse> First = Service.submit(slowRequest());
  std::future<ServeResponse> Second = Service.submit(basicRequest());
  std::future<ServeResponse> Third;
  EXPECT_FALSE(Service.trySubmit(basicRequest(), Third))
      << "a full bounded queue accepted a request";
  EXPECT_FALSE(Third.valid());

  // The shed is counted, and the accepted requests still complete.
  First.get();
  ServeResponse R2 = Second.get();
  EXPECT_TRUE(R2.Ok);
  EXPECT_EQ(R2.ExitCode, 0);
  PipelineMetrics M = Service.metricsSnapshot();
  EXPECT_EQ(M.service().Shed, 1u);
  EXPECT_EQ(M.service().RequestsReceived, 3u)
      << "shed requests must still count as received";
}

//===----------------------------------------------------------------------===//
// Concurrent chaos sweep over the socket server
//===----------------------------------------------------------------------===//

#if !SPECPRE_TSAN

namespace {

/// Terminal outcomes a chaos-mode client accepts. Anything else within
/// the attempt budget is a test failure.
enum class Outcome { Match, Degraded, Quarantined, Unresolved };

/// One request against a fault-injected daemon, retried with reconnects
/// until a terminal outcome. Mirrors specpre-opt's --retries loop, minus
/// the backoff (the test wants pressure, not politeness).
Outcome chaseRequest(const std::string &SocketPath, const ServeRequest &Req,
                     const std::string &RefStdout, int MaxAttempts) {
  const std::string Encoded = encodeServeRequest(Req);
  for (int A = 0; A != MaxAttempts; ++A) {
    Expected<Socket> Conn = connectUnix(SocketPath, 5000);
    if (!Conn)
      continue;
    if (!writeFrame(*Conn, 'C', Encoded, 10000))
      continue; // injected write fault or torn pipe: reconnect
    Frame F;
    bool PeerClosed = false;
    if (!readFrame(*Conn, F, PeerClosed, 30000) || PeerClosed)
      continue;
    if (F.Type == 'B')
      continue; // shed under load: try again
    if (F.Type == 'E') {
      if (F.Payload.rfind("frame-error: ", 0) == 0)
        continue; // our frame arrived torn
      if (F.Payload.rfind("quarantined: ", 0) == 0)
        return Outcome::Quarantined;
      ADD_FAILURE() << "unexpected terminal error: " << F.Payload;
      return Outcome::Unresolved;
    }
    if (F.Type != 'R')
      continue;
    ServeResponse Resp;
    std::string Error;
    if (!decodeServeResponse(F.Payload, Resp, Error))
      continue; // response torn in transit
    if (!Resp.Ok)
      return Outcome::Unresolved;
    if (Resp.Degraded)
      return Outcome::Degraded;
    if (Resp.StdoutText == RefStdout)
      return Outcome::Match;
    ADD_FAILURE() << "non-degraded response diverged from local run";
    return Outcome::Unresolved;
  }
  return Outcome::Unresolved;
}

} // namespace

TEST(ChaosTest, ConcurrentChaosSweep) {
  // The suite: option surfaces that produce distinct outputs, so a
  // misrouted response would be caught by the bit-identity check.
  std::vector<ServeRequest> Suite;
  {
    ServeRequest R = basicRequest();
    Suite.push_back(R);
    R.Strategy = PreStrategy::SsaPre;
    Suite.push_back(R);
    R = basicRequest();
    R.Placement = CutPlacement::Earliest;
    R.Objective = CutObjective::size();
    Suite.push_back(R);
    R = basicRequest();
    R.Cleanup = true;
    R.Gvn = true;
    R.OutOfSsa = true;
    Suite.push_back(R);
    R = basicRequest();
    R.OnlyFunction = "cold";
    Suite.push_back(R);
    R = basicRequest();
    R.Strategy = PreStrategy::Lcm;
    R.TrainArgs.reset();
    Suite.push_back(R);
  }
#if SPECPRE_SANITIZED
  Suite.resize(3); // sanitizer builds: fewer requests, same machinery
#endif
  // The liveness probe after the sweep: a request the sweep never sends.
  // At 5% worker-kill plus 5% worker-crash the sweep may kill three
  // workers on one of its own requests, which is then rightly
  // quarantined and answered 'E'.
  ServeRequest Probe = basicRequest();
  Probe.OnlyFunction = "hot";
  std::vector<std::string> Refs;
  for (const ServeRequest &R : Suite) {
    ServeResponse Ref = localReference(R);
    ASSERT_TRUE(Ref.Ok);
    ASSERT_EQ(Ref.ExitCode, 0) << Ref.StderrText;
    Refs.push_back(Ref.StdoutText);
  }
  const ServeResponse ProbeRef = localReference(Probe);
  ASSERT_TRUE(ProbeRef.Ok);
  ASSERT_EQ(ProbeRef.ExitCode, 0) << ProbeRef.StderrText;
  for (const std::string &Ref : Refs)
    ASSERT_NE(ProbeRef.StdoutText, Ref) << "the probe repeats the sweep";

  namespace fs = std::filesystem;
  fs::path CacheDir = fs::temp_directory_path() / "specpre-chaos-sweep-cache";
  fs::remove_all(CacheDir);

  ServeServer::Config Cfg;
  Cfg.SocketPath = tempSocketPath("sweep");
  Cfg.IoTimeoutMs = 10000;
  Cfg.Service.RequestWorkers = 4;
  Cfg.Service.Isolation = IsolationMode::Process;
  Cfg.Service.QuarantineAfter = 3;
  Cfg.Service.Cache.DiskDir = CacheDir.string();
  ServeServer Server(Cfg);
  ASSERT_TRUE(Server.start().isOk());

  std::atomic<int> Matched{0}, DegradedN{0}, QuarantinedN{0}, Failed{0};
  {
    // Every write (client *and* server side) flips coins for torn
    // frames, partial writes, stalls and drops; every fork flips for
    // kills and crashes; every cache publish and read flips for torn,
    // rotten and failed disk I/O. 5% per site, as the contract demands.
    InjectionGuard Guard("torn-frame:0.05:21,partial-write:0.05:22,"
                         "delayed-write:0.05:23,dropped-connection:0.05:24,"
                         "worker-kill:0.05:25,worker-crash:0.05:26,"
                         "disk-short-write:0.05:27,disk-enospc:0.05:28,"
                         "disk-eio:0.05:29,disk-corrupt-byte:0.05:30,"
                         "disk-rename-fail:0.05:31");
    auto Client = [&](unsigned Shift) {
      for (unsigned I = 0; I != Suite.size(); ++I) {
        unsigned K = (I + Shift) % Suite.size();
        switch (chaseRequest(Cfg.SocketPath, Suite[K], Refs[K], 40)) {
        case Outcome::Match:
          Matched.fetch_add(1);
          break;
        case Outcome::Degraded:
          DegradedN.fetch_add(1);
          break;
        case Outcome::Quarantined:
          QuarantinedN.fetch_add(1);
          break;
        case Outcome::Unresolved:
          Failed.fetch_add(1);
          break;
        }
      }
    };
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C != 4; ++C)
      Clients.emplace_back(Client, C);
    for (std::thread &T : Clients)
      T.join();
  }

  EXPECT_EQ(Failed.load(), 0) << "requests failed to reach a terminal "
                                 "outcome within the attempt budget";
  EXPECT_EQ(Matched.load() + DegradedN.load() + QuarantinedN.load(),
            static_cast<int>(4 * Suite.size()));
  EXPECT_GT(Matched.load(), 0);

  // Injection is disarmed; the daemon must still be fully alive, and its
  // metrics must expose the new robustness counters.
  ServeResponse Final;
  {
    Expected<Socket> Conn = connectUnix(Cfg.SocketPath, 5000);
    ASSERT_TRUE(Conn.hasValue()) << Conn.status().toString();
    ASSERT_TRUE(
        writeFrame(*Conn, 'C', encodeServeRequest(Probe), 10000).isOk());
    Frame F;
    bool PeerClosed = false;
    ASSERT_TRUE(readFrame(*Conn, F, PeerClosed, 30000).isOk());
    ASSERT_FALSE(PeerClosed);
    ASSERT_EQ(F.Type, 'R') << F.Payload;
    std::string Error;
    ASSERT_TRUE(decodeServeResponse(F.Payload, Final, Error)) << Error;
    EXPECT_EQ(Final.StdoutText, ProbeRef.StdoutText);

    ASSERT_TRUE(writeFrame(*Conn, 'S', "", 5000).isOk());
    ASSERT_TRUE(readFrame(*Conn, F, PeerClosed, 5000).isOk());
    ASSERT_EQ(F.Type, 'T');
    for (const char *Key : {"\"worker_crashes\"", "\"deadline_kills\"",
                            "\"quarantined\"", "\"shed\"", "\"retries\"",
                            "\"corrupt_dropped\"", "\"breaker_opens\"",
                            "\"breaker_state\""})
      EXPECT_NE(F.Payload.find(Key), std::string::npos)
          << "stats JSON lacks " << Key << ": " << F.Payload;
  }

  Server.stop();
  ::unlink(Cfg.SocketPath.c_str());
  fs::remove_all(CacheDir);
}

TEST(ChaosTest, DiskStormNeverServesCorruptBytes) {
  // All five disk sites at a brutal 20%, nothing else armed: compile
  // outcomes stay input-pure, so a faulting cache may only ever cost a
  // recompile. Every response — cold and warm, while entries are being
  // torn, rotted and refused around it — must be bit-identical. A single
  // Degraded or Quarantined outcome here is a bug.
  std::vector<ServeRequest> Suite;
  {
    ServeRequest R = basicRequest();
    Suite.push_back(R);
    R.Strategy = PreStrategy::SsaPre;
    Suite.push_back(R);
    R = basicRequest();
    R.Placement = CutPlacement::Earliest;
    Suite.push_back(R);
  }
  std::vector<std::string> Refs;
  for (const ServeRequest &R : Suite) {
    ServeResponse Ref = localReference(R);
    ASSERT_TRUE(Ref.Ok);
    Refs.push_back(Ref.StdoutText);
  }

  namespace fs = std::filesystem;
  fs::path CacheDir = fs::temp_directory_path() / "specpre-chaos-storm-cache";
  fs::remove_all(CacheDir);

  ServeServer::Config Cfg;
  Cfg.SocketPath = tempSocketPath("storm");
  Cfg.IoTimeoutMs = 10000;
  Cfg.Service.RequestWorkers = 2;
  Cfg.Service.Cache.DiskDir = CacheDir.string();
  // A tight breaker so the storm demonstrably trips and heals it.
  Cfg.Service.Cache.BreakerThreshold = 2;
  Cfg.Service.Cache.BreakerCooldownMs = 50;
  Cfg.Service.CacheScrubIntervalMs = 100; // scrub concurrently with load
  ServeServer Server(Cfg);
  ASSERT_TRUE(Server.start().isOk());

  {
    InjectionGuard Guard("disk-short-write:0.2:41,disk-enospc:0.2:42,"
                         "disk-eio:0.2:43,disk-corrupt-byte:0.2:44,"
                         "disk-rename-fail:0.2:45");
    for (unsigned Round = 0; Round != 6; ++Round)
      for (unsigned I = 0; I != Suite.size(); ++I)
        EXPECT_EQ(chaseRequest(Cfg.SocketPath, Suite[I], Refs[I], 10),
                  Outcome::Match)
            << "round " << Round << " request " << I;
  }

  // The storm has passed: the daemon is alive and its counters show the
  // cache took the damage, not the responses.
  {
    Expected<Socket> Conn = connectUnix(Cfg.SocketPath, 5000);
    ASSERT_TRUE(Conn.hasValue()) << Conn.status().toString();
    ASSERT_TRUE(writeFrame(*Conn, 'S', "", 5000).isOk());
    Frame F;
    bool PeerClosed = false;
    ASSERT_TRUE(readFrame(*Conn, F, PeerClosed, 5000).isOk());
    ASSERT_EQ(F.Type, 'T');
    for (const char *Key :
         {"\"corrupt_dropped\"", "\"disk_io_errors\"", "\"breaker_opens\"",
          "\"scrub_scanned\"", "\"scrub_quarantined\""})
      EXPECT_NE(F.Payload.find(Key), std::string::npos)
          << "stats JSON lacks " << Key << ": " << F.Payload;
  }

  Server.stop();
  ::unlink(Cfg.SocketPath.c_str());
  fs::remove_all(CacheDir);
}

#endif // !SPECPRE_TSAN
