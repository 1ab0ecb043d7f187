//===- bench/serve_throughput.cpp - Compilation service load test ---------------===//
//
// Usage:
//   serve_throughput [--clients=N] [--json-out=PATH] [--smoke] [--chaos]
//
// Drives an in-process specpre-serve instance (real Unix socket, real
// frame protocol — only the process boundary is elided) with N
// concurrent clients, each walking the CPU2006 stand-in suite. Two
// waves: the first populates the shared cache, the second must be
// served warm from it. Reports requests/sec, p50/p99 latency and the
// cache hit rate, and *fails* (exit 1) if
//
//  * any served response differs from a local specpre-opt-equivalent
//    compile of the same request (the bit-identity contract), or
//  * the warm wave's cache hit rate is zero (clients are not actually
//    sharing the cache tier).
//
// On a single-core container the clients mostly measure queueing, not
// parallel speedup; the numbers still exercise the full contended path
// (accept loop, per-connection readers, request queue, shared cache).
//
// The JSON carries the daemon's metrics document (the one
// --metrics-out writes) under "metrics".
//
// --chaos switches the daemon to --isolate=process with a real disk
// cache tier, arms torn-frame, worker-kill and all five disk fault
// sites (short writes, ENOSPC, EIO, bit rot, rename failures) at 5%,
// and drives retry-aware clients: the reported req/s is degraded-mode
// throughput, and the JSON gains a "chaos" section with what only the
// clients observe (shed rate, degraded and quarantined answers). A
// post-storm scrub pass's scanned/quarantined counts land in the
// document's "cache" group. The warm-hit-rate gate is skipped — under
// injected disk faults a warm miss is the contract working, not a bug.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "ir/Printer.h"
#include "pre/CompileService.h"
#include "support/FaultInjector.h"
#include "workload/SpecSuite.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace specpre;
using namespace specpre::benchreport;

namespace {

struct WorkItem {
  std::string Name;
  ServeRequest Req;
  std::string WantStdout; ///< Local reference for bit-identity.
  int WantExit = 0;
};

/// Latencies of one wave, in milliseconds, across all clients.
struct WaveResult {
  std::vector<double> LatMs;
  double WallMs = 0;
  uint64_t Mismatches = 0;
  uint64_t Degraded = 0;    ///< chaos mode: explicitly degraded answers
  uint64_t Quarantined = 0; ///< chaos mode: poisoned-request verdicts
};

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(P * (V.size() - 1) + 0.5);
  return V[I];
}

/// Chaos-mode exchange: reconnect-and-resend until a terminal outcome,
/// the same loop `specpre-opt --retries` runs. Returns false only when
/// the attempt budget ran dry.
bool chaosExchange(const std::string &SocketPath, const std::string &Encoded,
                   ServeResponse &Resp, bool &Quarantined) {
  Quarantined = false;
  for (int A = 0; A != 40; ++A) {
    Expected<Socket> Conn = connectUnix(SocketPath, 5000);
    if (!Conn)
      continue;
    if (!writeFrame(*Conn, 'C', Encoded, 30000))
      continue;
    Frame F;
    bool PeerClosed = false;
    if (!readFrame(*Conn, F, PeerClosed, 120000) || PeerClosed)
      continue;
    if (F.Type == 'B')
      continue;
    if (F.Type == 'E') {
      if (F.Payload.rfind("frame-error: ", 0) == 0)
        continue;
      Quarantined = F.Payload.rfind("quarantined: ", 0) == 0;
      return Quarantined; // other terminal errors count as failures
    }
    if (F.Type != 'R')
      continue;
    std::string Error;
    if (decodeServeResponse(F.Payload, Resp, Error))
      return true;
  }
  return false;
}

/// One client: connect once, run every item through the daemon, record
/// per-request latency, compare against the local reference.
void runClient(const std::string &SocketPath,
               const std::vector<WorkItem> &Items, bool Chaos,
               WaveResult &Out, std::mutex &OutMu) {
  if (Chaos) {
    std::vector<double> Lat;
    uint64_t Bad = 0, Degraded = 0, Quar = 0;
    for (const WorkItem &W : Items) {
      auto T0 = std::chrono::steady_clock::now();
      ServeResponse Resp;
      bool Quarantined = false;
      if (!chaosExchange(SocketPath, encodeServeRequest(W.Req), Resp,
                         Quarantined)) {
        std::fprintf(stderr, "UNRESOLVED after 40 attempts: %s\n",
                     W.Name.c_str());
        ++Bad;
        continue;
      }
      auto T1 = std::chrono::steady_clock::now();
      Lat.push_back(
          std::chrono::duration<double, std::milli>(T1 - T0).count());
      if (Quarantined) {
        ++Quar;
      } else if (Resp.Degraded) {
        ++Degraded;
      } else if (!Resp.Ok || Resp.ExitCode != W.WantExit ||
                 Resp.StdoutText != W.WantStdout) {
        std::fprintf(stderr, "MISMATCH on %s (exit %d vs %d)\n",
                     W.Name.c_str(), Resp.ExitCode, W.WantExit);
        ++Bad;
      }
    }
    std::lock_guard<std::mutex> Lock(OutMu);
    Out.LatMs.insert(Out.LatMs.end(), Lat.begin(), Lat.end());
    Out.Mismatches += Bad;
    Out.Degraded += Degraded;
    Out.Quarantined += Quar;
    return;
  }
  Expected<Socket> Conn = connectUnix(SocketPath, 5000);
  if (!Conn) {
    std::fprintf(stderr, "client connect failed: %s\n",
                 Conn.status().toString().c_str());
    std::lock_guard<std::mutex> Lock(OutMu);
    Out.Mismatches += Items.size();
    return;
  }
  std::vector<double> Lat;
  uint64_t Bad = 0;
  for (const WorkItem &W : Items) {
    auto T0 = std::chrono::steady_clock::now();
    ServeResponse Resp;
    Frame F;
    bool PeerClosed = false;
    std::string Error;
    if (!writeFrame(*Conn, 'C', encodeServeRequest(W.Req), 30000) ||
        !readFrame(*Conn, F, PeerClosed, 120000) || PeerClosed ||
        F.Type != 'R' || !decodeServeResponse(F.Payload, Resp, Error)) {
      ++Bad;
      continue;
    }
    auto T1 = std::chrono::steady_clock::now();
    Lat.push_back(
        std::chrono::duration<double, std::milli>(T1 - T0).count());
    if (!Resp.Ok || Resp.ExitCode != W.WantExit ||
        Resp.StdoutText != W.WantStdout) {
      std::fprintf(stderr, "MISMATCH on %s (exit %d vs %d)\n",
                   W.Name.c_str(), Resp.ExitCode, W.WantExit);
      ++Bad;
    }
  }
  std::lock_guard<std::mutex> Lock(OutMu);
  Out.LatMs.insert(Out.LatMs.end(), Lat.begin(), Lat.end());
  Out.Mismatches += Bad;
}

WaveResult runWave(const std::string &SocketPath, unsigned Clients,
                   const std::vector<WorkItem> &Items, bool Chaos) {
  WaveResult R;
  std::mutex Mu;
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back(runClient, std::cref(SocketPath), std::cref(Items),
                         Chaos, std::ref(R), std::ref(Mu));
  for (std::thread &T : Threads)
    T.join();
  R.WallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - T0)
                 .count();
  return R;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Clients = 8;
  std::string JsonOut;
  bool Smoke = false;
  bool Chaos = false;
  for (int I = 1; I != argc; ++I) {
    if (std::strncmp(argv[I], "--clients=", 10) == 0)
      Clients = static_cast<unsigned>(std::atoi(argv[I] + 10));
    else if (std::strncmp(argv[I], "--json-out=", 11) == 0)
      JsonOut = argv[I] + 11;
    else if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strcmp(argv[I], "--chaos") == 0)
      Chaos = true;
    else {
      std::fprintf(stderr,
                   "usage: serve_throughput [--clients=N] "
                   "[--json-out=PATH] [--smoke] [--chaos]\n");
      return 2;
    }
  }
  if (Clients == 0)
    Clients = 1;

  printTitle("specpre-serve throughput: concurrent clients, shared cache");

  // The workload: each suite program as a full serve request, with its
  // local (daemon-free) compile as the bit-identity reference.
  std::vector<WorkItem> Items;
  {
    ParallelConfig PC;
    PC.Jobs = 1;
    ParallelPreDriver Local(PC);
    std::vector<BenchmarkSpec> Suite = fullCpu2006Suite();
    if (Smoke)
      Suite.resize(std::min<size_t>(Suite.size(), 4));
    for (const BenchmarkSpec &Spec : Suite) {
      WorkItem W;
      W.Name = Spec.Name;
      W.Req.ModuleText = printFunction(Spec.buildProgram());
      W.Req.Strategy = PreStrategy::McSsaPre;
      W.Req.TrainArgs = Spec.TrainArgs;
      ServeResponse Ref = processServeRequest(W.Req, Local, nullptr, nullptr);
      W.WantStdout = Ref.StdoutText;
      W.WantExit = Ref.ExitCode;
      Items.push_back(std::move(W));
    }
  }
  std::printf("workload: %zu programs x %u clients, 2 waves\n\n",
              Items.size(), Clients);

  ServeServer::Config Cfg;
  Cfg.SocketPath =
      "/tmp/specpre-serve-bench-" + std::to_string(getpid()) + ".sock";
  Cfg.Service.RequestWorkers = std::max(2u, Clients / 2);
  std::filesystem::path ChaosCacheDir;
  if (Chaos) {
    Cfg.Service.Isolation = IsolationMode::Process;
    Cfg.Service.QuarantineAfter = 3;
    // A real disk tier so the disk fault sites have traffic to damage.
    ChaosCacheDir = std::filesystem::temp_directory_path() /
                    ("specpre-serve-bench-cache-" + std::to_string(getpid()));
    std::filesystem::remove_all(ChaosCacheDir);
    Cfg.Service.Cache.DiskDir = ChaosCacheDir.string();
    Status St = configureFaultInjection(
        "torn-frame:0.05:31,worker-kill:0.05:32,"
        "disk-short-write:0.05:33,disk-enospc:0.05:34,disk-eio:0.05:35,"
        "disk-corrupt-byte:0.05:36,disk-rename-fail:0.05:37");
    if (!St) {
      std::fprintf(stderr, "chaos arm failed: %s\n", St.toString().c_str());
      return 1;
    }
    std::printf("chaos: process isolation, torn-frame, worker-kill and "
                "five disk fault sites at 5%%, retrying clients\n\n");
  }
  ServeServer Server(Cfg);
  Status St = Server.start();
  if (!St) {
    std::fprintf(stderr, "server start failed: %s\n", St.toString().c_str());
    return 1;
  }

  WaveResult Cold = runWave(Cfg.SocketPath, Clients, Items, Chaos);
  CacheCounters AfterCold = Server.service().cache()->counters();
  WaveResult Warm = runWave(Cfg.SocketPath, Clients, Items, Chaos);
  CacheCounters AfterWarm = Server.service().cache()->counters();
  disableFaultInjection();
  if (Chaos) {
    // Post-storm scrub: quarantine whatever rot the waves left behind so
    // the reported counters cover the full detect-and-heal cycle.
    CompileCache::ScrubReport Scrub =
        Server.service().cache()->scrubDiskTier();
    std::printf("scrub: scanned %llu entries, quarantined %llu\n",
                (unsigned long long)Scrub.Scanned,
                (unsigned long long)Scrub.Quarantined);
  }
  PipelineMetrics Metrics = Server.service().metricsSnapshot();
  Server.stop();
  ::unlink(Cfg.SocketPath.c_str());
  if (!ChaosCacheDir.empty())
    std::filesystem::remove_all(ChaosCacheDir);

  uint64_t WarmHits = AfterWarm.Hits - AfterCold.Hits;
  uint64_t WarmLookups =
      (AfterWarm.Hits + AfterWarm.Misses) - (AfterCold.Hits + AfterCold.Misses);
  double WarmHitRate = WarmLookups ? double(WarmHits) / WarmLookups : 0;

  std::printf("%8s %10s %10s %10s %10s %10s\n", "wave", "req/s", "p50 ms",
              "p99 ms", "wall ms", "hit rate");
  auto Row = [&](const char *Name, const WaveResult &W, double HitRate) {
    double Rps = W.WallMs > 0 ? 1000.0 * W.LatMs.size() / W.WallMs : 0;
    std::printf("%8s %10.1f %10.2f %10.2f %10.1f %9.0f%%\n", Name, Rps,
                percentile(W.LatMs, 0.50), percentile(W.LatMs, 0.99),
                W.WallMs, HitRate * 100);
  };
  uint64_t ColdLookups = AfterCold.Hits + AfterCold.Misses;
  Row("cold", Cold,
      ColdLookups ? double(AfterCold.Hits) / ColdLookups : 0);
  Row("warm", Warm, WarmHitRate);
  printRule();
  std::printf("served: %llu requests, queue depth peak %llu, "
              "degraded %llu, failed %llu\n",
              (unsigned long long)Metrics.service().RequestsReceived,
              (unsigned long long)Metrics.service().QueueDepthPeak,
              (unsigned long long)Metrics.service().RequestsDegraded,
              (unsigned long long)Metrics.service().RequestsFailed);
  uint64_t TotalReqs = Metrics.service().RequestsReceived;
  double ShedRate =
      TotalReqs ? double(Metrics.service().Shed) / TotalReqs : 0;
  if (Chaos) {
    std::printf("chaos:  worker crashes %llu, deadline kills %llu, "
                "retries %llu, quarantined %llu, shed %llu (%.1f%%), "
                "degraded answers %llu\n",
                (unsigned long long)Metrics.service().WorkerCrashes,
                (unsigned long long)Metrics.service().DeadlineKills,
                (unsigned long long)Metrics.service().Retries,
                (unsigned long long)(Cold.Quarantined + Warm.Quarantined),
                (unsigned long long)Metrics.service().Shed, ShedRate * 100,
                (unsigned long long)(Cold.Degraded + Warm.Degraded));
    std::printf("disk:   corrupt dropped %llu, io errors %llu, "
                "breaker opens %llu, scrub quarantined %llu\n",
                (unsigned long long)Metrics.cache().CorruptDropped,
                (unsigned long long)Metrics.cache().DiskIoErrors,
                (unsigned long long)Metrics.cache().BreakerOpens,
                (unsigned long long)Metrics.cache().ScrubQuarantined);
  }

  if (!JsonOut.empty()) {
    std::string Json = "{\n  \"smoke\": ";
    Json += Smoke ? "true" : "false";
    Json += ",\n  \"clients\": " + std::to_string(Clients);
    Json += ",\n  \"programs\": " + std::to_string(Items.size());
    auto Wave = [&](const char *Name, const WaveResult &W) {
      char Buf[256];
      double Rps = W.WallMs > 0 ? 1000.0 * W.LatMs.size() / W.WallMs : 0;
      std::snprintf(Buf, sizeof(Buf),
                    ",\n  \"%s\": {\"requests\": %zu, "
                    "\"requests_per_sec\": %.2f, \"p50_ms\": %.3f, "
                    "\"p99_ms\": %.3f, \"wall_ms\": %.1f}",
                    Name, W.LatMs.size(), Rps, percentile(W.LatMs, 0.50),
                    percentile(W.LatMs, 0.99), W.WallMs);
      Json += Buf;
    };
    Wave("cold", Cold);
    Wave("warm", Warm);
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), ",\n  \"warm_hit_rate\": %.4f",
                  WarmHitRate);
    Json += Buf;
    Json += ",\n  \"metrics\": " + Metrics.toJson(Server.service().jobs());
    if (Chaos) {
      // What only the clients saw; the daemon's counters are in "metrics".
      std::snprintf(Buf, sizeof(Buf),
                    ",\n  \"chaos\": {\"shed_rate\": %.4f, "
                    "\"degraded\": %llu, \"quarantined\": %llu}",
                    ShedRate,
                    (unsigned long long)(Cold.Degraded + Warm.Degraded),
                    (unsigned long long)(Cold.Quarantined + Warm.Quarantined));
      Json += Buf;
    }
    Json += "\n}\n";
    std::FILE *Out = std::fopen(JsonOut.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", JsonOut.c_str());
      return 1;
    }
    std::fwrite(Json.data(), 1, Json.size(), Out);
    std::fclose(Out);
    std::printf("wrote %s\n", JsonOut.c_str());
  }

  uint64_t Mismatches = Cold.Mismatches + Warm.Mismatches;
  if (Mismatches) {
    std::fprintf(stderr,
                 "FATAL: %llu response(s) diverged from the local compile\n",
                 (unsigned long long)Mismatches);
    return 1;
  }
  if (WarmHitRate <= 0 && !Chaos) {
    // In chaos mode injected disk faults legitimately turn warm hits
    // into clean recompiles (and the sandbox workers keep their own
    // per-fork cache handles); the bit-identity gate above still
    // applies in full.
    std::fprintf(stderr, "FATAL: warm wave never hit the shared cache\n");
    return 1;
  }
  if (Chaos)
    std::printf("all %zu responses bit-identical, degraded or "
                "quarantined under 5%% fault injection\n",
                (size_t)(Items.size() * Clients * 2));
  else
    std::printf("all %zu responses bit-identical to local compiles; "
                "warm hit rate %.0f%%\n",
                (size_t)(Items.size() * Clients * 2), WarmHitRate * 100);
  return 0;
}
