//===- tools/specpre-serve.cpp - Compilation service daemon ---------------===//
//
// A long-lived compilation server over a Unix-domain socket:
//
//   specpre-serve --socket=PATH [options]
//
//     --socket=PATH          Unix-domain socket to listen on (required)
//     --jobs=N               threads that compile a request's functions,
//                            one function per thread (0 = all cores)
//     --request-workers=N    concurrent requests in execution (default 2)
//     --cache-dir=PATH       shared on-disk cache directory
//     --cache=on|off         in-process compile cache (default on)
//     --cache-max-entries=N  in-memory LRU capacity (default 4096)
//     --cache-max-disk-mb=N  disk-tier size cap; LRU-evicted (0 = unbounded)
//     --cache-durable=on|off fsync entries + directory before each publish
//                            rename (default off; docs/CACHING.md)
//     --cache-breaker-threshold=N    consecutive disk failures that open
//                            the disk-tier circuit breaker (0 = disabled,
//                            default 8)
//     --cache-breaker-cooldown-ms=N  open-breaker cooldown before
//                            half-open probes (default 2000)
//     --cache-scrub-interval-ms=N    background checksum scrubber cadence
//                            (0 = off); corrupt entries are quarantined
//     --cache-scrub-bytes-per-sec=N  scrub read-rate ceiling so scrubbing
//                            never competes with compiles (default 4 MiB/s)
//     --io-timeout-ms=N      per-frame socket read/write budget (default 10000)
//     --max-requests=N       exit after N compile requests (0 = forever)
//     --metrics-out=PATH     write merged pipeline metrics JSON on shutdown
//     --isolate=MODE         in-process (default) or process: fork one
//                            sandbox worker per request so a crashing
//                            compile never takes the daemon down
//     --request-deadline-ms=N  per-request wall-clock deadline (0 = none)
//     --worker-mem-mb=N      RLIMIT_DATA cap for sandbox workers (0 = none)
//     --quarantine-after=N   worker deaths before a request is quarantined
//     --queue-depth=N        bounded request queue; beyond it clients get a
//                            'B' (busy) frame (0 = unbounded)
//     --pidfile=PATH         write the daemon pid; removed on clean exit
//     --inject-faults=SPEC   deterministic chaos (site:rate[:seed], for the
//                            chaos smoke tests — see docs/ROBUSTNESS.md)
//
// Clients connect with `specpre-opt --connect=PATH <file>` (or any
// speaker of the framed protocol in docs/SERVING.md). SIGTERM/SIGINT
// drain in-flight requests, flush their responses, then exit 0. The
// daemon refuses to start when another live daemon already serves the
// socket path; a stale socket file from a dead daemon is replaced.
//
//===----------------------------------------------------------------------===//

#include "pre/CompileService.h"
#include "support/CrashContext.h"
#include "support/FaultInjector.h"
#include "support/LineCodec.h"

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include <unistd.h>

using namespace specpre;

namespace {

std::sig_atomic_t volatile StopSignal = 0;

void onStopSignal(int) { StopSignal = 1; }

struct ServeOptions {
  ServeServer::Config Server;
  std::string MetricsOutPath;
  std::string PidfilePath;
  std::string InjectFaults;
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [--jobs=N] [--request-workers=N]\n"
               "          [--cache-dir=PATH] [--cache=on|off]\n"
               "          [--cache-max-entries=N] [--cache-max-disk-mb=N]\n"
               "          [--cache-durable=on|off]\n"
               "          [--cache-breaker-threshold=N]\n"
               "          [--cache-breaker-cooldown-ms=N]\n"
               "          [--cache-scrub-interval-ms=N]\n"
               "          [--cache-scrub-bytes-per-sec=N]\n"
               "          [--io-timeout-ms=N] [--max-requests=N]\n"
               "          [--metrics-out=PATH]\n"
               "          [--isolate=in-process|process]\n"
               "          [--request-deadline-ms=N] [--worker-mem-mb=N]\n"
               "          [--quarantine-after=N] [--queue-depth=N]\n"
               "          [--pidfile=PATH] [--inject-faults=SPEC]\n",
               Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, ServeOptions &Opts) {
  CompileService::Config &Svc = Opts.Server.Service;
  CompileCache::Config &Cache = Svc.Cache;
  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Prefix) -> std::optional<std::string> {
      size_t N = std::strlen(Prefix);
      if (A.rfind(Prefix, 0) == 0)
        return A.substr(N);
      return std::nullopt;
    };
    // Numeric values go through the request codec's strict parsers:
    // digits only, no sign, no trailing garbage, no wrap-around.
    auto BadInt = [&](const char *Flag, const std::string &V) {
      std::fprintf(stderr, "error: bad %s value '%s'\n", Flag, V.c_str());
      return false;
    };
    // A size in MiB, whose byte count must fit in 64 bits too.
    auto ParseMb = [](const std::string &V, uint64_t &Mb) {
      return linecodec::parseU64(V, Mb) && Mb <= UINT64_MAX >> 20;
    };
    if (auto V = Value("--socket=")) {
      Opts.Server.SocketPath = *V;
    } else if (auto V = Value("--jobs=")) {
      if (!linecodec::parseU32(*V, Svc.Jobs))
        return BadInt("--jobs", *V);
    } else if (auto V = Value("--request-workers=")) {
      if (!linecodec::parseU32(*V, Svc.RequestWorkers))
        return BadInt("--request-workers", *V);
    } else if (auto V = Value("--cache-dir=")) {
      Cache.DiskDir = *V;
    } else if (auto V = Value("--cache=")) {
      if (*V == "on")
        Cache.Mode = CacheMode::On;
      else if (*V == "off")
        Cache.Mode = CacheMode::Off;
      else {
        std::fprintf(stderr, "error: bad --cache mode '%s'\n", V->c_str());
        return false;
      }
    } else if (auto V = Value("--cache-max-entries=")) {
      if (!linecodec::parseU64(*V, Cache.MaxEntries))
        return BadInt("--cache-max-entries", *V);
    } else if (auto V = Value("--cache-max-disk-mb=")) {
      uint64_t Mb;
      if (!ParseMb(*V, Mb))
        return BadInt("--cache-max-disk-mb", *V);
      Cache.MaxDiskBytes = Mb << 20;
    } else if (auto V = Value("--cache-durable=")) {
      if (*V == "on")
        Cache.Durable = true;
      else if (*V == "off")
        Cache.Durable = false;
      else {
        std::fprintf(stderr, "error: bad --cache-durable value '%s'\n",
                     V->c_str());
        return false;
      }
    } else if (auto V = Value("--cache-breaker-threshold=")) {
      if (!linecodec::parseU64(*V, Cache.BreakerThreshold))
        return BadInt("--cache-breaker-threshold", *V);
    } else if (auto V = Value("--cache-breaker-cooldown-ms=")) {
      if (!linecodec::parseU64(*V, Cache.BreakerCooldownMs))
        return BadInt("--cache-breaker-cooldown-ms", *V);
    } else if (auto V = Value("--cache-scrub-interval-ms=")) {
      if (!linecodec::parseU64(*V, Svc.CacheScrubIntervalMs))
        return BadInt("--cache-scrub-interval-ms", *V);
    } else if (auto V = Value("--cache-scrub-bytes-per-sec=")) {
      if (!linecodec::parseU64(*V, Svc.CacheScrubBytesPerSec))
        return BadInt("--cache-scrub-bytes-per-sec", *V);
    } else if (auto V = Value("--io-timeout-ms=")) {
      unsigned Ms;
      if (!linecodec::parseU32(*V, Ms) || Ms > INT_MAX)
        return BadInt("--io-timeout-ms", *V);
      Opts.Server.IoTimeoutMs = static_cast<int>(Ms);
    } else if (auto V = Value("--max-requests=")) {
      if (!linecodec::parseU64(*V, Opts.Server.MaxRequests))
        return BadInt("--max-requests", *V);
    } else if (auto V = Value("--metrics-out=")) {
      Opts.MetricsOutPath = *V;
    } else if (auto V = Value("--isolate=")) {
      if (*V == "in-process")
        Svc.Isolation = IsolationMode::InProcess;
      else if (*V == "process")
        Svc.Isolation = IsolationMode::Process;
      else {
        std::fprintf(stderr, "error: bad --isolate mode '%s'\n", V->c_str());
        return false;
      }
    } else if (auto V = Value("--request-deadline-ms=")) {
      if (!linecodec::parseU64(*V, Svc.RequestDeadlineMs))
        return BadInt("--request-deadline-ms", *V);
    } else if (auto V = Value("--worker-mem-mb=")) {
      if (!ParseMb(*V, Svc.WorkerMemLimitMb))
        return BadInt("--worker-mem-mb", *V);
    } else if (auto V = Value("--quarantine-after=")) {
      if (!linecodec::parseU32(*V, Svc.QuarantineAfter))
        return BadInt("--quarantine-after", *V);
    } else if (auto V = Value("--queue-depth=")) {
      if (!linecodec::parseU64(*V, Svc.QueueMaxDepth))
        return BadInt("--queue-depth", *V);
    } else if (auto V = Value("--pidfile=")) {
      Opts.PidfilePath = *V;
    } else if (auto V = Value("--inject-faults=")) {
      Opts.InjectFaults = *V;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      return false;
    }
  }
  return !Opts.Server.SocketPath.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  installCrashSignalHandlers();
  ServeOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);

  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGINT, onStopSignal);

  if (!Opts.InjectFaults.empty()) {
    if (Status St = configureFaultInjection(Opts.InjectFaults); !St) {
      std::fprintf(stderr, "error: --inject-faults: %s\n",
                   St.toString().c_str());
      return 1;
    }
  }

  ServeServer Server(Opts.Server);
  if (Status St = Server.start(); !St) {
    std::fprintf(stderr, "error: %s\n", St.toString().c_str());
    return 1;
  }
  if (!Opts.PidfilePath.empty()) {
    // Written only after start() succeeded: a pidfile must never point
    // at a daemon that lost the socket-path race and exited.
    std::ofstream Pid(Opts.PidfilePath);
    if (!Pid) {
      std::fprintf(stderr, "error: cannot write pidfile '%s'\n",
                   Opts.PidfilePath.c_str());
      Server.stop();
      return 1;
    }
    Pid << ::getpid() << "\n";
  }
  std::fprintf(stderr, "specpre-serve: listening on %s (jobs=%u)\n",
               Opts.Server.SocketPath.c_str(), Server.service().jobs());

  // The signal handler only sets a flag; the main thread polls it so
  // the actual teardown (joins, queue drain, socket closes) runs in
  // normal context, never inside a handler.
  while (!StopSignal && !Server.servedEnough())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::fprintf(stderr, "specpre-serve: draining and shutting down\n");
  Server.stop();
  if (!Opts.PidfilePath.empty())
    std::remove(Opts.PidfilePath.c_str());

  PipelineMetrics M = Server.service().metricsSnapshot();
  if (!Opts.MetricsOutPath.empty()) {
    std::ofstream Out(Opts.MetricsOutPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.MetricsOutPath.c_str());
      return 1;
    }
    Out << M.toJson(Server.service().jobs()) << "\n";
  }
  const ServiceCounters &S = M.service();
  std::fprintf(stderr,
               "specpre-serve: served=%llu ok=%llu failed=%llu "
               "degraded=%llu queue_peak=%llu\n",
               static_cast<unsigned long long>(S.RequestsReceived),
               static_cast<unsigned long long>(S.RequestsSucceeded),
               static_cast<unsigned long long>(S.RequestsFailed),
               static_cast<unsigned long long>(S.RequestsDegraded),
               static_cast<unsigned long long>(S.QueueDepthPeak));
  return 0;
}
