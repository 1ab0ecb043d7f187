//===- tools/specpre-opt.cpp - Command-line PRE driver --------------------------===//
//
// The command-line face of the library:
//
//   specpre-opt [options] <file>
//
//     --strategy=<ssapre|ssapresp|mcssapre|lospre|mcpre|lcm|none>
//                           (default mcssapre)
//     --lospre-max-width=N  leg D's treewidth budget (0-64, default 8);
//                           EFGs wider than this bail out to MC-SSAPRE
//     --train=<a,b,...>     arguments for the profile-collection run
//     --run=<a,b,...>       interpret the result and report costs
//     --placement=<latest|earliest>   min-cut tie-breaking
//     --cleanup             run constant folding / copy prop / DCE after
//     --gvn                 run dominator-scoped value numbering after
//     --out-of-ssa          lower phis to copies (backend-ready output)
//     --profile-out=<path>  persist the training profile
//     --profile-in=<path>   reuse a persisted profile (skip training)
//     --dot-cfg=<path>      append the prepared CFG as Graphviz
//     --dot-frg=<path>      append the annotated FRGs/EFGs as Graphviz
//     --stats               dump per-expression PRE statistics
//     --no-emit             do not print the optimized IR
//     --function=<name>     restrict to one function
//     --jobs=N              threads that compile the module's functions,
//                           one function per thread (output is
//                           bit-identical to --jobs=1); 0 = all cores
//     --metrics-out=<path>  write per-step pipeline timing as JSON
//     --budget-ms=N         per-function compile deadline (degrades on
//                           exhaustion instead of failing)
//     --max-augmentations=N per-function max-flow augmentation cap
//     --max-graph-nodes=N   per-function FRG/EFG node cap
//     --inject-faults=SPEC  deterministic fault injection, SPEC =
//                           site:rate[:seed][,site:rate...] or all:rate
//     --report-outcomes     always report the ladder outcome per function
//                           (degradations are reported regardless, on
//                           stderr, so stdout stays bit-identical)
//     --cache-dir=PATH      on-disk compilation cache directory (implies
//                           --cache=on); see docs/CACHING.md
//     --cache=on|off|verify content-addressed compilation cache; verify
//                           recompiles every hit and asserts the cached
//                           entry is bit-identical (exit 1 on mismatch)
//     --cache-durable=on|off fsync cache entries + directory before each
//                           publish rename (default off; docs/CACHING.md)
//     --cache-scrub         one-shot scrub of --cache-dir: validate every
//                           entry's checksum trailer, quarantine corrupt
//                           entries, report, exit (no input file needed)
//     --connect=PATH        client mode: send the compile to a running
//                           specpre-serve daemon at this socket instead
//                           of compiling locally; stdout, stderr and the
//                           exit code are a local run's, which runs the
//                           same request through the same
//                           processServeRequest (docs/SERVING.md). Flags
//                           that only make sense locally (--dot-*, --run,
//                           --stats, --profile-out, --metrics-out,
//                           --inject-faults, --cache*, --jobs) are
//                           rejected in this mode.
//     --timeout-ms=N        client mode: per-frame I/O budget against the
//                           daemon (default 60000)
//     --retries=N           client mode: reconnect and resend after a
//                           transport failure or a 'B' (busy) frame, up
//                           to N times with exponential backoff
//                           (default 0); request-level 'E' errors are
//                           terminal and never retried
//     --retry-seed=N        client mode: seed for the deterministic
//                           backoff jitter (default 0)
//
// Input syntax: see ir/Parser.h (examples/programs/*.spre).
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "interp/Interpreter.h"
#include "pre/CompileService.h"
#include "pre/DotExport.h"
#include "pre/ParallelDriver.h"
#include "pre/PreDriver.h"
#include "ssa/SsaConstruction.h"
#include "support/CompileCache.h"
#include "support/CrashContext.h"
#include "support/FaultInjector.h"
#include "support/LineCodec.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace specpre;

namespace {

struct ToolOptions {
  PreStrategy Strategy = PreStrategy::McSsaPre;
  std::optional<std::vector<int64_t>> TrainArgs;
  std::optional<std::vector<int64_t>> RunArgs;
  CutPlacement Placement = CutPlacement::Latest;
  MaxFlowAlgorithm Algo = MaxFlowAlgorithm::Dinic;
  CutObjective Objective = CutObjective::speed();
  bool Cleanup = false;
  bool Gvn = false;
  bool OutOfSsa = false;
  bool Stats = false;
  bool Emit = true;
  std::string DotCfgPath;    ///< write the prepared CFG as DOT
  std::string DotFrgPath;    ///< write annotated FRGs as DOT
  std::string ProfileOutPath; ///< persist the training profile
  std::string ProfileInPath;  ///< reuse a persisted profile, skip training
  std::string MetricsOutPath; ///< write pipeline step timings as JSON
  std::string OnlyFunction;
  std::string InputPath;
  unsigned Jobs = 1; ///< Threads compiling functions; 0 = all cores
  CompileBudget Budget;     ///< per-function resource limits
  unsigned LospreMaxWidth = 8; ///< leg D treewidth budget
  std::string InjectFaults; ///< fault-injection spec ("" = disabled)
  bool ReportOutcomes = false; ///< report ladder outcome per function
  std::string CacheDir;        ///< on-disk cache directory ("" = memory-only)
  std::optional<CacheMode> Cache; ///< unset = on iff --cache-dir given
  bool CacheDurable = false;   ///< fsync-before-rename disk publishes
  bool CacheScrub = false;     ///< one-shot disk-tier scrub, then exit
  std::string ConnectPath; ///< serve-daemon socket ("" = compile locally)
  bool JobsGiven = false;  ///< --jobs was on the command line
  int TimeoutMs = 60000;   ///< client mode: per-frame I/O budget
  unsigned Retries = 0;    ///< client mode: attempts beyond the first
  uint64_t RetrySeed = 0;  ///< client mode: backoff jitter seed
  bool RetryFlagsGiven = false; ///< any of --timeout-ms/--retries/--retry-seed
};

/// Parses a --train/--run list: comma-separated decimals, each checked
/// by the request codec's strict parser; "" is the empty list.
std::optional<std::vector<int64_t>> parseIntList(const std::string &S) {
  std::vector<int64_t> Out;
  for (size_t Pos = 0; !S.empty() && Pos <= S.size();) {
    size_t Comma = std::min(S.find(',', Pos), S.size());
    int64_t V;
    if (!linecodec::parseI64(S.substr(Pos, Comma - Pos), V))
      return std::nullopt;
    Out.push_back(V);
    Pos = Comma + 1;
  }
  return Out;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--strategy=S] [--train=a,b,...] [--run=a,b,...]\n"
               "          [--placement=latest|earliest] "
               "[--mincut-algo=dinic|ek]\n"
               "          [--lospre-max-width=N]\n"
               "          [--cleanup] [--stats]\n"
               "          [--objective=speed|size|speed-then-size] [--no-emit]\n"
               "          [--jobs=N] [--metrics-out=PATH]\n"
               "          [--budget-ms=N] [--max-augmentations=N] "
               "[--max-graph-nodes=N]\n"
               "          [--inject-faults=SPEC] [--report-outcomes]\n"
               "          [--cache-dir=PATH] [--cache=on|off|verify]\n"
               "          [--cache-durable=on|off] [--cache-scrub]\n"
               "          [--connect=SOCKET] [--timeout-ms=N] [--retries=N]\n"
               "          [--retry-seed=N]\n"
               "          [--dot-cfg=PATH] [--dot-frg=PATH] [--function=NAME] <file>\n",
               Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, ToolOptions &Opts) {
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
    auto Bad = [&](const char *Flag, const std::string &V) {
      std::fprintf(stderr, "error: bad %s value '%s'\n", Flag, V.c_str());
      return false;
    };
    if (auto V = Value("--strategy=")) {
      if (!parseStrategyFlag(*V, Opts.Strategy)) {
        std::fprintf(stderr, "error: unknown strategy '%s'\n", V->c_str());
        return false;
      }
    } else if (auto V = Value("--train=")) {
      Opts.TrainArgs = parseIntList(*V);
      if (!Opts.TrainArgs) {
        std::fprintf(stderr, "error: bad --train list\n");
        return false;
      }
    } else if (auto V = Value("--run=")) {
      Opts.RunArgs = parseIntList(*V);
      if (!Opts.RunArgs) {
        std::fprintf(stderr, "error: bad --run list\n");
        return false;
      }
    } else if (auto V = Value("--placement=")) {
      if (*V == "latest")
        Opts.Placement = CutPlacement::Latest;
      else if (*V == "earliest")
        Opts.Placement = CutPlacement::Earliest;
      else {
        std::fprintf(stderr, "error: bad --placement\n");
        return false;
      }
    } else if (auto V = Value("--mincut-algo=")) {
      if (!parseMaxFlowAlgorithm(*V, Opts.Algo)) {
        std::fprintf(stderr,
                     "error: bad --mincut-algo (want dinic or "
                     "edmonds-karp/ek)\n");
        return false;
      }
    } else if (auto V = Value("--objective=")) {
      if (*V == "speed")
        Opts.Objective = CutObjective::speed();
      else if (*V == "size")
        Opts.Objective = CutObjective::size();
      else if (*V == "speed-then-size")
        Opts.Objective = CutObjective::speedThenSize();
      else {
        std::fprintf(stderr, "error: bad --objective\n");
        return false;
      }
    } else if (auto V = Value("--dot-cfg=")) {
      Opts.DotCfgPath = *V;
    } else if (auto V = Value("--dot-frg=")) {
      Opts.DotFrgPath = *V;
    } else if (auto V = Value("--profile-out=")) {
      Opts.ProfileOutPath = *V;
    } else if (auto V = Value("--profile-in=")) {
      Opts.ProfileInPath = *V;
    } else if (auto V = Value("--metrics-out=")) {
      Opts.MetricsOutPath = *V;
    } else if (auto V = Value("--connect=")) {
      Opts.ConnectPath = *V;
    } else if (auto V = Value("--timeout-ms=")) {
      Opts.RetryFlagsGiven = true;
      unsigned Ms;
      if (!linecodec::parseU32(*V, Ms) || Ms > INT_MAX)
        return Bad("--timeout-ms", *V);
      Opts.TimeoutMs = static_cast<int>(Ms);
    } else if (auto V = Value("--retries=")) {
      Opts.RetryFlagsGiven = true;
      if (!linecodec::parseU32(*V, Opts.Retries))
        return Bad("--retries", *V);
    } else if (auto V = Value("--retry-seed=")) {
      Opts.RetryFlagsGiven = true;
      if (!linecodec::parseU64(*V, Opts.RetrySeed))
        return Bad("--retry-seed", *V);
    } else if (auto V = Value("--jobs=")) {
      Opts.JobsGiven = true;
      if (!linecodec::parseU32(*V, Opts.Jobs))
        return Bad("--jobs", *V);
    } else if (auto V = Value("--budget-ms=")) {
      if (!linecodec::parseU64(*V, Opts.Budget.DeadlineMillis))
        return Bad("--budget-ms", *V);
    } else if (auto V = Value("--max-augmentations=")) {
      if (!linecodec::parseU64(*V, Opts.Budget.MaxFlowAugmentations))
        return Bad("--max-augmentations", *V);
    } else if (auto V = Value("--max-graph-nodes=")) {
      if (!linecodec::parseU64(*V, Opts.Budget.MaxGraphNodes))
        return Bad("--max-graph-nodes", *V);
    } else if (auto V = Value("--lospre-max-width=")) {
      if (!parseLospreMaxWidth(*V, Opts.LospreMaxWidth))
        return Bad("--lospre-max-width", *V);
    } else if (auto V = Value("--inject-faults=")) {
      Opts.InjectFaults = *V;
    } else if (auto V = Value("--cache-dir=")) {
      Opts.CacheDir = *V;
    } else if (auto V = Value("--cache=")) {
      if (*V == "on")
        Opts.Cache = CacheMode::On;
      else if (*V == "off")
        Opts.Cache = CacheMode::Off;
      else if (*V == "verify")
        Opts.Cache = CacheMode::Verify;
      else {
        std::fprintf(stderr, "error: bad --cache mode '%s'\n", V->c_str());
        return false;
      }
    } else if (auto V = Value("--cache-durable=")) {
      if (*V == "on")
        Opts.CacheDurable = true;
      else if (*V == "off")
        Opts.CacheDurable = false;
      else {
        std::fprintf(stderr, "error: bad --cache-durable value '%s'\n",
                     V->c_str());
        return false;
      }
    } else if (A == "--cache-scrub") {
      Opts.CacheScrub = true;
    } else if (A == "--report-outcomes") {
      Opts.ReportOutcomes = true;
    } else if (A == "--cleanup") {
      Opts.Cleanup = true;
    } else if (A == "--gvn") {
      Opts.Gvn = true;
    } else if (A == "--out-of-ssa") {
      Opts.OutOfSsa = true;
    } else if (A == "--stats") {
      Opts.Stats = true;
    } else if (A == "--no-emit") {
      Opts.Emit = false;
    } else if (auto V = Value("--function=")) {
      Opts.OnlyFunction = *V;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      return false;
    } else if (Opts.InputPath.empty()) {
      Opts.InputPath = A;
    } else {
      std::fprintf(stderr, "error: multiple input files\n");
      return false;
    }
  }
  // --cache-scrub is a standalone maintenance mode: it needs a cache
  // directory, not an input program.
  if (Opts.CacheScrub)
    return true;
  return !Opts.InputPath.empty();
}

/// Reads \p Path into \p Out; prints the error and returns false when
/// it cannot be opened.
bool readFile(const std::string &Path, const char *What, std::string &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s'%s'\n", What, Path.c_str());
    return false;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

/// The request a run with \p Opts makes, whether it compiles locally or
/// through --connect. Returns false after printing the error when an
/// input file cannot be read.
bool buildRequest(const ToolOptions &Opts, ServeRequest &Req) {
  if (!readFile(Opts.InputPath, "", Req.ModuleText))
    return false;
  Req.Strategy = Opts.Strategy;
  Req.Placement = Opts.Placement;
  Req.Algo = Opts.Algo;
  Req.Objective = Opts.Objective;
  Req.Budget = Opts.Budget;
  Req.LospreMaxWidth = Opts.LospreMaxWidth;
  Req.TrainArgs = Opts.TrainArgs;
  Req.OnlyFunction = Opts.OnlyFunction;
  Req.Emit = Opts.Emit;
  Req.Cleanup = Opts.Cleanup;
  Req.Gvn = Opts.Gvn;
  Req.OutOfSsa = Opts.OutOfSsa;
  Req.ReportOutcomes = Opts.ReportOutcomes;
  return Opts.ProfileInPath.empty() ||
         readFile(Opts.ProfileInPath, "profile ", Req.ProfileText);
}

/// Writes a response's streams to ours and returns its exit code.
int replay(const ServeResponse &Resp) {
  std::fwrite(Resp.StdoutText.data(), 1, Resp.StdoutText.size(), stdout);
  std::fwrite(Resp.StderrText.data(), 1, Resp.StderrText.size(), stderr);
  return Resp.ExitCode;
}

/// The local side channels of one compiled function, run as the
/// per-function hook of processServeRequest: --profile-out, --dot-cfg,
/// --dot-frg, --stats and --run.
int runLocalSideChannels(const ToolOptions &Opts, const Function &F,
                         const Profile &Prof, const Function &Optimized,
                         const PreStats &Stats, ServeResponse &Resp) {
  const bool NeedsProfile = strategyNeedsProfile(Opts.Strategy);
  if (NeedsProfile && !Opts.ProfileOutPath.empty()) {
    std::ofstream Out(Opts.ProfileOutPath);
    Out << serializeProfile(Prof);
  }

  if (!Opts.DotCfgPath.empty()) {
    std::ofstream Out(Opts.DotCfgPath, std::ios::app);
    Out << cfgToDot(F, NeedsProfile ? &Prof : nullptr);
  }
  if (!Opts.DotFrgPath.empty()) {
    // Annotated FRGs: run MC-SSAPRE's placement per candidate on a
    // throwaway SSA copy so the DOT shows classes, reduction and the cut.
    Function Copy = F;
    constructSsa(Copy);
    Cfg C(Copy);
    DomTree DT = DomTree::buildDominators(C);
    std::ofstream Out(Opts.DotFrgPath, std::ios::app);
    Profile NodeProf = Prof.withoutEdgeFreqs();
    FrgSites Sites(Copy, C, DT);
    for (unsigned EI = 0; EI != Sites.candidates().size(); ++EI) {
      Frg G(Copy, Sites, EI);
      if (NeedsProfile && !G.expr().canFault())
        computeSpeculativePlacement(G, NodeProf, Opts.Placement, Opts.Algo,
                                    Opts.Objective);
      Out << frgToDot(G, NeedsProfile ? &NodeProf : nullptr);
    }
  }

  if (Opts.Stats) {
    Resp.StdoutText += "; per-expression statistics (" +
                       std::string(strategyName(Opts.Strategy)) + "):\n";
    for (const ExprStatsRecord &R : Stats.records()) {
      std::string Expr = R.Expr;
      Expr.resize(std::max<size_t>(Expr.size(), 20), ' ');
      char Counts[160];
      std::snprintf(Counts, sizeof(Counts),
                    " frg=%up+%ur efg=%s%u ins=%u reload=%u save=%u\n",
                    R.FrgPhis, R.FrgReals, R.EfgEmpty ? "-" : "",
                    R.EfgEmpty ? 0 : R.EfgNodes, R.NumInsertions,
                    R.NumReloads, R.NumSaves);
      Resp.StdoutText += ";   " + Expr + Counts;
    }
  }

  if (Opts.RunArgs) {
    if (Opts.RunArgs->size() != F.Params.size()) {
      Resp.StderrText += "error: --run argument count mismatch\n";
      return 1;
    }
    ExecResult Before = interpret(F, *Opts.RunArgs);
    ExecResult After = interpret(Optimized, *Opts.RunArgs);
    Resp.appendRunReport("before", Before);
    Resp.appendRunReport("after ", After);
    if (!Before.sameObservableBehavior(After)) {
      Resp.StderrText += "error: behavior changed!\n";
      return 1;
    }
  }
  return 0;
}

/// Client mode: ship the compile to a specpre-serve daemon and replay
/// its streams, so `specpre-opt --connect=S file` is a drop-in for the
/// local run (stdout bit-identical; see docs/SERVING.md).
int runClientMode(const ToolOptions &Opts) {
  // Flags whose effects are local side channels (files written here,
  // interpretation of the *input*) cannot be delegated; reject loudly
  // rather than silently compiling something else.
  const char *Unsupported = nullptr;
  if (!Opts.DotCfgPath.empty() || !Opts.DotFrgPath.empty())
    Unsupported = "--dot-cfg/--dot-frg";
  else if (Opts.RunArgs)
    Unsupported = "--run";
  else if (Opts.Stats)
    Unsupported = "--stats";
  else if (!Opts.ProfileOutPath.empty())
    Unsupported = "--profile-out";
  else if (!Opts.MetricsOutPath.empty())
    Unsupported = "--metrics-out";
  else if (!Opts.InjectFaults.empty())
    Unsupported = "--inject-faults";
  else if (!Opts.CacheDir.empty() || Opts.Cache || Opts.CacheDurable ||
           Opts.CacheScrub)
    Unsupported = "--cache-dir/--cache (the daemon owns the cache)";
  else if (Opts.JobsGiven)
    Unsupported = "--jobs (the daemon owns the pool)";
  if (Unsupported) {
    std::fprintf(stderr, "error: %s is not supported with --connect\n",
                 Unsupported);
    return 2;
  }

  ServeRequest Req;
  if (!buildRequest(Opts, Req))
    return 1;

  // One attempt over a fresh connection. Distinguishes transport damage
  // (retryable: the daemon never judged the request) from request-level
  // verdicts (terminal: retrying would just replay the same answer —
  // or worse, re-poke a quarantined request). The daemon marks 'E'
  // frames caused by transport damage with a "frame-error: " prefix.
  const std::string Encoded = encodeServeRequest(Req);
  enum class Attempt { Done, Retry, Fatal };
  int ExitCode = 1;
  auto TryOnce = [&](std::string &Why) -> Attempt {
    Expected<Socket> Conn = connectUnix(Opts.ConnectPath, 5000);
    if (!Conn) {
      Why = "cannot connect to '" + Opts.ConnectPath +
            "': " + Conn.status().message();
      return Attempt::Retry;
    }
    if (Status St = writeFrame(*Conn, 'C', Encoded, Opts.TimeoutMs); !St) {
      Why = "send failed: " + St.message();
      return Attempt::Retry;
    }
    Frame F;
    bool PeerClosed = false;
    if (Status St = readFrame(*Conn, F, PeerClosed, Opts.TimeoutMs); !St) {
      Why = "receive failed: " + St.message();
      return Attempt::Retry;
    }
    if (PeerClosed) {
      Why = "daemon closed the connection";
      return Attempt::Retry;
    }
    if (F.Type == 'B') {
      Why = "daemon busy: " + F.Payload;
      return Attempt::Retry;
    }
    if (F.Type == 'E') {
      if (F.Payload.rfind("frame-error: ", 0) == 0) {
        Why = "daemon: " + F.Payload;
        return Attempt::Retry; // our frame arrived torn; resend it
      }
      std::fprintf(stderr, "error: daemon: %s\n", F.Payload.c_str());
      return Attempt::Fatal;
    }
    if (F.Type != 'R') {
      Why = std::string("unexpected frame type '") + F.Type + "'";
      return Attempt::Retry;
    }
    ServeResponse Resp;
    std::string Error;
    if (!decodeServeResponse(F.Payload, Resp, Error)) {
      Why = "bad response: " + Error;
      return Attempt::Retry; // response torn in transit; ask again
    }
    if (!Resp.Ok) {
      std::fprintf(stderr, "error: daemon: %s\n", Resp.Error.c_str());
      return Attempt::Fatal;
    }
    ExitCode = replay(Resp);
    return Attempt::Done;
  };

  // splitmix64: deterministic jitter so two clients retrying the same
  // busy daemon desynchronize without any shared state or wall clock.
  auto Mix = [](uint64_t X) {
    X += 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  };
  for (unsigned A = 0;; ++A) {
    std::string Why;
    switch (TryOnce(Why)) {
    case Attempt::Done:
      return ExitCode;
    case Attempt::Fatal:
      return 1;
    case Attempt::Retry:
      if (A >= Opts.Retries) {
        std::fprintf(stderr, "error: %s (after %u attempt%s)\n",
                     Why.c_str(), A + 1, A ? "s" : "");
        return 1;
      }
      // Exponential backoff, capped, plus seeded jitter in [0, base/2).
      uint64_t BaseMs = std::min<uint64_t>(25ull << std::min(A, 7u), 2000);
      uint64_t Jitter = Mix(Opts.RetrySeed * 0x100000001b3ULL + A) %
                        (BaseMs / 2 + 1);
      std::fprintf(stderr,
                   "specpre-opt: retrying in %llu ms (attempt %u/%u): %s\n",
                   static_cast<unsigned long long>(BaseMs + Jitter), A + 1,
                   Opts.Retries, Why.c_str());
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BaseMs + Jitter));
      break;
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  installCrashSignalHandlers();
  ToolOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);

  if (!Opts.ConnectPath.empty())
    return runClientMode(Opts);

  if (Opts.RetryFlagsGiven) {
    std::fprintf(stderr, "error: --timeout-ms/--retries/--retry-seed "
                         "require --connect\n");
    return 2;
  }

  if (!Opts.InjectFaults.empty()) {
    Status S = configureFaultInjection(Opts.InjectFaults);
    if (!S.isOk()) {
      std::fprintf(stderr, "error: --inject-faults: %s\n",
                   S.message().c_str());
      return 2;
    }
  }

  if (Opts.CacheScrub) {
    if (Opts.CacheDir.empty()) {
      std::fprintf(stderr, "error: --cache-scrub requires --cache-dir\n");
      return 2;
    }
    CompileCache::Config CC;
    CC.DiskDir = Opts.CacheDir;
    CompileCache Cache(CC);
    CompileCache::ScrubReport R = Cache.scrubDiskTier();
    std::fprintf(stderr,
                 "cache-scrub: scanned=%llu quarantined=%llu "
                 "read_failures=%llu bytes=%llu\n",
                 static_cast<unsigned long long>(R.Scanned),
                 static_cast<unsigned long long>(R.Quarantined),
                 static_cast<unsigned long long>(R.ReadFailures),
                 static_cast<unsigned long long>(R.BytesRead));
    return 0;
  }

  ServeRequest Req;
  if (!buildRequest(Opts, Req))
    return 1;

  ParallelConfig PC;
  PC.Jobs = Opts.Jobs;
  ParallelPreDriver Driver(PC);
  PipelineMetrics Metrics;
  bool WantMetrics = !Opts.MetricsOutPath.empty();

  // --cache-dir alone implies --cache=on; --cache=off wins regardless.
  CacheMode Mode = Opts.Cache.value_or(Opts.CacheDir.empty()
                                           ? CacheMode::Off
                                           : CacheMode::On);
  std::unique_ptr<CompileCache> Cache;
  if (Mode != CacheMode::Off) {
    CompileCache::Config CC;
    CC.DiskDir = Opts.CacheDir;
    CC.Durable = Opts.CacheDurable;
    CC.Mode = Mode;
    Cache = std::make_unique<CompileCache>(CC);
  }

  // The daemon's request path, plus the side channels only a local run
  // has: its output is the --connect output by construction. Without a
  // side channel there is no hook, so cache hits take the daemon's
  // text-only path too.
  ServeFunctionHook SideChannels;
  if (Opts.Stats || Opts.RunArgs || !Opts.DotCfgPath.empty() ||
      !Opts.DotFrgPath.empty() || !Opts.ProfileOutPath.empty())
    SideChannels = [&](const Function &F, const Profile &Prof,
                       const Function &Optimized, const PreStats &Stats,
                       ServeResponse &R) {
      return runLocalSideChannels(Opts, F, Prof, Optimized, Stats, R);
    };
  ServeResponse Resp = processServeRequest(
      Req, Driver, Cache.get(), WantMetrics ? &Metrics : nullptr,
      SideChannels);
  if (int Rc = replay(Resp))
    return Rc;

  CacheCounters CacheStats;
  if (Cache) {
    CacheStats = Cache->counters();
    Metrics.cache() = CacheStats;
    // Summary on stderr so stdout stays bit-identical with and without
    // the cache.
    std::fprintf(
        stderr,
        "cache: hits=%llu misses=%llu stores=%llu evictions=%llu "
        "disk_hits=%llu disk_writes=%llu verify_mismatches=%llu "
        "corrupt_dropped=%llu disk_io_errors=%llu breaker_opens=%llu "
        "train_hits=%llu train_misses=%llu\n",
        static_cast<unsigned long long>(CacheStats.Hits),
        static_cast<unsigned long long>(CacheStats.Misses),
        static_cast<unsigned long long>(CacheStats.Stores),
        static_cast<unsigned long long>(CacheStats.Evictions),
        static_cast<unsigned long long>(CacheStats.DiskHits),
        static_cast<unsigned long long>(CacheStats.DiskWrites),
        static_cast<unsigned long long>(CacheStats.VerifyMismatches),
        static_cast<unsigned long long>(CacheStats.CorruptDropped),
        static_cast<unsigned long long>(CacheStats.DiskIoErrors),
        static_cast<unsigned long long>(CacheStats.BreakerOpens),
        static_cast<unsigned long long>(CacheStats.TrainHits),
        static_cast<unsigned long long>(CacheStats.TrainMisses));
  }

  if (WantMetrics) {
    std::ofstream Out(Opts.MetricsOutPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.MetricsOutPath.c_str());
      return 1;
    }
    Out << Metrics.toJson(Driver.jobs()) << "\n";
  }

  if (CacheStats.VerifyMismatches) {
    std::fprintf(stderr,
                 "error: --cache=verify found %llu mismatching cache "
                 "entr%s\n",
                 static_cast<unsigned long long>(CacheStats.VerifyMismatches),
                 CacheStats.VerifyMismatches == 1 ? "y" : "ies");
    return 1;
  }
  return 0;
}
