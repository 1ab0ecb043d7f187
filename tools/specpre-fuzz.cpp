//===- tools/specpre-fuzz.cpp - Differential fuzzing driver --------------------===//
//
// Generates random programs (and random small flow networks), runs the
// oracle stack from workload/FuzzOracles.h on each, and on failure
// delta-reduces the case to a minimal reproducer that can be committed
// to tests/corpus/ and replayed by ctest.
//
// Usage:
//   specpre-fuzz --cases=10000 --seed=1          pipeline fuzzing
//   specpre-fuzz --networks=5000 --seed=1        min-cut differential
//   specpre-fuzz --replay=tests/corpus/foo.ir    replay one reproducer
//   specpre-fuzz --corpus-out=DIR                where reduced cases land
//   specpre-fuzz --no-reduce                     report without shrinking
//   specpre-fuzz --inject-faults=SPEC            deterministic fault
//                                                injection (site:rate[:seed])
//
//===----------------------------------------------------------------------===//

#include "support/CrashContext.h"
#include "support/FaultInjector.h"
#include "support/LineCodec.h"
#include "support/Status.h"
#include "workload/FuzzOracles.h"
#include "workload/Reducer.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

using namespace specpre;

namespace {

struct Options {
  uint64_t Cases = 0;
  uint64_t Networks = 0;
  uint64_t Seed = 1;
  std::string CorpusOut;
  bool Reduce = true;
  std::string InjectFaults;
  std::vector<std::string> ReplayFiles;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Flag) -> std::optional<std::string> {
      std::string Prefix = std::string(Flag) + "=";
      if (A.rfind(Prefix, 0) != 0)
        return std::nullopt;
      return A.substr(Prefix.size());
    };
    // Counts go through the request codec's strict parser: digits only,
    // no sign, no trailing garbage, no wrap-around.
    auto BadCount = [&] {
      std::fprintf(stderr, "specpre-fuzz: bad value in '%s'\n", A.c_str());
      return false;
    };
    if (auto V = Value("--cases")) {
      if (!linecodec::parseU64(*V, O.Cases))
        return BadCount();
    } else if (auto V = Value("--networks")) {
      if (!linecodec::parseU64(*V, O.Networks))
        return BadCount();
    } else if (auto V = Value("--seed")) {
      if (!linecodec::parseU64(*V, O.Seed))
        return BadCount();
    } else if (auto V = Value("--corpus-out")) {
      O.CorpusOut = *V;
    } else if (auto V = Value("--replay")) {
      O.ReplayFiles.push_back(*V);
    } else if (A == "--no-reduce") {
      O.Reduce = false;
    } else if (auto V = Value("--inject-faults")) {
      O.InjectFaults = *V;
    } else {
      std::fprintf(stderr, "specpre-fuzz: unknown argument '%s'\n", A.c_str());
      return false;
    }
  }
  if (O.Cases == 0 && O.Networks == 0 && O.ReplayFiles.empty()) {
    std::fprintf(stderr,
                 "specpre-fuzz: nothing to do (pass --cases, --networks "
                 "or --replay)\n");
    return false;
  }
  return true;
}

/// Reduces a failing pipeline case and writes (or prints) the reproducer.
void emitReproducer(const Options &O, uint64_t CaseIdx,
                    const Function &Failing,
                    const std::vector<int64_t> &TrainArgs,
                    const std::vector<std::vector<int64_t>> &VariantArgs,
                    const OracleFailure &Failure) {
  Function Reduced = Failing;
  if (O.Reduce) {
    // A candidate is judged like the case itself: one whose compile
    // throws reads as `uncaught-status` and is kept only if that was the
    // original failure.
    ReducePredicate SameOracle = [&](const Function &Cand) {
      std::optional<OracleFailure> F = guardOracles(
          [&] { return checkPipelineOracles(Cand, TrainArgs, VariantArgs); });
      return F && F->Oracle == Failure.Oracle;
    };
    Reduced = reduceFunction(Failing, SameOracle);
  }
  std::string Text = formatPipelineReproducer(Reduced, TrainArgs, Failure);
  if (O.CorpusOut.empty()) {
    std::fprintf(stderr, "---- reproducer (case %llu) ----\n%s",
                 static_cast<unsigned long long>(CaseIdx), Text.c_str());
    return;
  }
  std::string Path = O.CorpusOut + "/fuzz-seed" + std::to_string(O.Seed) +
                     "-case" + std::to_string(CaseIdx) + ".ir";
  std::ofstream Out(Path);
  Out << Text;
  std::fprintf(stderr, "wrote reproducer %s\n", Path.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  installCrashSignalHandlers();
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;

  if (!O.InjectFaults.empty()) {
    Status S = configureFaultInjection(O.InjectFaults);
    if (!S.isOk()) {
      std::fprintf(stderr, "specpre-fuzz: --inject-faults: %s\n",
                   S.message().c_str());
      return 2;
    }
  }

  unsigned Failures = 0;

  for (const std::string &Path : O.ReplayFiles) {
    if (std::optional<OracleFailure> F =
            guardOracles([&] { return replayCorpusFile(Path); })) {
      std::fprintf(stderr, "FAIL %s: oracle '%s': %s\n", Path.c_str(),
                   F->Oracle.c_str(), F->Message.c_str());
      ++Failures;
    } else {
      std::printf("ok %s\n", Path.c_str());
    }
  }

  for (uint64_t C = 0; C != O.Cases; ++C) {
    Function F = fuzzProgram(O.Seed, C);
    std::vector<int64_t> TrainArgs = fuzzTrainArgs(F, O.Seed, C);
    std::vector<std::vector<int64_t>> VariantArgs =
        fuzzVariantArgs(F, O.Seed, C);
    std::optional<OracleFailure> Failure = guardOracles(
        [&] { return checkPipelineOracles(F, TrainArgs, VariantArgs); });
    if (!Failure)
      continue;
    ++Failures;
    std::fprintf(stderr, "FAIL case %llu (seed %llu): oracle '%s': %s\n",
                 static_cast<unsigned long long>(C),
                 static_cast<unsigned long long>(O.Seed),
                 Failure->Oracle.c_str(), Failure->Message.c_str());
    emitReproducer(O, C, F, TrainArgs, VariantArgs, *Failure);
  }

  for (uint64_t C = 0; C != O.Networks; ++C) {
    NetworkCase Case = fuzzNetworkCase(O.Seed, C);
    std::optional<OracleFailure> F =
        guardOracles([&] { return checkNetworkOracles(Case, std::nullopt); });
    if (!F)
      continue;
    ++Failures;
    std::fprintf(stderr, "FAIL network %llu (seed %llu): oracle '%s': %s\n",
                 static_cast<unsigned long long>(C),
                 static_cast<unsigned long long>(O.Seed),
                 F->Oracle.c_str(), F->Message.c_str());
    NetworkCase Reduced = O.Reduce ? reduceNetworkCase(Case, *F) : Case;
    std::string Text = formatNetworkReproducer(Reduced, *F);
    if (O.CorpusOut.empty()) {
      std::fprintf(stderr, "---- reproducer (network %llu) ----\n%s",
                   static_cast<unsigned long long>(C), Text.c_str());
    } else {
      std::string Path = O.CorpusOut + "/fuzz-seed" + std::to_string(O.Seed) +
                         "-net" + std::to_string(C) + ".ir";
      std::ofstream Out(Path);
      Out << Text;
      std::fprintf(stderr, "wrote reproducer %s\n", Path.c_str());
    }
  }

  uint64_t Total = O.Cases + O.Networks + O.ReplayFiles.size();
  std::printf("specpre-fuzz: %llu cases, %u failure%s\n",
              static_cast<unsigned long long>(Total), Failures,
              Failures == 1 ? "" : "s");
  return Failures ? 1 : 0;
}
