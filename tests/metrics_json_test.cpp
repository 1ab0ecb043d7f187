//===- tests/metrics_json_test.cpp - PipelineMetrics / JSON export -------------===//
//
// The metrics schema tests promised in docs/TESTING.md: the document
// every exporter writes (`--metrics-out`, the daemon's 'T' frame,
// serve_throughput) must be well-formed, carry exactly one entry per
// pipeline step (in pipeline order) and report non-negative, consistent
// numbers; its bytes are pinned, merge() folds every counter by its rule,
// and the sandbox worker's flat shard encoding round-trips and rejects
// damage. A minimal recursive-descent JSON parser lives in this file so
// the check does not depend on an external JSON library the toolchain
// may not have.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "pre/CompileService.h"
#include "pre/ParallelDriver.h"
#include "pre/PreDriver.h"
#include "profile/Profile.h"
#include "support/PassTimer.h"
#include "workload/ProgramGenerator.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <cctype>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

using namespace specpre;

//===----------------------------------------------------------------------===//
// Minimal JSON parser (objects, arrays, strings, numbers)
//===----------------------------------------------------------------------===//

namespace {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::monostate, double, std::string, JsonArray, JsonObject> V;

  bool isNumber() const { return std::holds_alternative<double>(V); }
  double num() const { return std::get<double>(V); }
  const std::string &str() const { return std::get<std::string>(V); }
  const JsonArray &arr() const { return std::get<JsonArray>(V); }
  const JsonObject &obj() const { return std::get<JsonObject>(V); }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  /// Parses the whole input; sets Ok=false on any syntax error or
  /// trailing garbage.
  JsonValue parse() {
    JsonValue V = parseValue();
    skipWs();
    if (Pos != Text.size())
      Ok = false;
    return V;
  }

  bool ok() const { return Ok; }

private:
  void skipWs() {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(
                                    Text[Pos])))
      ++Pos;
  }

  char peek() {
    skipWs();
    return Pos < Text.size() ? Text[Pos] : '\0';
  }

  bool consume(char C) {
    if (peek() != C) {
      Ok = false;
      return false;
    }
    ++Pos;
    return true;
  }

  JsonValue parseValue() {
    switch (peek()) {
    case '{':
      return parseObject();
    case '[':
      return parseArray();
    case '"':
      return {JsonValue{parseString()}};
    default:
      return parseNumber();
    }
  }

  std::string parseString() {
    std::string S;
    if (!consume('"'))
      return S;
    while (Pos < Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\' && Pos + 1 < Text.size())
        ++Pos;
      S += Text[Pos++];
    }
    if (Pos == Text.size())
      Ok = false;
    else
      ++Pos; // closing quote
    return S;
  }

  JsonValue parseNumber() {
    skipWs();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '-' || Text[Pos] == '+' || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E'))
      ++Pos;
    if (Pos == Start) {
      Ok = false;
      return {};
    }
    try {
      return {JsonValue{std::stod(Text.substr(Start, Pos - Start))}};
    } catch (...) {
      Ok = false;
      return {};
    }
  }

  JsonValue parseArray() {
    JsonArray A;
    consume('[');
    if (peek() == ']') {
      ++Pos;
      return {JsonValue{std::move(A)}};
    }
    while (Ok) {
      A.push_back(parseValue());
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      consume(']');
      break;
    }
    return {JsonValue{std::move(A)}};
  }

  JsonValue parseObject() {
    JsonObject O;
    consume('{');
    if (peek() == '}') {
      ++Pos;
      return {JsonValue{std::move(O)}};
    }
    while (Ok) {
      if (peek() != '"') {
        Ok = false;
        break;
      }
      std::string Key = parseString();
      consume(':');
      O.emplace(std::move(Key), parseValue());
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      consume('}');
      break;
    }
    return {JsonValue{std::move(O)}};
  }

  const std::string &Text;
  size_t Pos = 0;
  bool Ok = true;
};

/// Runs a corpus of generated programs through PRE with metrics
/// collection, on a \p Jobs-worker driver.
PipelineMetrics collectMetrics(PreStrategy Strategy, unsigned Jobs) {
  std::vector<Function> Fns;
  std::vector<Profile> Profs, NodeOnly;
  for (uint64_t Seed : {19u, 23u, 29u, 31u}) {
    GeneratorConfig Cfg;
    Function F = generateProgram(Seed, Cfg, "metrics" + std::to_string(Seed));
    prepareFunction(F);
    Profile Prof;
    ExecOptions EO;
    EO.CollectProfile = &Prof;
    std::vector<int64_t> Args(F.Params.size(), 11);
    interpret(F, Args, EO);
    NodeOnly.push_back(Prof.withoutEdgeFreqs());
    Profs.push_back(std::move(Prof));
    Fns.push_back(std::move(F));
  }

  std::vector<CompileTask> Tasks;
  for (size_t I = 0; I != Fns.size(); ++I) {
    PreOptions PO;
    PO.Strategy = Strategy;
    PO.Prof = Strategy == PreStrategy::McPre ? &Profs[I] : &NodeOnly[I];
    Tasks.push_back({&Fns[I], PO});
  }
  ParallelConfig PC;
  PC.Jobs = Jobs;
  ParallelPreDriver Driver(PC);
  PipelineMetrics M;
  Driver.compileCorpus(Tasks, nullptr, &M);
  return M;
}

/// A shard in which every counter holds its own value: step S ran S+1
/// times, and the group counters count up from \p Seed + 1 in
/// declaration order, so both service millis fields are non-integral.
PipelineMetrics distinctMetrics(uint64_t Seed) {
  PipelineMetrics M;
  for (unsigned S = 0; S != NumPipelineSteps; ++S)
    for (unsigned I = 0; I <= S; ++I)
      M.note(static_cast<PipelineStep>(S), Seed * 7 + 1500001 + S * 250003,
             Seed + 50 + S);
  uint64_t V = Seed;
  RobustnessCounters &R = M.robustness();
  for (uint64_t *C : {&R.FunctionsCompiled, &R.FunctionsDegraded,
                      &R.LadderRetries, &R.WorkerFailures})
    *C = ++V;
  LospreCounters &L = M.lospre();
  for (uint64_t *C : {&L.Solved, &L.Bailouts, &L.WidthPeak, &L.DpEntries})
    *C = ++V;
  CacheCounters &K = M.cache();
  for (uint64_t *C :
       {&K.Hits, &K.Misses, &K.Stores, &K.Evictions, &K.DiskHits,
        &K.DiskWrites, &K.DiskEvictions, &K.VerifyMismatches,
        &K.CorruptDropped, &K.DiskIoErrors, &K.BreakerOpens,
        &K.BreakerShortCircuits, &K.BreakerState, &K.ScrubScanned,
        &K.ScrubQuarantined, &K.TrainHits, &K.TrainMisses, &K.TrainStores,
        &K.FaultBypasses, &K.DegradedUnstored})
    *C = ++V;
  ServiceCounters &Sv = M.service();
  for (uint64_t *C :
       {&Sv.RequestsReceived, &Sv.RequestsSucceeded, &Sv.RequestsFailed,
        &Sv.RequestsDegraded, &Sv.QueueDepthPeak, &Sv.QueueWaitNanos,
        &Sv.CompileNanos, &Sv.WorkerCrashes, &Sv.DeadlineKills,
        &Sv.Quarantined, &Sv.Shed, &Sv.Retries})
    *C = ++V;
  return M;
}

/// \p Doc as a JSON object; empty (and a test failure) if it is invalid.
JsonObject parseDocument(const std::string &Doc) {
  JsonParser P(Doc);
  JsonValue V = P.parse();
  EXPECT_TRUE(P.ok()) << "invalid JSON: " << Doc;
  return P.ok() ? V.obj() : JsonObject();
}

} // namespace

//===----------------------------------------------------------------------===//
// Schema tests
//===----------------------------------------------------------------------===//

TEST(MetricsJson, OneEntryPerStepInPipelineOrder) {
  PipelineMetrics M = collectMetrics(PreStrategy::McSsaPre, 1);
  std::string Json = M.toJson(1);
  JsonParser P(Json);
  JsonValue V = P.parse();
  ASSERT_TRUE(P.ok()) << "invalid JSON: " << Json;

  const JsonArray &Steps = V.obj().at("steps").arr();
  ASSERT_EQ(Steps.size(), NumPipelineSteps);
  for (unsigned S = 0; S != NumPipelineSteps; ++S) {
    const JsonObject &O = Steps[S].obj();
    ASSERT_TRUE(O.count("step"));
    ASSERT_TRUE(O.count("invocations"));
    ASSERT_TRUE(O.count("millis"));
    ASSERT_TRUE(O.count("problem_size"));
    EXPECT_EQ(O.at("step").str(),
              pipelineStepName(static_cast<PipelineStep>(S)));
    EXPECT_GE(O.at("invocations").num(), 0.0);
    EXPECT_GE(O.at("millis").num(), 0.0);
    EXPECT_GE(O.at("problem_size").num(), 0.0);
  }
}

TEST(MetricsJson, McSsaPreExercisesItsSteps) {
  PipelineMetrics M = collectMetrics(PreStrategy::McSsaPre, 1);
  // A non-trivial generated program has candidates, so the FRG steps and
  // the MC data flow must have run; wall time is bounded below by zero
  // but invocation counts are exact.
  EXPECT_GT(M.step(PipelineStep::PhiInsertion).Invocations, 0u);
  EXPECT_GT(M.step(PipelineStep::Rename).Invocations, 0u);
  EXPECT_GT(M.step(PipelineStep::DataFlow).Invocations, 0u);
  EXPECT_GT(M.step(PipelineStep::Finalize).Invocations, 0u);
  EXPECT_GT(M.totalNanos(), 0u);
  // Problem sizes accompany the invocations.
  EXPECT_GT(M.step(PipelineStep::PhiInsertion).ProblemSize, 0u);
}

TEST(MetricsJson, ParallelCollectionLosesNothing) {
  // Each function compiles on one thread, so every step's invocation
  // count is exact: jobs=4 agrees with jobs=1 on all of them.
  PipelineMetrics Serial = collectMetrics(PreStrategy::McSsaPre, 1);
  PipelineMetrics Parallel = collectMetrics(PreStrategy::McSsaPre, 4);
  ASSERT_GT(Serial.step(PipelineStep::PhiInsertion).Invocations, 0u);
  for (unsigned Step = 0; Step != NumPipelineSteps; ++Step) {
    PipelineStep S = static_cast<PipelineStep>(Step);
    EXPECT_EQ(Serial.step(S).Invocations, Parallel.step(S).Invocations)
        << pipelineStepName(S);
  }
}

TEST(MetricsJson, VerifyRunsOncePerFunctionWithCodeMotion) {
  // Four SpecSuite benchmarks (each takes three arguments) as one module,
  // compiled the way specpre-opt and the daemon compile a module.
  ServeRequest R;
  R.Strategy = PreStrategy::McSsaPre;
  std::vector<std::string> Functions;
  for (const BenchmarkSpec &B : fullCpu2006Suite()) {
    if (B.Name != "gcc" && B.Name != "mcf" && B.Name != "namd" &&
        B.Name != "soplex")
      continue;
    Functions.push_back(printFunction(B.buildProgram()));
    R.ModuleText += Functions.back();
    R.TrainArgs = B.TrainArgs;
  }
  ASSERT_EQ(Functions.size(), 4u);

  auto Compile = [&](const std::string &Module, unsigned Jobs) {
    ServeRequest One = R;
    One.ModuleText = Module;
    ParallelConfig PC;
    PC.Jobs = Jobs;
    ParallelPreDriver Driver(PC);
    PipelineMetrics M;
    ServeResponse Resp = processServeRequest(One, Driver, nullptr, &M);
    EXPECT_EQ(Resp.ExitCode, 0) << Resp.StderrText;
    return M;
  };
  uint64_t WithMotion = 0;
  for (const std::string &F : Functions) {
    PipelineMetrics M = Compile(F, 1);
    EXPECT_GT(M.step(PipelineStep::CodeMotion).Invocations, 1u)
        << "each function should have several code motions";
    WithMotion += M.step(PipelineStep::CodeMotion).Invocations > 0;
  }
  for (unsigned Jobs : {1u, 4u}) {
    PipelineMetrics M = Compile(R.ModuleText, Jobs);
    EXPECT_EQ(M.step(PipelineStep::Verify).Invocations, WithMotion)
        << "jobs=" << Jobs;
    EXPECT_LT(M.step(PipelineStep::Verify).Invocations,
              M.step(PipelineStep::CodeMotion).Invocations)
        << "jobs=" << Jobs;
  }
}

TEST(MetricsJson, MergeSumsShards) {
  PipelineMetrics A, B;
  A.note(PipelineStep::MinCut, 100, 7);
  A.note(PipelineStep::MinCut, 50, 3);
  B.note(PipelineStep::MinCut, 25, 1);
  B.note(PipelineStep::Rename, 10, 2);
  A.merge(B);
  EXPECT_EQ(A.step(PipelineStep::MinCut).Invocations, 3u);
  EXPECT_EQ(A.step(PipelineStep::MinCut).Nanos, 175u);
  EXPECT_EQ(A.step(PipelineStep::MinCut).ProblemSize, 11u);
  EXPECT_EQ(A.step(PipelineStep::Rename).Invocations, 1u);
  EXPECT_EQ(A.totalNanos(), 185u);
}

TEST(MetricsJson, NoSinkMeansNoCollection) {
  EXPECT_EQ(currentMetricsSink(), nullptr);
  { PassTimer T(PipelineStep::MinCut, 99); } // no-op without a sink
  PipelineMetrics M;
  {
    MetricsScope Scope(&M);
    EXPECT_EQ(currentMetricsSink(), &M);
    {
      MetricsScope Inner(nullptr); // suspension
      EXPECT_EQ(currentMetricsSink(), nullptr);
      PassTimer T(PipelineStep::MinCut, 5);
    }
    EXPECT_EQ(currentMetricsSink(), &M);
  }
  EXPECT_EQ(currentMetricsSink(), nullptr);
  EXPECT_EQ(M.step(PipelineStep::MinCut).Invocations, 0u);
  EXPECT_EQ(M.totalNanos(), 0u);
}

TEST(MetricsJson, EmptyMetricsStillFullSchema) {
  PipelineMetrics M;
  std::string Json = M.toJson(1);
  JsonParser P(Json);
  JsonValue V = P.parse();
  ASSERT_TRUE(P.ok()) << "invalid JSON: " << Json;
  const JsonArray &Steps = V.obj().at("steps").arr();
  ASSERT_EQ(Steps.size(), NumPipelineSteps);
  for (const JsonValue &Step : Steps) {
    EXPECT_EQ(Step.obj().at("invocations").num(), 0.0);
    EXPECT_EQ(Step.obj().at("millis").num(), 0.0);
  }
  // Every group is present, all zero, in a batch run's document too.
  for (const char *Group :
       {"robustness", "lospre", "cache", "service"}) {
    ASSERT_TRUE(V.obj().count(Group)) << Group;
    EXPECT_FALSE(V.obj().at(Group).obj().empty()) << Group;
    for (const auto &[Key, Value] : V.obj().at(Group).obj())
      EXPECT_EQ(Value.num(), 0.0) << Group << "." << Key;
  }
}

TEST(MetricsJson, DocumentBytesArePinned) {
  // Every counter holds its own value, so a key written against the wrong
  // member, a group out of order or a changed number format shows here.
  EXPECT_EQ(
      distinctMetrics(1000).toJson(3),
      R"({"jobs": 3,
"steps": [
  {"step": "phi-insertion", "invocations": 1, "millis": 1.507001, "problem_size": 1050},
  {"step": "rename", "invocations": 2, "millis": 3.514008, "problem_size": 2102},
  {"step": "data-flow", "invocations": 3, "millis": 6.021021, "problem_size": 3156},
  {"step": "reduction", "invocations": 4, "millis": 9.028040, "problem_size": 4212},
  {"step": "min-cut", "invocations": 5, "millis": 12.535065, "problem_size": 5270},
  {"step": "safe-placement", "invocations": 6, "millis": 16.542096, "problem_size": 6330},
  {"step": "finalize", "invocations": 7, "millis": 21.049133, "problem_size": 7392},
  {"step": "code-motion", "invocations": 8, "millis": 26.056176, "problem_size": 8456},
  {"step": "verify", "invocations": 9, "millis": 31.563225, "problem_size": 9522}
],
"robustness": {"functions_compiled": 1001, "functions_degraded": 1002, "ladder_retries": 1003, "worker_failures": 1004},
"lospre": {"solved": 1005, "bailouts": 1006, "width_peak": 1007, "dp_entries": 1008},
"cache": {"hits": 1009, "misses": 1010, "stores": 1011, "evictions": 1012, "disk_hits": 1013, "disk_writes": 1014, "disk_evictions": 1015, "verify_mismatches": 1016, "corrupt_dropped": 1017, "disk_io_errors": 1018, "breaker_opens": 1019, "breaker_short_circuits": 1020, "breaker_state": 1021, "scrub_scanned": 1022, "scrub_quarantined": 1023, "train_hits": 1024, "train_misses": 1025, "train_stores": 1026, "fault_bypasses": 1027, "degraded_unstored": 1028},
"service": {"requests_received": 1029, "requests_succeeded": 1030, "requests_failed": 1031, "requests_degraded": 1032, "queue_depth_peak": 1033, "queue_wait_millis": 0.001034, "compile_millis": 0.001035, "worker_crashes": 1036, "deadline_kills": 1037, "quarantined": 1038, "shed": 1039, "retries": 1040}})");
}

TEST(MetricsJson, MergeKeepsTheMaxOfGaugesAndSumsTheRest) {
  // Big's counters all exceed Small's, so a max keeps Big's value in
  // both merge directions, while a sum, a keep or an overwrite would not.
  const std::set<std::string> Gauges = {"width_peak", "breaker_state",
                                        "queue_depth_peak"};
  PipelineMetrics Big = distinctMetrics(1000), Small = distinctMetrics(1);
  PipelineMetrics BigFirst = Big, SmallFirst = Small;
  BigFirst.merge(Small);
  SmallFirst.merge(Big);
  EXPECT_EQ(BigFirst.toJson(1), SmallFirst.toJson(1)) << "merge order";

  JsonObject B = parseDocument(Big.toJson(1));
  JsonObject S = parseDocument(Small.toJson(1));
  JsonObject M = parseDocument(BigFirst.toJson(1));
  ASSERT_FALSE(M.empty());
  std::set<std::string> MaxFolded;
  size_t Counters = 0;
  for (const char *Group :
       {"robustness", "lospre", "cache", "service"}) {
    for (const auto &[Key, Merged] : M.at(Group).obj()) {
      ++Counters;
      double BigV = B.at(Group).obj().at(Key).num();
      double SmallV = S.at(Group).obj().at(Key).num();
      if (Merged.num() == BigV)
        MaxFolded.insert(Key);
      else
        EXPECT_NEAR(Merged.num(), BigV + SmallV, 1e-9) << Group << "." << Key;
    }
  }
  EXPECT_EQ(Counters, 40u);
  EXPECT_EQ(MaxFolded, Gauges);
  // Step records only sum.
  for (unsigned I = 0; I != NumPipelineSteps; ++I)
    for (const char *Key : {"invocations", "millis", "problem_size"})
      EXPECT_NEAR(M.at("steps").arr()[I].obj().at(Key).num(),
                  B.at("steps").arr()[I].obj().at(Key).num() +
                      S.at("steps").arr()[I].obj().at(Key).num(),
                  1e-9)
          << I << "." << Key;
}

TEST(MetricsJson, ShardCodecRoundTripsAndRejectsDamage) {
  const PipelineMetrics M = distinctMetrics(1000);
  const std::string Encoded = M.encode();
  PipelineMetrics Back;
  ASSERT_TRUE(PipelineMetrics::decode(Encoded, Back)) << Encoded;
  EXPECT_EQ(Back.encode(), Encoded);
  EXPECT_EQ(Back.toJson(1), M.toJson(1));
  // Nanoseconds travel unrounded.
  EXPECT_EQ(Back.step(PipelineStep::MinCut).Nanos,
            M.step(PipelineStep::MinCut).Nanos);

  const size_t FirstSpace = Encoded.find(' ');
  const std::string Rest = Encoded.substr(FirstSpace);
  const std::string Damaged[] = {
      Encoded.substr(0, Encoded.rfind(' ')), // a dropped token
      Encoded + " 7",                        // an extra token
      "+" + Encoded,                         // a sign
      "-1" + Rest,
      "18446744073709551616" + Rest, // 2^64: overflow
      "1x" + Rest,
      "",
  };
  for (const std::string &Text : Damaged) {
    PipelineMetrics Out = distinctMetrics(1);
    const std::string Before = Out.encode();
    EXPECT_FALSE(PipelineMetrics::decode(Text, Out)) << Text;
    EXPECT_EQ(Out.encode(), Before) << "a failed decode wrote " << Text;
  }
  // The largest counter still decodes.
  PipelineMetrics Max;
  EXPECT_TRUE(PipelineMetrics::decode("18446744073709551615" + Rest, Max));
}
