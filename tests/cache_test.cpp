//===- tests/cache_test.cpp - Compilation-cache property tests ------------------===//
//
// End-to-end properties of the content-addressed compilation cache
// (pre/CachedCompile.h, docs/CACHING.md) over a generated corpus:
//
//  * a warm compile replays printed IR, PreStats records and ladder
//    outcomes bit-identically to the cold compile, serially and through
//    the parallel driver at any --jobs;
//  * the key is sensitive to exactly the inputs a leg consumes — node
//    frequencies for MC-SSAPRE, node+edge for MC-PRE, no profile at all
//    for the heuristic legs;
//  * unsound situations never populate the cache: degraded ladder
//    outcomes are not stored, pipeline fault injection bypasses the
//    cache entirely (disk-site injection does not — the disk sites need
//    cache traffic), and a corrupt disk entry decodes to a miss;
//  * every corruption class — truncation, bit rot, torn publishes — is
//    a clean accounted miss, the breaker opens under a sustained disk
//    fault burst and re-closes after a successful probe, and the
//    scrubber quarantines rot before a reader ever sees it;
//  * Verify mode audits hits without ever flagging a false mismatch;
//  * the training memo replays a training run's report and profile
//    exactly, is keyed by every input of the run, stores only clean
//    runs, and is audited by Verify mode;
//  * a hit whose request needs only the emitted IR (no post-pass, no
//    hook) emits the stored text, byte for byte the cold reply.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pre/CachedCompile.h"
#include "pre/CompileService.h"
#include "pre/ParallelDriver.h"
#include "pre/PreDriver.h"
#include "support/CompileCache.h"
#include "support/FaultInjector.h"
#include "workload/ProgramGenerator.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace specpre;

namespace {

struct CorpusEntry {
  Function Prepared;
  Profile Prof;     ///< Full training profile (node + edge).
  Profile NodeOnly; ///< The MC-SSAPRE slice.
};

/// A small deterministic fuzz corpus with real training profiles.
std::vector<CorpusEntry> makeCorpus(unsigned N) {
  GeneratorConfig Cfg;
  Cfg.NumParams = 3;
  std::vector<CorpusEntry> Corpus;
  for (unsigned Seed = 1; Seed <= N; ++Seed) {
    CorpusEntry E;
    E.Prepared = generateProgram(Seed, Cfg, "gen" + std::to_string(Seed));
    prepareFunction(E.Prepared);
    ExecOptions EO;
    EO.CollectProfile = &E.Prof;
    interpret(E.Prepared, {3, 4, 5}, EO);
    E.NodeOnly = E.Prof.withoutEdgeFreqs();
    Corpus.push_back(std::move(E));
  }
  return Corpus;
}

struct CompileResult {
  std::vector<std::string> Printed;
  PreStats Stats;
};

/// One serial pass over the corpus under \p Strategy through \p Cache.
CompileResult compileSerial(const std::vector<CorpusEntry> &Corpus,
                            PreStrategy Strategy, CompileCache *Cache) {
  CompileResult R;
  for (const CorpusEntry &E : Corpus) {
    PreOptions PO;
    PO.Strategy = Strategy;
    PO.Prof = Strategy == PreStrategy::McPre ? &E.Prof : &E.NodeOnly;
    PO.Stats = &R.Stats;
    PO.Cache = Cache;
    R.Printed.push_back(printFunction(compileWithFallback(E.Prepared, PO)));
  }
  return R;
}

void expectSameResults(const CompileResult &A, const CompileResult &B,
                       const char *What) {
  ASSERT_EQ(A.Printed.size(), B.Printed.size()) << What;
  for (size_t I = 0; I != A.Printed.size(); ++I)
    EXPECT_EQ(A.Printed[I], B.Printed[I]) << What << ": function " << I;
  EXPECT_TRUE(A.Stats.records() == B.Stats.records())
      << What << ": stats records diverge";
  EXPECT_TRUE(A.Stats.outcomes() == B.Stats.outcomes())
      << What << ": outcome records diverge";
}

} // namespace

//===----------------------------------------------------------------------===//
// Warm == cold, serial and parallel
//===----------------------------------------------------------------------===//

TEST(CompileCacheTest, WarmReplayIsBitIdenticalSerially) {
  auto Corpus = makeCorpus(6);
  for (PreStrategy S : {PreStrategy::SsaPre, PreStrategy::SsaPreSpec,
                        PreStrategy::McSsaPre, PreStrategy::McPre}) {
    CompileCache Cache({});
    CompileResult Cold = compileSerial(Corpus, S, &Cache);
    CacheCounters AfterCold = Cache.counters();
    EXPECT_EQ(AfterCold.Hits, 0u);
    EXPECT_EQ(AfterCold.Misses, Corpus.size());
    EXPECT_EQ(AfterCold.Stores, Corpus.size());

    CompileResult Warm = compileSerial(Corpus, S, &Cache);
    CacheCounters AfterWarm = Cache.counters();
    EXPECT_EQ(AfterWarm.Hits, Corpus.size()) << strategyName(S);
    EXPECT_EQ(AfterWarm.Misses, Corpus.size());
    expectSameResults(Cold, Warm, strategyName(S));
  }
}

TEST(CompileCacheTest, WarmParallelMatchesColdSerialAtAnyJobs) {
  auto Corpus = makeCorpus(6);
  CompileCache Cache({});

  auto CorpusTasks = [&](CompileCache *C) {
    std::vector<CompileTask> Tasks;
    for (const CorpusEntry &E : Corpus) {
      CompileTask T;
      T.Prepared = &E.Prepared;
      T.Opts.Strategy = PreStrategy::McSsaPre;
      T.Opts.Prof = &E.NodeOnly;
      T.Opts.Cache = C;
      Tasks.push_back(T);
    }
    return Tasks;
  };

  // Cold reference: the corpus pipeline at --jobs=1, uncached.
  CompileResult Reference;
  {
    ParallelConfig PC;
    PC.Jobs = 1;
    ParallelPreDriver Driver(PC);
    for (const Function &F :
         Driver.compileCorpus(CorpusTasks(nullptr), &Reference.Stats))
      Reference.Printed.push_back(printFunction(F));
  }

  for (unsigned Jobs : {1u, 4u}) {
    for (int Round = 0; Round != 2; ++Round) { // miss round, then hit round
      ParallelConfig PC;
      PC.Jobs = Jobs;
      ParallelPreDriver Driver(PC);
      CompileResult Got;
      std::vector<Function> Out =
          Driver.compileCorpus(CorpusTasks(&Cache), &Got.Stats);
      for (const Function &F : Out)
        Got.Printed.push_back(printFunction(F));
      expectSameResults(Reference, Got,
                        Round ? "warm parallel" : "cold parallel");
    }
  }
  // 4 corpus passes through one cache: 1 miss round + 3 hit rounds.
  CacheCounters C = Cache.counters();
  EXPECT_EQ(C.Misses, Corpus.size());
  EXPECT_EQ(C.Hits, 3 * Corpus.size());
}

//===----------------------------------------------------------------------===//
// Key sensitivity: exactly the consumed inputs
//===----------------------------------------------------------------------===//

TEST(CompileCacheTest, KeyTracksTheConsumedProfileSlice) {
  auto Corpus = makeCorpus(1);
  const CorpusEntry &E = Corpus.front();
  ASSERT_TRUE(E.Prof.HasEdgeFreqs);

  auto KeyFor = [&](PreStrategy S, const Profile &P) {
    PreOptions PO;
    PO.Strategy = S;
    PO.Prof = &P;
    return compileCacheKey(E.Prepared, PO);
  };

  Profile NodeBumped = E.Prof;
  ASSERT_FALSE(NodeBumped.BlockFreq.empty());
  ++NodeBumped.BlockFreq.back();
  Profile EdgeBumped = E.Prof;
  ASSERT_FALSE(EdgeBumped.EdgeFreq.empty());
  ++EdgeBumped.EdgeFreq.begin()->second;

  // MC-SSAPRE consumes node frequencies only.
  EXPECT_NE(KeyFor(PreStrategy::McSsaPre, E.Prof),
            KeyFor(PreStrategy::McSsaPre, NodeBumped));
  EXPECT_EQ(KeyFor(PreStrategy::McSsaPre, E.Prof),
            KeyFor(PreStrategy::McSsaPre, EdgeBumped));

  // MC-PRE consumes both.
  EXPECT_NE(KeyFor(PreStrategy::McPre, E.Prof),
            KeyFor(PreStrategy::McPre, NodeBumped));
  EXPECT_NE(KeyFor(PreStrategy::McPre, E.Prof),
            KeyFor(PreStrategy::McPre, EdgeBumped));

  // The heuristic legs consume no profile at all.
  EXPECT_EQ(KeyFor(PreStrategy::SsaPre, E.Prof),
            KeyFor(PreStrategy::SsaPre, NodeBumped));
  EXPECT_EQ(KeyFor(PreStrategy::SsaPreSpec, E.Prof),
            KeyFor(PreStrategy::SsaPreSpec, EdgeBumped));

  // Distinct legs never share an address.
  EXPECT_NE(KeyFor(PreStrategy::McSsaPre, E.Prof),
            KeyFor(PreStrategy::McPre, E.Prof));
  EXPECT_NE(KeyFor(PreStrategy::SsaPre, E.Prof),
            KeyFor(PreStrategy::SsaPreSpec, E.Prof));
}

TEST(CompileCacheTest, KeyTracksIrAndOptions) {
  auto Corpus = makeCorpus(1);
  const CorpusEntry &E = Corpus.front();
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &E.NodeOnly;
  const CacheKey Base = compileCacheKey(E.Prepared, PO);

  // Any single-token IR mutation (renaming one variable everywhere)
  // changes the address.
  Function Renamed = E.Prepared;
  Renamed.VarNames[Renamed.Params.front()] += "x";
  EXPECT_NE(compileCacheKey(Renamed, PO), Base);

  PreOptions Alt = PO;
  Alt.Placement = CutPlacement::Earliest;
  EXPECT_NE(compileCacheKey(E.Prepared, Alt), Base);

  Alt = PO;
  Alt.Budget.MaxGraphNodes = 10000;
  EXPECT_NE(compileCacheKey(E.Prepared, Alt), Base);

  Alt = PO;
  Alt.Verify = !Alt.Verify;
  EXPECT_NE(compileCacheKey(E.Prepared, Alt), Base);

  // And the key is a pure function: same inputs, same address.
  EXPECT_EQ(compileCacheKey(E.Prepared, PO), Base);
}

//===----------------------------------------------------------------------===//
// Soundness: what must never be cached
//===----------------------------------------------------------------------===//

TEST(CompileCacheTest, DegradedOutcomesAreNeverStored) {
  auto Corpus = makeCorpus(2);
  CompileCache Cache({});
  for (int Round = 0; Round != 2; ++Round) {
    for (const CorpusEntry &E : Corpus) {
      PreOptions PO;
      PO.Strategy = PreStrategy::McSsaPre;
      PO.Prof = &E.NodeOnly;
      PO.Cache = &Cache;
      // A one-node graph cap fails every analysis rung; the ladder ends
      // on a degraded rung whose shape depends on where it gave up —
      // never a sound thing to replay later.
      PO.Budget.MaxGraphNodes = 1;
      CompileOutcomeRecord Outcome;
      compileWithFallback(E.Prepared, PO, &Outcome);
      EXPECT_TRUE(Outcome.degraded());
    }
  }
  CacheCounters C = Cache.counters();
  EXPECT_EQ(C.Stores, 0u);
  EXPECT_EQ(C.DegradedUnstored, 2 * Corpus.size());
  EXPECT_EQ(C.Hits, 0u);
  EXPECT_EQ(C.Misses, 2 * Corpus.size());
  EXPECT_EQ(C.FaultBypasses, 0u);
}

TEST(CompileCacheTest, FaultInjectionBypassesTheCacheEntirely) {
  auto Corpus = makeCorpus(1);
  CompileCache Cache({});
  // Armed at rate zero: no fault ever fires, but outcomes *could* depend
  // on the global fault-site counters, so the cache must stand aside.
  ASSERT_TRUE(configureFaultInjection("min-cut:0.0:1").isOk());
  ASSERT_TRUE(faultInjectionEnabled());
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &Corpus.front().NodeOnly;
  PO.Cache = &Cache;
  Function Opt = compileWithFallback(Corpus.front().Prepared, PO);
  CacheCounters C = Cache.counters();
  EXPECT_EQ(C.Hits + C.Misses + C.Stores, 0u);
  EXPECT_EQ(C.FaultBypasses, 1u);
  // A training run takes the same admission rule.
  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  trainThroughCache(Corpus.front().Prepared, {3, 4, 5}, EO, &Cache);
  disableFaultInjection();
  C = Cache.counters();
  EXPECT_EQ(C.TrainHits + C.TrainMisses + C.TrainStores, 0u);
  EXPECT_EQ(C.FaultBypasses, 2u);
  EXPECT_EQ(C.DegradedUnstored, 0u);
  // And the bypass really compiled: same output as an uncached run.
  PO.Cache = nullptr;
  EXPECT_EQ(printFunction(Opt),
            printFunction(compileWithFallback(Corpus.front().Prepared, PO)));
}

TEST(CompileCacheTest, CorruptDiskEntriesDegradeToMisses) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "specpre-cache-test-corrupt";
  fs::remove_all(Dir);

  auto Corpus = makeCorpus(2);
  CompileCache::Config CC;
  CC.DiskDir = Dir.string();
  CompileResult Cold;
  {
    CompileCache Cache(CC);
    Cold = compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
    EXPECT_EQ(Cache.counters().DiskWrites, Corpus.size());
  }
  // Vandalize every on-disk entry a different way: one truncated to
  // nothing, one replaced by a header that lies about its contents.
  unsigned I = 0;
  for (const fs::directory_entry &F : fs::directory_iterator(Dir)) {
    std::ofstream Out(F.path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(Out) << F.path();
    if (I++ % 2)
      Out << "specpre-cache v2\nssa 2\ngarbage\n";
  }
  // A fresh process over the same directory: the store still serves the
  // torn bytes (it cannot decode them), but the compile layer must fall
  // through to a full recompile with the same bits — and overwrite the
  // entry — never error out or return garbage.
  CompileCache Cache(CC);
  CompileResult Warm = compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
  expectSameResults(Cold, Warm, "recompile after corruption");
  EXPECT_EQ(Cache.counters().Stores, Corpus.size());
  EXPECT_EQ(Cache.counters().VerifyMismatches, 0u);

  // The overwritten entries are whole again: a third pass replays them.
  CompileCache Healed(CC);
  CacheCounters Before = Healed.counters();
  CompileResult Replayed =
      compileSerial(Corpus, PreStrategy::McSsaPre, &Healed);
  expectSameResults(Cold, Replayed, "replay after heal");
  EXPECT_EQ(Healed.counters().Hits - Before.Hits, Corpus.size());
  fs::remove_all(Dir);
}

TEST(CompileCacheTest, DiskTierEvictsLruUnderTheByteCap) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "specpre-cache-test-evict";
  fs::remove_all(Dir);

  auto Corpus = makeCorpus(6);
  uint64_t Total = 0;
  {
    CompileCache::Config CC;
    CC.DiskDir = Dir.string();
    CompileCache Cache(CC);
    compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
    ASSERT_EQ(Cache.counters().DiskWrites, Corpus.size());
    for (const fs::directory_entry &F : fs::directory_iterator(Dir))
      Total += fs::file_size(F.path());
  }
  ASSERT_GT(Total, 0u);

  // Age the entries deterministically: file I is (N - I) hours stale.
  // No sleeping — eviction order comes entirely from mtimes.
  std::vector<fs::path> Files;
  for (const fs::directory_entry &F : fs::directory_iterator(Dir))
    Files.push_back(F.path());
  std::sort(Files.begin(), Files.end());
  auto Now = fs::file_time_type::clock::now();
  for (size_t I = 0; I != Files.size(); ++I)
    fs::last_write_time(Files[I],
                        Now - std::chrono::hours(Files.size() - I));

  // A cap one byte below the directory's real size: the constructor's
  // initial sweep must bring the pre-populated tier under it (to 90% of
  // the cap), oldest entries first. Generated programs vary in size, so
  // the cap is derived from the measured total, not a per-entry guess.
  CompileCache::Config CC;
  CC.DiskDir = Dir.string();
  CC.MaxDiskBytes = Total - 1;
  CompileCache Cache(CC);
  EXPECT_GT(Cache.counters().DiskEvictions, 0u);

  uint64_t Remaining = 0, Count = 0;
  for (const fs::directory_entry &F : fs::directory_iterator(Dir)) {
    Remaining += fs::file_size(F.path());
    ++Count;
  }
  EXPECT_LE(Remaining, CC.MaxDiskBytes);
  EXPECT_GT(Count, 0u) << "eviction must converge, not clear the tier";
  // LRU, not random: the newest file (largest mtime) survived.
  EXPECT_TRUE(fs::exists(Files.back()))
      << "most recent entry was evicted before older ones";
  EXPECT_FALSE(fs::exists(Files.front()))
      << "oldest entry outlived the sweep";

  // Evicted keys are clean misses that repopulate; surviving keys hit.
  CompileResult Again = compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
  CacheCounters C = Cache.counters();
  EXPECT_GT(C.Hits, 0u);
  EXPECT_GT(C.Misses, 0u);
  EXPECT_EQ(C.Hits + C.Misses, Corpus.size());
  fs::remove_all(Dir);
}

TEST(CompileCacheTest, SweepReapsStaleTempFilesOnly) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "specpre-cache-test-tmp";
  fs::remove_all(Dir);
  fs::create_directories(Dir);

  // A crashed writer's orphan (backdated past the reap horizon) and a
  // live writer's fresh temp file.
  fs::path Stale = Dir / "deadbeef.sprc.tmp.1234.0";
  fs::path Fresh = Dir / "cafef00d.sprc.tmp.5678.0";
  { std::ofstream(Stale) << std::string(64, 'x'); }
  { std::ofstream(Fresh) << std::string(64, 'y'); }
  fs::last_write_time(Stale, fs::file_time_type::clock::now() -
                                 std::chrono::hours(1));

  CompileCache::Config CC;
  CC.DiskDir = Dir.string();
  CC.MaxDiskBytes = 1 << 20;
  CompileCache Cache(CC); // constructor sweep
  EXPECT_FALSE(fs::exists(Stale)) << "hour-old orphan not reaped";
  EXPECT_TRUE(fs::exists(Fresh)) << "live writer's temp file reaped";
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Verify mode and payload round-trip
//===----------------------------------------------------------------------===//

TEST(CompileCacheTest, VerifyModeAuditsHitsWithoutFalseMismatches) {
  auto Corpus = makeCorpus(4);
  CompileCache::Config CC;
  CC.Mode = CacheMode::Verify;
  CompileCache Cache(CC);
  CompileResult Cold = compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
  CompileResult Warm = compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
  expectSameResults(Cold, Warm, "verify mode");
  CacheCounters C = Cache.counters();
  EXPECT_EQ(C.Hits, Corpus.size());
  EXPECT_EQ(C.VerifyMismatches, 0u);
}

TEST(CompileCacheTest, PayloadRoundTripsExactly) {
  auto Corpus = makeCorpus(3);
  for (const CorpusEntry &E : Corpus) {
    PreStats Stats;
    PreOptions PO;
    PO.Strategy = PreStrategy::McSsaPre;
    PO.Prof = &E.NodeOnly;
    PO.Stats = &Stats;
    CompileOutcomeRecord Outcome;
    Function Opt = compileWithFallback(E.Prepared, PO, &Outcome);

    std::string Payload =
        encodeCachePayload(Opt, Stats.records(), Outcome);
    Function Decoded;
    std::vector<ExprStatsRecord> Records;
    CompileOutcomeRecord DecodedOutcome;
    ASSERT_TRUE(decodeCachePayload(Payload, Decoded, Records,
                                   DecodedOutcome));
    EXPECT_EQ(printFunction(Decoded), printFunction(Opt));
    EXPECT_EQ(Decoded.IsSSA, Opt.IsSSA);
    EXPECT_TRUE(Records == Stats.records());
    EXPECT_TRUE(DecodedOutcome == Outcome);

    // Truncating the payload anywhere must fail cleanly, never decode to
    // a different result.
    for (size_t Cut : {Payload.size() - 1, Payload.size() / 2, size_t{0}}) {
      Function Junk;
      std::vector<ExprStatsRecord> JunkRecords;
      CompileOutcomeRecord JunkOutcome;
      EXPECT_FALSE(decodeCachePayload(Payload.substr(0, Cut), Junk,
                                      JunkRecords, JunkOutcome))
          << "truncation at " << Cut << " decoded";
    }
  }
}

TEST(CompileCacheTest, CorruptedIntegerTokensAreRejected) {
  // The corruption corpus for the payload parsers. Before the checked
  // linecodec parsers, strtoull slack let several of these *decode
  // successfully* — "+0" for a count was read as 0, overflow digits
  // clamped to ULLONG_MAX — turning a flipped disk byte into silently
  // wrong replay data instead of a miss.
  auto Corpus = makeCorpus(1);
  const CorpusEntry &E = Corpus.front();
  PreStats Stats;
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &E.NodeOnly;
  PO.Stats = &Stats;
  CompileOutcomeRecord Outcome;
  Function Opt = compileWithFallback(E.Prepared, PO, &Outcome);
  std::string Payload = encodeCachePayload(Opt, Stats.records(), Outcome);

  size_t CountPos = Payload.find("records ");
  ASSERT_NE(CountPos, std::string::npos);
  CountPos += std::strlen("records ");
  size_t CountEnd = Payload.find('\n', CountPos);
  ASSERT_NE(CountEnd, std::string::npos);
  const std::string CountTok = Payload.substr(CountPos, CountEnd - CountPos);

  auto DecodeWithCount = [&](const std::string &Tok) {
    std::string Mutated = Payload;
    Mutated.replace(CountPos, CountTok.size(), Tok);
    Function Junk;
    std::vector<ExprStatsRecord> Records;
    CompileOutcomeRecord JunkOutcome;
    return decodeCachePayload(Mutated, Junk, Records, JunkOutcome);
  };

  EXPECT_TRUE(DecodeWithCount(CountTok)) << "identity mutation must decode";
  // Sign slack: strtoull accepts both; a cache entry must not.
  EXPECT_FALSE(DecodeWithCount("+" + CountTok));
  EXPECT_FALSE(DecodeWithCount("-1"));
  // ERANGE overflow: 26 digits clamp to ULLONG_MAX without errno checks.
  EXPECT_FALSE(DecodeWithCount("99999999999999999999999999"));
  // Trailing garbage and empty tokens.
  EXPECT_FALSE(DecodeWithCount(CountTok + "x"));
  EXPECT_FALSE(DecodeWithCount("0x10"));
  // An embedded NUL, where strtoull stops as if the token ended.
  EXPECT_FALSE(DecodeWithCount(CountTok + std::string(1, '\0') + "7"));
}

namespace {

/// A compile outcome and an expression record in which every field
/// differs: both bools set, negative weights, a uint64_t above 2^32 and
/// strings that need escaping.
CompileOutcomeRecord distinctOutcome() {
  CompileOutcomeRecord O;
  O.FunctionName = "hot fn%";
  O.FuncIndex = 7;
  O.Requested = "MC-SSAPRE";
  O.Used = "SSAPRE (spec)";
  O.Retries = 2;
  O.Cause = "resource-limit";
  O.Message = "EFG has 9 nodes\tover budget";
  return O;
}

ExprStatsRecord distinctRecord() {
  ExprStatsRecord R;
  R.Expr = "a * b";
  R.FunctionName = "hot fn%";
  R.FuncIndex = 7;
  R.ExprIndex = 11;
  R.FrgPhis = 13;
  R.FrgReals = 17;
  R.EfgEmpty = true;
  R.EfgNodes = 19;
  R.EfgEdges = 23;
  R.CutWeight = -29;
  R.NumInsertions = 31;
  R.NumReloads = 37;
  R.NumSaves = 41;
  R.NumTempPhis = 43;
  R.McPreNodes = 47;
  R.McPreEdges = 53;
  R.ReloadedFreq = 5000000059ULL;
  R.InsertedFreq = 61;
  R.SprReloadedFreq = 67;
  R.SprWeight = -71;
  R.InsertedWeight = -73;
  R.InPlaceWeight = 79;
  R.Saturated = true;
  R.Speculated = true;
  R.LospreWidth = 83;
  R.LospreDpEntries = 8000000089ULL;
  return R;
}

} // namespace

TEST(CompileCacheTest, PayloadBytesArePinned) {
  // The specpre-cache v2 bytes, pinned. Every field of both records
  // differs, so a field-table row out of order or with the wrong token
  // codec changes them, and a changed payload would orphan every entry
  // on disk without a format bump.
  std::string Error;
  std::optional<Module> M = parseModule(
      "func f(a, b) {\nentry:\n  x = a * b\n  ret x\n}\n", Error);
  ASSERT_TRUE(M) << Error;
  const std::vector<ExprStatsRecord> Records = {distinctRecord(),
                                                ExprStatsRecord()};
  const std::string Payload =
      encodeCachePayload(M->Functions.front(), Records, distinctOutcome());
  EXPECT_EQ(Payload,
            "specpre-cache v2\n"
            "ssa 0\n"
            "outcome hot%20fn%25 7 MC-SSAPRE SSAPRE%20(spec) 2 "
            "resource-limit EFG%20has%209%20nodes%09over%20budget\n"
            "records 2\n"
            "record a%20*%20b hot%20fn%25 7 11 13 17 1 19 23 -29 31 37 41 43 "
            "47 53 5000000059 61 67 -71 -73 79 1 1 83 8000000089\n"
            "record % % 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
            "ir 44\n"
            "func f(a, b) {\n"
            "entry:\n"
            "  x = a * b\n"
            "  ret x\n"
            "}\n");

  Function Decoded;
  std::vector<ExprStatsRecord> DecodedRecords;
  CompileOutcomeRecord DecodedOutcome;
  ASSERT_TRUE(
      decodeCachePayload(Payload, Decoded, DecodedRecords, DecodedOutcome));
  EXPECT_TRUE(DecodedRecords == Records);
  EXPECT_TRUE(DecodedOutcome == distinctOutcome());
}

//===----------------------------------------------------------------------===//
// Durability: the checksum trailer, fault-injected publishes, the
// breaker, and the scrubber (docs/CACHING.md "Durability and
// self-healing")
//===----------------------------------------------------------------------===//

namespace {

/// Disarms injection on every exit path so a failing assertion cannot
/// leak an armed spec into later tests.
struct InjectionGuard {
  explicit InjectionGuard(const char *Spec) {
    EXPECT_TRUE(configureFaultInjection(Spec).isOk()) << Spec;
  }
  ~InjectionGuard() { disableFaultInjection(); }
};

std::string readFileBytes(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  EXPECT_TRUE(In) << P;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return std::move(Buf).str();
}

void writeFileBytes(const std::filesystem::path &P, const std::string &Bytes) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out) << P;
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

} // namespace

TEST(CompileCacheTest, DiskEntryTrailerRoundTrips) {
  const std::string Payloads[] = {"", "x", std::string(1000, 'z'),
                                  "specpre-cache v2\nssa 1\nir\nret 0\n"};
  for (const std::string &P : Payloads) {
    std::string Framed = CompileCache::encodeDiskEntry(P);
    ASSERT_GT(Framed.size(), P.size());
    std::string Back;
    ASSERT_TRUE(CompileCache::decodeDiskEntry(Framed, Back)) << P.size();
    EXPECT_EQ(Back, P);
  }
  // Distinct payloads get distinct sums (no degenerate constant digest).
  EXPECT_NE(CompileCache::payloadChecksum("a"),
            CompileCache::payloadChecksum("b"));
  // Appending bytes changes the digest even when the prefix is shared.
  EXPECT_NE(CompileCache::payloadChecksum("abc"),
            CompileCache::payloadChecksum("abcd"));
  std::string Empty;
  EXPECT_FALSE(CompileCache::decodeDiskEntry("", Empty));
}

TEST(CompileCacheTest, EveryCorruptionClassIsACleanMiss) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "specpre-cache-test-classes";
  fs::remove_all(Dir);

  auto Corpus = makeCorpus(1);
  CompileCache::Config CC;
  CC.DiskDir = Dir.string();
  CompileResult Cold;
  {
    CompileCache Cache(CC);
    Cold = compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
    ASSERT_EQ(Cache.counters().DiskWrites, 1u);
  }
  fs::path EntryPath;
  for (const fs::directory_entry &F : fs::directory_iterator(Dir))
    EntryPath = F.path();
  ASSERT_FALSE(EntryPath.empty());
  const std::string Good = readFileBytes(EntryPath);
  ASSERT_GT(Good.size(), 32u);

  // The framed entry's interesting offsets: the payload's own header
  // line, an integer token, the payload middle, and the trailer.
  size_t HeaderEnd = Good.find('\n');
  ASSERT_NE(HeaderEnd, std::string::npos);
  size_t RecordsAt = Good.find("records ");
  ASSERT_NE(RecordsAt, std::string::npos);
  size_t TrailerAt = Good.rfind("sprc-sum ");
  ASSERT_NE(TrailerAt, std::string::npos);

  std::vector<std::pair<const char *, std::string>> Mutations;
  // Zero-length file and truncation at every section boundary.
  Mutations.emplace_back("zero-length", "");
  for (size_t Cut : {size_t{1}, HeaderEnd, RecordsAt, Good.size() / 2,
                     TrailerAt, Good.size() - 1})
    Mutations.emplace_back("truncation", Good.substr(0, Cut));
  // Single bit-flips in the header, integer, payload, trailer regions.
  for (size_t At : {size_t{2}, RecordsAt + 8, Good.size() / 2,
                    TrailerAt + 10, Good.size() - 2}) {
    std::string Flipped = Good;
    Flipped[At] = static_cast<char>(Flipped[At] ^ 0x01);
    Mutations.emplace_back("bit-flip", Flipped);
  }

  for (size_t I = 0; I != Mutations.size(); ++I) {
    SCOPED_TRACE(std::string(Mutations[I].first) + " #" + std::to_string(I));
    writeFileBytes(EntryPath, Mutations[I].second);
    // Every class fails the static decoder...
    std::string Out;
    EXPECT_FALSE(CompileCache::decodeDiskEntry(Mutations[I].second, Out));
    // ...and through a fresh cache it is a clean miss: the entry is
    // dropped, accounted, recompiled bit-identically, and republished.
    CompileCache Cache(CC);
    CompileResult Warm = compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
    expectSameResults(Cold, Warm, Mutations[I].first);
    CacheCounters C = Cache.counters();
    EXPECT_EQ(C.Hits, 0u);
    EXPECT_EQ(C.Misses, 1u);
    EXPECT_EQ(C.CorruptDropped, 1u);
    EXPECT_EQ(C.Stores, 1u);
    EXPECT_EQ(C.DiskWrites, 1u) << "dropped entry was not republished";
    // Republished bytes must be whole again for the next round.
    std::string Back;
    EXPECT_TRUE(CompileCache::decodeDiskEntry(readFileBytes(EntryPath), Back));
  }
  fs::remove_all(Dir);
}

TEST(CompileCacheTest, DiskFaultSitesDoNotBypassTheCache) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "specpre-cache-test-nobypass";
  fs::remove_all(Dir);

  auto Corpus = makeCorpus(2);
  CompileCache::Config CC;
  CC.DiskDir = Dir.string();
  CompileCache Cache(CC);
  // Disk sites armed (at rate zero) leave compile outcomes input-pure,
  // so the cache must stay engaged — otherwise the disk sites could
  // never see traffic. Contrast FaultInjectionBypassesTheCacheEntirely.
  InjectionGuard Guard("disk-enospc:0.0:1,disk-eio:0.0:2");
  ASSERT_TRUE(faultInjectionEnabled());
  ASSERT_FALSE(pipelineFaultInjectionEnabled());
  CompileResult Cold = compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
  CompileResult Warm = compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
  expectSameResults(Cold, Warm, "disk sites armed");
  CacheCounters C = Cache.counters();
  EXPECT_EQ(C.Stores, Corpus.size());
  EXPECT_EQ(C.Hits, Corpus.size());
  fs::remove_all(Dir);
}

TEST(CompileCacheTest, FailedStoresDegradeToPassthrough) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "specpre-cache-test-storefail";
  fs::remove_all(Dir);

  auto Corpus = makeCorpus(2);
  CompileResult Reference = compileSerial(Corpus, PreStrategy::McSsaPre,
                                          nullptr);
  CompileCache::Config CC;
  CC.DiskDir = Dir.string();
  CompileCache Cache(CC);
  // Every publish's rename fails: the request must still succeed with
  // bit-identical output, and no temp (or torn final) file may remain.
  InjectionGuard Guard("disk-rename-fail:1:1");
  CompileResult Got = compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
  expectSameResults(Reference, Got, "rename failures");
  CacheCounters C = Cache.counters();
  EXPECT_EQ(C.Stores, Corpus.size());
  EXPECT_EQ(C.DiskWrites, 0u);
  EXPECT_EQ(C.DiskIoErrors, Corpus.size());
  unsigned FilesLeft = 0;
  for (const fs::directory_entry &F : fs::directory_iterator(Dir)) {
    (void)F;
    ++FilesLeft;
  }
  EXPECT_EQ(FilesLeft, 0u) << "failed publish leaked a file";
  fs::remove_all(Dir);
}

TEST(CompileCacheTest, TornAndRottenPublishesAreCaughtByTheChecksum) {
  namespace fs = std::filesystem;
  for (const char *Spec : {"disk-short-write:1:1", "disk-corrupt-byte:1:1"}) {
    SCOPED_TRACE(Spec);
    fs::path Dir = fs::temp_directory_path() / "specpre-cache-test-torn";
    fs::remove_all(Dir);

    auto Corpus = makeCorpus(2);
    CompileCache::Config CC;
    CC.DiskDir = Dir.string();
    CompileResult Cold;
    {
      CompileCache Cache(CC);
      InjectionGuard Guard(Spec);
      // The injected fault is silent: the publish "succeeds" but the
      // bytes on disk are torn or rotten.
      Cold = compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
      EXPECT_EQ(Cache.counters().DiskWrites, Corpus.size());
    }
    // A fresh process reads the damaged tier: every entry must be
    // detected, dropped, recompiled bit-identically, and republished.
    CompileCache Cache(CC);
    CompileResult Warm = compileSerial(Corpus, PreStrategy::McSsaPre, &Cache);
    expectSameResults(Cold, Warm, Spec);
    CacheCounters C = Cache.counters();
    EXPECT_EQ(C.CorruptDropped, Corpus.size());
    EXPECT_EQ(C.Hits, 0u);
    EXPECT_EQ(C.DiskWrites, Corpus.size());

    // And the healed tier replays clean.
    CompileCache Healed(CC);
    CompileResult Replayed =
        compileSerial(Corpus, PreStrategy::McSsaPre, &Healed);
    expectSameResults(Cold, Replayed, "replay after heal");
    EXPECT_EQ(Healed.counters().Hits, Corpus.size());
    EXPECT_EQ(Healed.counters().CorruptDropped, 0u);
    fs::remove_all(Dir);
  }
}

TEST(CompileCacheTest, EnospcBurstOpensAndReclosesTheBreaker) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "specpre-cache-test-breaker";
  fs::remove_all(Dir);

  CompileCache::Config CC;
  CC.DiskDir = Dir.string();
  CC.BreakerThreshold = 3;
  CC.BreakerCooldownMs = 50;
  CompileCache Cache(CC);
  auto KeyN = [](uint64_t N) { return CacheKey{0x1000 + N, N}; };

  {
    // A sustained ENOSPC burst: the first BreakerThreshold publishes
    // fail for real, then the breaker opens and short-circuits the rest
    // without touching the disk.
    InjectionGuard Guard("disk-enospc:1:1");
    for (uint64_t I = 0; I != 6; ++I)
      Cache.insert(KeyN(I), "payload-" + std::to_string(I));
    CacheCounters C = Cache.counters();
    EXPECT_EQ(Cache.breakerState(), DiskBreakerState::Open);
    EXPECT_EQ(C.BreakerOpens, 1u);
    EXPECT_EQ(C.DiskIoErrors, CC.BreakerThreshold);
    EXPECT_EQ(C.BreakerShortCircuits, 6 - CC.BreakerThreshold);
    EXPECT_EQ(C.DiskWrites, 0u);

    // A cold lookup against an open breaker is a miss by decree — no
    // disk access, no stall.
    EXPECT_FALSE(Cache.lookup(KeyN(99)).has_value());
    EXPECT_GT(Cache.counters().BreakerShortCircuits,
              C.BreakerShortCircuits);
  }

  // Disk recovers; after the cooldown one half-open probe succeeds and
  // re-closes the breaker, and publishes flow again.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  Cache.insert(KeyN(100), "recovered");
  EXPECT_EQ(Cache.breakerState(), DiskBreakerState::Closed);
  CacheCounters C = Cache.counters();
  EXPECT_EQ(C.DiskWrites, 1u);

  // The probe's bytes really landed, whole.
  CompileCache Fresh(CC);
  auto Back = Fresh.lookup(KeyN(100));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, "recovered");
  fs::remove_all(Dir);
}

TEST(CompileCacheTest, DurablePublishRoundTrips) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "specpre-cache-test-durable";
  fs::remove_all(Dir);

  CompileCache::Config CC;
  CC.DiskDir = Dir.string();
  CC.Durable = true; // fsync file + directory around the rename
  {
    CompileCache Cache(CC);
    Cache.insert(CacheKey{1, 2}, "durable payload");
    EXPECT_EQ(Cache.counters().DiskWrites, 1u);
  }
  CompileCache Fresh(CC);
  auto Back = Fresh.lookup(CacheKey{1, 2});
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, "durable payload");
  fs::remove_all(Dir);
}

TEST(CompileCacheTest, SweepReapsTempsWithoutAByteCap) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "specpre-cache-test-nocap-tmp";
  fs::remove_all(Dir);
  fs::create_directories(Dir);

  // The pre-fix sweep returned immediately without a byte cap, so an
  // unbounded tier leaked crashed writers' temps forever.
  fs::path Stale = Dir / "deadbeef.sprc.tmp.1234.0";
  fs::path Fresh = Dir / "cafef00d.sprc.tmp.5678.0";
  { std::ofstream(Stale) << std::string(64, 'x'); }
  { std::ofstream(Fresh) << std::string(64, 'y'); }
  fs::last_write_time(Stale, fs::file_time_type::clock::now() -
                                 std::chrono::hours(1));

  CompileCache::Config CC;
  CC.DiskDir = Dir.string(); // MaxDiskBytes = 0: unbounded
  CompileCache Cache(CC);
  Cache.sweepDiskTier();
  EXPECT_FALSE(fs::exists(Stale)) << "uncapped sweep left the orphan";
  EXPECT_TRUE(fs::exists(Fresh)) << "live writer's temp file reaped";
  fs::remove_all(Dir);
}

TEST(CompileCacheTest, ScrubQuarantinesCorruptEntriesAndReapsTemps) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "specpre-cache-test-scrub";
  fs::remove_all(Dir);

  CompileCache::Config CC;
  CC.DiskDir = Dir.string();
  CompileCache Cache(CC);
  for (uint64_t I = 0; I != 3; ++I)
    Cache.insert(CacheKey{I, I}, "scrub-payload-" + std::to_string(I));
  ASSERT_EQ(Cache.counters().DiskWrites, 3u);

  // Rot one entry and orphan one stale temp.
  fs::path Victim = Dir / (CacheKey{1, 1}.toHex() + ".sprc");
  std::string Bytes = readFileBytes(Victim);
  Bytes[Bytes.size() / 2] = static_cast<char>(Bytes[Bytes.size() / 2] ^ 0x10);
  writeFileBytes(Victim, Bytes);
  fs::path Stale = Dir / "deadbeef.sprc.tmp.42.0";
  { std::ofstream(Stale) << "orphan"; }
  fs::last_write_time(Stale, fs::file_time_type::clock::now() -
                                 std::chrono::hours(1));

  CompileCache::ScrubReport R = Cache.scrubDiskTier();
  EXPECT_EQ(R.Scanned, 3u);
  EXPECT_EQ(R.Quarantined, 1u);
  EXPECT_EQ(R.ReadFailures, 0u);
  EXPECT_FALSE(fs::exists(Victim)) << "corrupt entry still servable";
  EXPECT_TRUE(fs::exists(Victim.string() + ".quar"))
      << "quarantine kept no forensic copy";
  EXPECT_FALSE(fs::exists(Stale)) << "scrub left the temp orphan";
  CacheCounters C = Cache.counters();
  EXPECT_EQ(C.ScrubScanned, 3u);
  EXPECT_EQ(C.ScrubQuarantined, 1u);
  EXPECT_EQ(C.CorruptDropped, 1u);

  // The quarantined key is a clean disk miss; its neighbors still hit.
  CompileCache Fresh(CC);
  EXPECT_FALSE(Fresh.lookup(CacheKey{1, 1}).has_value());
  auto Neighbor = Fresh.lookup(CacheKey{0, 0});
  ASSERT_TRUE(Neighbor.has_value());
  EXPECT_EQ(*Neighbor, "scrub-payload-0");

  // A second scrub over the healed tier finds nothing new to do.
  CompileCache::ScrubReport R2 = Cache.scrubDiskTier();
  EXPECT_EQ(R2.Quarantined, 0u);
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// The training memo (docs/CACHING.md "Training memo")
//===----------------------------------------------------------------------===//

namespace {

Function parsePrepared(const std::string &Text) {
  std::string Error;
  std::optional<Module> M = parseModule(Text, Error);
  if (!M || M->Functions.size() != 1) {
    ADD_FAILURE() << "not one function: " << Error;
    return Function();
  }
  Function F = std::move(M->Functions.front());
  prepareFunction(F);
  return F;
}

/// One block: trains to HasEdgeFreqs with no edge at all.
const char *OneBlockText = "func one(a) {\nentry:\n  x = a * a\n  ret x\n}\n";

/// Traps on a zero argument.
const char *TrapText = "func trap(a) {\nentry:\n  x = 7 / a\n  ret x\n}\n";

std::string example(const char *Name) {
  return readFileBytes(std::filesystem::path(SPECPRE_EXAMPLES_DIR) / Name);
}

ServeResponse serve(const ServeRequest &R, CompileCache *Cache,
                    unsigned Jobs = 1, const ServeFunctionHook &Hook = {}) {
  ParallelConfig PC;
  PC.Jobs = Jobs;
  ParallelPreDriver Driver(PC);
  return processServeRequest(R, Driver, Cache, nullptr, Hook);
}

ServeRequest trainRequest(const std::string &Module,
                          std::vector<int64_t> Args,
                          PreStrategy S = PreStrategy::McSsaPre) {
  ServeRequest R;
  R.ModuleText = Module;
  R.Strategy = S;
  if (strategyNeedsProfile(S))
    R.TrainArgs = std::move(Args);
  return R;
}

void expectSameReply(const ServeResponse &A, const ServeResponse &B,
                     const std::string &What) {
  EXPECT_EQ(A.StdoutText, B.StdoutText) << What;
  EXPECT_EQ(A.StderrText, B.StderrText) << What;
  EXPECT_EQ(A.ExitCode, B.ExitCode) << What;
  EXPECT_EQ(A.Degraded, B.Degraded) << What;
}

/// serializeProfile of every function's profile, as --profile-out
/// writes it.
ServeFunctionHook profileOut(std::string &Out) {
  return [&Out](const Function &, const Profile &Prof, const Function &,
                const PreStats &, ServeResponse &) {
    Out += serializeProfile(Prof);
    return 0;
  };
}

} // namespace

TEST(TrainingMemoTest, PayloadRoundTripsExactly) {
  struct Case {
    Function F;
    std::vector<int64_t> Args;
  };
  std::vector<Case> Cases;
  Cases.push_back({parsePrepared(OneBlockText), {-3}});
  // p = 0: the then-block never runs, so the profile holds zero
  // frequencies.
  Cases.push_back(
      {parsePrepared(example("diamond.spre")),
       {1, 2, 0}});
  for (CorpusEntry &E : makeCorpus(3))
    Cases.push_back({std::move(E.Prepared), {3, 4, 5}});

  bool SawOneBlock = false, SawZeroBlock = false;
  for (const Case &C : Cases) {
    Profile Prof;
    ExecOptions EO;
    EO.CollectProfile = &Prof;
    ExecResult R = interpret(C.F, C.Args, EO);
    ASSERT_FALSE(R.Trapped || R.TimedOut) << C.F.Name;
    SawOneBlock |= Prof.HasEdgeFreqs && Prof.EdgeFreq.empty();
    SawZeroBlock |= std::count(Prof.BlockFreq.begin(), Prof.BlockFreq.end(),
                               0u) != 0;

    const std::string Payload = encodeTrainingPayload(R, Prof);
    ExecResult Back;
    Back.StepsExecuted = 99;
    Profile BackProf;
    ASSERT_TRUE(
        decodeTrainingPayload(Payload, C.F.numBlocks(), Back, BackProf))
        << C.F.Name;
    EXPECT_EQ(Back.ReturnValue, R.ReturnValue);
    EXPECT_EQ(Back.DynamicComputations, R.DynamicComputations);
    EXPECT_EQ(Back.Cycles, R.Cycles);
    EXPECT_FALSE(Back.Trapped || Back.TimedOut);
    EXPECT_EQ(BackProf.BlockFreq, Prof.BlockFreq) << C.F.Name;
    EXPECT_EQ(BackProf.EdgeFreq, Prof.EdgeFreq) << C.F.Name;
    EXPECT_EQ(BackProf.HasEdgeFreqs, Prof.HasEdgeFreqs) << C.F.Name;
  }
  EXPECT_TRUE(SawOneBlock);
  EXPECT_TRUE(SawZeroBlock);

  // The bytes, pinned: the edges flag is explicit, the profile is
  // serializeProfile's text behind its byte count.
  Profile One;
  ExecOptions EO;
  EO.CollectProfile = &One;
  ExecResult R = interpret(Cases.front().F, {-3}, EO);
  EXPECT_EQ(encodeTrainingPayload(R, One),
            "specpre-train v1\n"
            "result 9 1 " + std::to_string(R.Cycles) + "\n"
            "edges 1\n"
            "profile 29\n"
            "specpre-profile v1\n"
            "block 0 1\n");
}

TEST(TrainingMemoTest, ProfileOutAndMcPreKeyOnAWarmRunEqualCold) {
  // A warm run's profile reaches the side channels byte for byte, and
  // the one-block function's HasEdgeFreqs survives the memo: MC-PRE's
  // compile key hashes it, so the warm compile is a hit.
  for (PreStrategy S : {PreStrategy::McPre, PreStrategy::McSsaPre}) {
    for (const std::string &Module :
         {std::string(OneBlockText),
          example("loop.spre")}) {
      const ServeRequest Req =
          trainRequest(Module, Module == OneBlockText
                                   ? std::vector<int64_t>{5}
                                   : std::vector<int64_t>{3, 4, 64},
                       S);
      std::string ColdProf, WarmProf;
      const ServeResponse Cold = serve(Req, nullptr, 1, profileOut(ColdProf));
      CompileCache Cache({});
      std::string FillProf;
      expectSameReply(Cold, serve(Req, &Cache, 1, profileOut(FillProf)),
                      "fill");
      const ServeResponse Warm = serve(Req, &Cache, 1, profileOut(WarmProf));
      expectSameReply(Cold, Warm, "warm");
      EXPECT_EQ(ColdProf, FillProf);
      EXPECT_EQ(ColdProf, WarmProf);
      CacheCounters C = Cache.counters();
      EXPECT_EQ(C.TrainHits, 1u) << strategyName(S);
      EXPECT_EQ(C.TrainMisses, 1u);
      EXPECT_EQ(C.TrainStores, 1u);
      EXPECT_EQ(C.Hits, 1u) << strategyName(S);
      EXPECT_EQ(C.Misses, 1u);
    }
  }
}

TEST(TrainingMemoTest, KeyTracksEveryInputOfTheRun) {
  const Function F = makeCorpus(1).front().Prepared;
  const std::vector<int64_t> Args = {3, 4, 5};
  const ExecOptions Base;
  const CacheKey K0 = trainingCacheKey(F, Args, Base);
  EXPECT_EQ(trainingCacheKey(F, Args, Base), K0);
  // The profile sink is an output, not an input.
  Profile Sink;
  ExecOptions WithSink = Base;
  WithSink.CollectProfile = &Sink;
  EXPECT_EQ(trainingCacheKey(F, Args, WithSink), K0);

  for (size_t I = 0; I != Args.size(); ++I) {
    std::vector<int64_t> A = Args;
    ++A[I];
    EXPECT_NE(trainingCacheKey(F, A, Base), K0) << "argument " << I;
  }
  EXPECT_NE(trainingCacheKey(F, {3, 4}, Base), K0) << "argument count";

  ExecOptions EO = Base;
  ++EO.MaxSteps;
  EXPECT_NE(trainingCacheKey(F, Args, EO), K0) << "MaxSteps";

  for (unsigned Op = 0; Op != NumOpcodes; ++Op) {
    EO = Base;
    ++EO.Costs.OpCost[Op];
    EXPECT_NE(trainingCacheKey(F, Args, EO), K0) << "OpCost " << Op;
  }
  for (uint64_t CostModel::*Field :
       {&CostModel::CopyCost, &CostModel::PhiCost, &CostModel::BranchCost,
        &CostModel::JumpCost, &CostModel::RetCost, &CostModel::PrintCost}) {
    EO = Base;
    ++(EO.Costs.*Field);
    EXPECT_NE(trainingCacheKey(F, Args, EO), K0) << "a scalar cost";
  }

  Function Renamed = F;
  Renamed.VarNames[Renamed.Params.front()] += "x";
  EXPECT_NE(trainingCacheKey(Renamed, Args, Base), K0) << "one token";

  // A training key never addresses a compile entry of the same function.
  PreOptions PO;
  PO.Strategy = PreStrategy::None;
  EXPECT_NE(compileCacheKey(F, PO), K0);
}

TEST(TrainingMemoTest, OnlyCleanRunsAreStored) {
  CompileCache Cache({});
  ExecOptions EO;
  Profile Prof;
  EO.CollectProfile = &Prof;

  const Function Trap = parsePrepared(TrapText);
  ExecResult R = trainThroughCache(Trap, {0}, EO, &Cache);
  EXPECT_TRUE(R.Trapped);
  const Function Loop =
      parsePrepared(example("loop.spre"));
  EO.MaxSteps = 20;
  R = trainThroughCache(Loop, {3, 4, 64}, EO, &Cache);
  EXPECT_TRUE(R.TimedOut);
  CacheCounters C = Cache.counters();
  EXPECT_EQ(C.TrainMisses, 2u);
  EXPECT_EQ(C.TrainStores, 0u);
  // Nothing stored, so the same runs miss again.
  trainThroughCache(Loop, {3, 4, 64}, EO, &Cache);
  EXPECT_EQ(Cache.counters().TrainMisses, 3u);
  EXPECT_EQ(Cache.counters().TrainStores, 0u);
}

TEST(TrainingMemoTest, TruncatedAndForeignEntriesAreMisses) {
  auto Corpus = makeCorpus(2);
  const Function &F = Corpus[0].Prepared;
  const std::vector<int64_t> Args = {3, 4, 5};
  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  const ExecResult Cold = interpret(F, Args, EO);
  const Profile ColdProf = Prof;
  const std::string Payload = encodeTrainingPayload(Cold, ColdProf);

  // Every truncation fails to decode, at a line boundary too.
  const size_t LastLine = Payload.rfind('\n', Payload.size() - 2) + 1;
  for (size_t Cut :
       {Payload.size() - 1, LastLine, Payload.size() / 2, size_t{0}}) {
    ExecResult R;
    Profile P;
    EXPECT_FALSE(decodeTrainingPayload(Payload.substr(0, Cut), F.numBlocks(),
                                       R, P))
        << "truncation at " << Cut << " decoded";
  }
  // So do a wrong block count, a non-canonical profile and an edge line
  // under "edges 0".
  ExecResult R;
  Profile P;
  EXPECT_FALSE(decodeTrainingPayload(Payload, F.numBlocks() + 1, R, P));
  std::string Padded = Payload;
  Padded.replace(Padded.find("profile "), std::string::npos,
                 "profile " +
                     std::to_string(serializeProfile(ColdProf).size() + 1) +
                     "\n" + serializeProfile(ColdProf) + "\n");
  EXPECT_FALSE(decodeTrainingPayload(Padded, F.numBlocks(), R, P));
  ASSERT_FALSE(ColdProf.EdgeFreq.empty());
  std::string NoEdges = Payload;
  NoEdges.replace(NoEdges.find("edges 1"), 7, "edges 0");
  EXPECT_FALSE(decodeTrainingPayload(NoEdges, F.numBlocks(), R, P));

  // Through the protocol: a truncated entry, and another function's
  // entry planted under this key, are misses that interpret and
  // overwrite.
  Profile Other;
  ExecOptions OtherEO;
  OtherEO.CollectProfile = &Other;
  const Function One = parsePrepared(OneBlockText);
  const std::string Foreign =
      encodeTrainingPayload(interpret(One, {2}, OtherEO), Other);
  ASSERT_NE(One.numBlocks(), F.numBlocks());
  const CacheKey Key = trainingCacheKey(F, Args, ExecOptions());
  for (const std::string &Planted : {Payload.substr(0, LastLine), Foreign}) {
    CompileCache Cache({});
    Cache.insert(Key, Planted, CacheEntryKind::Training);
    Profile Got;
    ExecOptions GotEO;
    GotEO.CollectProfile = &Got;
    ExecResult Warm = trainThroughCache(F, Args, GotEO, &Cache);
    EXPECT_EQ(encodeTrainingPayload(Warm, Got), Payload);
    EXPECT_EQ(Warm.StepsExecuted, Cold.StepsExecuted) << "it interpreted";
    EXPECT_EQ(Cache.counters().TrainStores, 2u) << "it overwrote";
    EXPECT_EQ(*Cache.lookup(Key, CacheEntryKind::Training), Payload);
  }
}

TEST(TrainingMemoTest, VerifyModeAuditsTheTrainingKey) {
  const std::string Module =
      example("loop.spre");
  const ServeRequest Req = trainRequest(Module, {3, 4, 64});
  const ServeResponse Cold = serve(Req, nullptr);

  // Plant an entry whose return value is wrong under the training key
  // the request will compute.
  const Function F = parsePrepared(Module);
  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  ExecResult Wrong = interpret(F, {3, 4, 64}, EO);
  ++Wrong.ReturnValue;
  CompileCache::Config CC;
  CC.Mode = CacheMode::Verify;
  CompileCache Cache(CC);
  Cache.insert(trainingCacheKey(F, {3, 4, 64}, ExecOptions()),
               encodeTrainingPayload(Wrong, Prof), CacheEntryKind::Training);

  expectSameReply(Cold, serve(Req, &Cache), "verify");
  CacheCounters C = Cache.counters();
  EXPECT_EQ(C.TrainHits, 1u);
  EXPECT_EQ(C.VerifyMismatches, 1u);

  // The audit keeps the entry; a correct one audits clean.
  expectSameReply(Cold, serve(Req, &Cache), "verify again");
  EXPECT_EQ(Cache.counters().VerifyMismatches, 2u);
  CompileCache Clean(CC);
  serve(Req, &Clean);
  expectSameReply(Cold, serve(Req, &Clean), "verify clean");
  EXPECT_EQ(Clean.counters().VerifyMismatches, 0u);
  EXPECT_EQ(Clean.counters().TrainHits, 1u);
  EXPECT_EQ(Clean.counters().Hits, 1u);
}

TEST(TrainingMemoTest, ARebuildNeitherRetrainsNorRecompiles) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "specpre-cache-test-rebuild";
  fs::remove_all(Dir);
  const ServeRequest Req = trainRequest(
      example("loop.spre"), {3, 4, 64});
  const ServeResponse Cold = serve(Req, nullptr);
  CompileCache::Config CC;
  CC.DiskDir = Dir.string();
  {
    CompileCache Fill(CC);
    expectSameReply(Cold, serve(Req, &Fill), "fill");
    CacheCounters C = Fill.counters();
    EXPECT_EQ(C.DiskWrites, 1u) << "compile entries only";
    EXPECT_EQ(C.TrainStores, 1u);
  }
  CompileCache Rebuild(CC);
  expectSameReply(Cold, serve(Req, &Rebuild), "rebuild");
  CacheCounters C = Rebuild.counters();
  EXPECT_EQ(C.DiskHits, 1u);
  EXPECT_EQ(C.Hits, 1u);
  EXPECT_EQ(C.Misses, 0u);
  EXPECT_EQ(C.TrainHits, 1u);
  EXPECT_EQ(C.TrainMisses, 0u);
  EXPECT_EQ(C.DiskWrites, 0u);
  EXPECT_EQ(C.Stores + C.TrainStores, 0u);
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Text-only hits
//===----------------------------------------------------------------------===//

TEST(TextOnlyHitTest, WarmRepliesEqualColdOnSpecSuite) {
  const std::vector<BenchmarkSpec> Suite = fullCpu2006Suite();
  ASSERT_EQ(Suite.size(), 29u);
  for (PreStrategy S :
       {PreStrategy::McSsaPre, PreStrategy::SsaPre, PreStrategy::None}) {
    CompileCache Cache({});
    for (const BenchmarkSpec &Spec : Suite) {
      const Function Program = Spec.buildProgram();
      const ServeRequest Req =
          trainRequest(printFunction(Program), Spec.TrainArgs, S);
      const std::string What = Spec.Name + " " + strategyName(S);
      const ServeResponse Cold = serve(Req, nullptr);
      ASSERT_EQ(Cold.ExitCode, 0) << What << Cold.StderrText;
      expectSameReply(Cold, serve(Req, &Cache), What + " fill");
      const CacheCounters Before = Cache.counters();
      expectSameReply(Cold, serve(Req, &Cache), What + " warm");
      const CacheCounters After = Cache.counters();
      EXPECT_EQ(After.Hits, Before.Hits + 1) << What;
      EXPECT_EQ(After.Misses, Before.Misses) << What;

      // The stored text is printFunction's fixed point: parsing it and
      // printing it again gives the same bytes, so emitting it unparsed
      // is what a parsed hit would emit.
      Function Prepared = Program;
      prepareFunction(Prepared);
      Profile Prof;
      ExecOptions EO;
      EO.CollectProfile = &Prof;
      if (strategyNeedsProfile(S))
        interpret(Prepared, Spec.TrainArgs, EO);
      Profile NodeOnly = Prof.withoutEdgeFreqs();
      PreStats Stats;
      PreOptions PO;
      PO.Strategy = S;
      PO.Prof = &NodeOnly;
      PO.Stats = &Stats;
      CompileOutcomeRecord Outcome;
      const Function Opt = compileWithFallback(Prepared, PO, &Outcome);
      DecodedPayload P;
      ASSERT_TRUE(decodeCachePayload(
          encodeCachePayload(Opt, Stats.records(), Outcome), P));
      Function Parsed;
      ASSERT_TRUE(parseCachedIr(P, Parsed)) << What;
      EXPECT_EQ(printFunction(Parsed), P.Ir) << What;
      EXPECT_EQ(Parsed.IsSSA, Opt.IsSSA) << What;
    }
  }
}

TEST(TextOnlyHitTest, WarmJobsMatchSerialOnAModule) {
  const ServeRequest Req = trainRequest(
      example("module.spre"),
      {3, 4, 64});
  const ServeResponse Cold = serve(Req, nullptr);
  ASSERT_EQ(Cold.ExitCode, 0) << Cold.StderrText;
  CompileCache Cache({});
  expectSameReply(Cold, serve(Req, &Cache, 1), "fill");
  for (unsigned Jobs : {1u, 4u})
    expectSameReply(Cold, serve(Req, &Cache, Jobs),
                    "warm --jobs=" + std::to_string(Jobs));
  CacheCounters C = Cache.counters();
  EXPECT_EQ(C.Misses, 2u);
  EXPECT_EQ(C.Hits, 4u);
  EXPECT_EQ(C.TrainHits, 4u);
}

TEST(TextOnlyHitTest, PostPassesAndHooksStillParseTheHit) {
  // The hit of a request that runs a post-pass, or carries a hook, is a
  // parsed Function: the hook sees the optimized function, and the
  // post-passes run on it, exactly as cold.
  const std::string Module =
      example("loop.spre");
  ServeRequest Req = trainRequest(Module, {3, 4, 64});
  Req.Gvn = Req.Cleanup = Req.OutOfSsa = true;
  CompileCache Cache({});
  const ServeResponse Cold = serve(Req, nullptr);
  serve(Req, &Cache);
  expectSameReply(Cold, serve(Req, &Cache), "post-passes");

  Req = trainRequest(Module, {3, 4, 64});
  std::string ColdIr, WarmIr;
  auto Printer = [](std::string &Out) -> ServeFunctionHook {
    return [&Out](const Function &, const Profile &, const Function &Opt,
                  const PreStats &, ServeResponse &) {
      Out += printFunction(Opt);
      return 0;
    };
  };
  serve(Req, nullptr, 1, Printer(ColdIr));
  serve(Req, &Cache, 1, Printer(WarmIr));
  EXPECT_EQ(Cache.counters().Hits, 2u);
  EXPECT_FALSE(ColdIr.empty());
  EXPECT_EQ(ColdIr, WarmIr);
}
