//===- pre/CachedCompile.cpp - Content-addressed compile caching ----------===//
//
// Payload wire format (one entry, line-oriented text, LF only):
//
//   specpre-cache v2
//   ssa <0|1>
//   outcome <fn> <funcidx> <requested> <used> <retries> <cause> <message>
//   records <N>
//   record <26 space-separated fields, ExprStatsRecord declaration order>
//   ...            (exactly N record lines)
//   ir <bytes>
//   <printed optimized IR, exactly <bytes> bytes>
//
// String fields are percent-escaped ('%', whitespace and control bytes
// become %XX; the empty string is the single token "%"), so every line
// splits unambiguously on spaces. The format is versioned by the header
// *and* by the key (compileCacheKey folds in a format tag), so a format
// change makes old entries both undecodable and unaddressable.
//
//===----------------------------------------------------------------------===//

#include "pre/CachedCompile.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/StructuralHash.h"
#include "support/FaultInjector.h"
#include "support/LineCodec.h"
#include "support/PassTimer.h"

#include <cstdio>

using namespace specpre;
// The checked token codec: strict decimal parsers (no sign/whitespace
// slack, ERANGE rejected) so a corrupted .sprc entry can only ever
// degrade to a miss, never deserialize wrong statistics.
using namespace specpre::linecodec;

namespace {

void appendRecordLine(std::string &Out, const ExprStatsRecord &R) {
  Out += "record ";
  Out += esc(R.Expr);
  Out += ' ';
  Out += esc(R.FunctionName);
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      " %u %u %u %u %d %u %u %lld %u %u %u %u %u %u %llu %llu %llu %lld "
      "%lld %lld %d %d %u %llu\n",
      R.FuncIndex, R.ExprIndex, R.FrgPhis, R.FrgReals, R.EfgEmpty ? 1 : 0,
      R.EfgNodes, R.EfgEdges, static_cast<long long>(R.CutWeight),
      R.NumInsertions, R.NumReloads, R.NumSaves, R.NumTempPhis, R.McPreNodes,
      R.McPreEdges, static_cast<unsigned long long>(R.ReloadedFreq),
      static_cast<unsigned long long>(R.InsertedFreq),
      static_cast<unsigned long long>(R.SprReloadedFreq),
      static_cast<long long>(R.SprWeight),
      static_cast<long long>(R.InsertedWeight),
      static_cast<long long>(R.InPlaceWeight), R.Saturated ? 1 : 0,
      R.Speculated ? 1 : 0, R.LospreWidth,
      static_cast<unsigned long long>(R.LospreDpEntries));
  Out += Buf;
}

bool parseRecordLine(const std::vector<std::string> &T, ExprStatsRecord &R) {
  if (T.size() != 27 || T[0] != "record")
    return false;
  return unesc(T[1], R.Expr) && unesc(T[2], R.FunctionName) &&
         parseU32(T[3], R.FuncIndex) && parseU32(T[4], R.ExprIndex) &&
         parseU32(T[5], R.FrgPhis) && parseU32(T[6], R.FrgReals) &&
         parseBool(T[7], R.EfgEmpty) && parseU32(T[8], R.EfgNodes) &&
         parseU32(T[9], R.EfgEdges) && parseI64(T[10], R.CutWeight) &&
         parseU32(T[11], R.NumInsertions) && parseU32(T[12], R.NumReloads) &&
         parseU32(T[13], R.NumSaves) && parseU32(T[14], R.NumTempPhis) &&
         parseU32(T[15], R.McPreNodes) && parseU32(T[16], R.McPreEdges) &&
         parseU64(T[17], R.ReloadedFreq) && parseU64(T[18], R.InsertedFreq) &&
         parseU64(T[19], R.SprReloadedFreq) &&
         parseI64(T[20], R.SprWeight) && parseI64(T[21], R.InsertedWeight) &&
         parseI64(T[22], R.InPlaceWeight) && parseBool(T[23], R.Saturated) &&
         parseBool(T[24], R.Speculated) && parseU32(T[25], R.LospreWidth) &&
         parseU64(T[26], R.LospreDpEntries);
}

} // namespace

CacheKey specpre::compileCacheKey(const Function &Prepared,
                                  const PreOptions &Opts) {
  HashBuilder H;
  // Format tag: bumping it orphans every existing entry (they stay
  // undecoded on disk until evicted, never served).
  H.addString("specpre-cache-key-v2");
  hashFunctionInto(H, Prepared);

  H.addString(strategyName(Opts.Strategy));
  H.addU64(static_cast<uint64_t>(Opts.Placement));
  H.addU64(static_cast<uint64_t>(Opts.Algo));
  H.addU64(Opts.Objective.SpeedWeight);
  H.addU64(Opts.Objective.SizeWeight);
  H.addBool(Opts.Verify);
  H.addU64(Opts.Budget.DeadlineMillis);
  H.addU64(Opts.Budget.MaxFlowAugmentations);
  H.addU64(Opts.Budget.MaxGraphNodes);
  // Leg D's width bound changes which EFGs bail out (and the ladder
  // below it), so it is part of the key — but only when leg D runs.
  if (Opts.Strategy == PreStrategy::Lospre)
    H.addU64(Opts.LospreMaxWidth);

  H.addBool(Opts.EquivalenceInputs != nullptr);
  if (Opts.EquivalenceInputs) {
    H.addU64(Opts.EquivalenceInputs->size());
    for (const std::vector<int64_t> &Args : *Opts.EquivalenceInputs) {
      H.addU64(Args.size());
      for (int64_t A : Args)
        H.addI64(A);
    }
  }

  // Only the profile slice the strategy actually consumes enters the
  // key: node frequencies for MC-SSAPRE and LOSPRE, node+edge for MC-PRE (it
  // estimates edges from nodes when HasEdgeFreqs is off, so both feed
  // in), nothing for the profile-free legs. Note the degradation ladder
  // below a profile-consuming rung only runs profile-free strategies, so
  // a degraded result never depends on more profile than its key —
  // degraded results are not cached anyway.
  const bool NeedsNodes = strategyNeedsProfile(Opts.Strategy);
  const bool NeedsEdges = Opts.Strategy == PreStrategy::McPre;
  H.addBool(NeedsNodes && Opts.Prof);
  if (NeedsNodes && Opts.Prof) {
    H.addU64(Opts.Prof->BlockFreq.size());
    for (uint64_t F : Opts.Prof->BlockFreq)
      H.addU64(F);
    H.addBool(NeedsEdges);
    if (NeedsEdges) {
      H.addBool(Opts.Prof->HasEdgeFreqs);
      H.addU64(Opts.Prof->EdgeFreq.size());
      for (const auto &[Edge, Freq] : Opts.Prof->EdgeFreq) {
        H.addI64(Edge.first);
        H.addI64(Edge.second);
        H.addU64(Freq);
      }
    }
  }

  Hash128 D = H.digest();
  return CacheKey{D.Hi, D.Lo};
}

std::string
specpre::encodeCachePayload(const Function &Optimized,
                            const std::vector<ExprStatsRecord> &Records,
                            const CompileOutcomeRecord &Outcome) {
  std::string Out = "specpre-cache v2\n";
  Out += Optimized.IsSSA ? "ssa 1\n" : "ssa 0\n";

  Out += "outcome ";
  Out += esc(Outcome.FunctionName);
  Out += ' ';
  Out += std::to_string(Outcome.FuncIndex);
  Out += ' ';
  Out += esc(Outcome.Requested);
  Out += ' ';
  Out += esc(Outcome.Used);
  Out += ' ';
  Out += std::to_string(Outcome.Retries);
  Out += ' ';
  Out += esc(Outcome.Cause);
  Out += ' ';
  Out += esc(Outcome.Message);
  Out += '\n';

  Out += "records " + std::to_string(Records.size()) + "\n";
  for (const ExprStatsRecord &R : Records)
    appendRecordLine(Out, R);

  std::string Ir = printFunction(Optimized);
  Out += "ir " + std::to_string(Ir.size()) + "\n";
  Out += Ir;
  return Out;
}

bool specpre::decodeCachePayload(const std::string &Payload,
                                 Function &OptimizedOut,
                                 std::vector<ExprStatsRecord> &RecordsOut,
                                 CompileOutcomeRecord &OutcomeOut) {
  size_t Pos = 0;
  std::string Line;
  if (!nextLine(Payload, Pos, Line) || Line != "specpre-cache v2")
    return false;

  if (!nextLine(Payload, Pos, Line))
    return false;
  std::vector<std::string> T = splitTokens(Line);
  bool IsSsa;
  if (T.size() != 2 || T[0] != "ssa" || !parseBool(T[1], IsSsa))
    return false;

  if (!nextLine(Payload, Pos, Line))
    return false;
  T = splitTokens(Line);
  CompileOutcomeRecord Outcome;
  if (T.size() != 8 || T[0] != "outcome" ||
      !unesc(T[1], Outcome.FunctionName) ||
      !parseU32(T[2], Outcome.FuncIndex) || !unesc(T[3], Outcome.Requested) ||
      !unesc(T[4], Outcome.Used) || !parseU32(T[5], Outcome.Retries) ||
      !unesc(T[6], Outcome.Cause) || !unesc(T[7], Outcome.Message))
    return false;

  if (!nextLine(Payload, Pos, Line))
    return false;
  T = splitTokens(Line);
  uint64_t NumRecords;
  if (T.size() != 2 || T[0] != "records" || !parseU64(T[1], NumRecords) ||
      NumRecords > (1u << 20))
    return false;
  std::vector<ExprStatsRecord> Records;
  Records.reserve(NumRecords);
  for (uint64_t I = 0; I != NumRecords; ++I) {
    if (!nextLine(Payload, Pos, Line))
      return false;
    ExprStatsRecord R;
    if (!parseRecordLine(splitTokens(Line), R))
      return false;
    Records.push_back(std::move(R));
  }

  if (!nextLine(Payload, Pos, Line))
    return false;
  T = splitTokens(Line);
  uint64_t IrBytes;
  if (T.size() != 2 || T[0] != "ir" || !parseU64(T[1], IrBytes) ||
      Payload.size() - Pos != IrBytes)
    return false;

  std::string Error;
  std::optional<Module> M = parseModule(Payload.substr(Pos), Error);
  if (!M || M->Functions.size() != 1)
    return false;

  OptimizedOut = std::move(M->Functions.front());
  // An SSA function whose live variables all print without version
  // suffixes (e.g. the identity rung's output, or params-only bodies)
  // parses back as non-SSA; the payload carries the flag explicitly.
  OptimizedOut.IsSSA = IsSsa;
  RecordsOut = std::move(Records);
  OutcomeOut = std::move(Outcome);
  return true;
}

Function specpre::compileThroughCache(const Function &Prepared,
                                      const PreOptions &Opts,
                                      CompileOutcomeRecord *OutcomeOut,
                                      const UncachedCompileFn &Compile) {
  CompileCache *Cache = Opts.Cache;
  // Pipeline fault injection makes outcomes a function of a
  // process-global fault counter, not of the compile's inputs: bypass
  // the cache entirely. The network/process/disk sites only perturb
  // transport and storage — outcomes stay input-pure under them, and
  // the disk sites in particular *need* cache traffic to fire at all.
  if (!Cache || Cache->mode() == CacheMode::Off ||
      pipelineFaultInjectionEnabled())
    return Compile(Prepared, Opts, OutcomeOut);

  const CacheKey Key = compileCacheKey(Prepared, Opts);

  // Every path below compiles (or replays) into an isolated shard, then
  // forwards it, so the caller's stats stream is written exactly once
  // and in the order the uncached driver would have produced.
  PreOptions RunOpts = Opts;
  PreStats Shard;
  RunOpts.Stats = &Shard;
  RunOpts.Cache = nullptr;

  auto ForwardShard = [&]() {
    if (!Opts.Stats)
      return;
    for (const ExprStatsRecord &R : Shard.records())
      Opts.Stats->addRecord(R);
    for (const CompileOutcomeRecord &O : Shard.outcomes())
      Opts.Stats->addOutcome(O);
  };

  if (std::optional<std::string> Hit = Cache->lookup(Key)) {
    Function Decoded;
    std::vector<ExprStatsRecord> Records;
    CompileOutcomeRecord Outcome;
    if (decodeCachePayload(*Hit, Decoded, Records, Outcome)) {
      if (Cache->mode() == CacheMode::Verify) {
        CompileOutcomeRecord FreshOutcome;
        Function Fresh = Compile(Prepared, RunOpts, &FreshOutcome);
        const bool Same = printFunction(Fresh) == printFunction(Decoded) &&
                          Shard.records() == Records &&
                          FreshOutcome == Outcome;
        if (!Same)
          Cache->noteVerifyMismatch();
        ForwardShard();
        if (OutcomeOut)
          *OutcomeOut = FreshOutcome;
        return Fresh;
      }
      if (Opts.Stats) {
        for (const ExprStatsRecord &R : Records)
          Opts.Stats->addRecord(R);
        Opts.Stats->addOutcome(Outcome);
      }
      if (OutcomeOut)
        *OutcomeOut = Outcome;
      // A replayed hit is a compiled function the ladder never saw; only
      // clean compiles are stored, so no other robustness counter moves.
      if (PipelineMetrics *M = currentMetricsSink())
        ++M->robustness().FunctionsCompiled;
      return Decoded;
    }
    // Torn or stale-format entry: fall through as a miss; the store
    // below overwrites it with a fresh encoding.
  }

  CompileOutcomeRecord Outcome;
  Function F = Compile(Prepared, RunOpts, &Outcome);
  ForwardShard();
  if (OutcomeOut)
    *OutcomeOut = Outcome;
  // A degraded result's shape depends on *which rung failed*, which the
  // key does not (and should not) capture: never cache it.
  if (!Outcome.degraded())
    Cache->insert(Key, encodeCachePayload(F, Shard.records(), Outcome));
  return F;
}
