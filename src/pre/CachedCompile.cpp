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
// One field table per record line (OutcomeFields, ExprStatsFields)
// drives both the encoder and the decoder, so a field cannot be written
// and forgotten on the way back. Integers are decimal, bools "0"/"1".
//
// A training entry (keyed under its own tag, trainingCacheKey):
//
//   specpre-train v1
//   result <return value> <computations> <cycles>
//   edges <0|1>
//   profile <bytes>
//   <serializeProfile text, exactly <bytes> bytes>
//
// The edges line carries Profile::HasEdgeFreqs, which parseProfile
// would otherwise infer from the presence of an edge line: a one-block
// function trains to HasEdgeFreqs with no edges.
//
//===----------------------------------------------------------------------===//

#include "pre/CachedCompile.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/StructuralHash.h"
#include "profile/Profile.h"
#include "support/FaultInjector.h"
#include "support/LineCodec.h"
#include "support/PassTimer.h"

#include <cassert>
#include <variant>

using namespace specpre;
// The checked token codec: strict decimal parsers (no sign/whitespace
// slack, ERANGE rejected) so a corrupted .sprc entry can only ever
// degrade to a miss, never deserialize wrong statistics.
using namespace specpre::linecodec;

namespace {

/// One field of a payload record line, by member.
template <class Record>
using RecordField =
    std::variant<std::string Record::*, unsigned Record::*, bool Record::*,
                 int64_t Record::*, uint64_t Record::*>;

/// The `outcome` line: CompileOutcomeRecord in declaration order.
const RecordField<CompileOutcomeRecord> OutcomeFields[] = {
    &CompileOutcomeRecord::FunctionName, &CompileOutcomeRecord::FuncIndex,
    &CompileOutcomeRecord::Requested,    &CompileOutcomeRecord::Used,
    &CompileOutcomeRecord::Retries,      &CompileOutcomeRecord::Cause,
    &CompileOutcomeRecord::Message,
};

/// A `record` line: ExprStatsRecord in declaration order.
const RecordField<ExprStatsRecord> ExprStatsFields[] = {
    &ExprStatsRecord::Expr,            &ExprStatsRecord::FunctionName,
    &ExprStatsRecord::FuncIndex,       &ExprStatsRecord::ExprIndex,
    &ExprStatsRecord::FrgPhis,         &ExprStatsRecord::FrgReals,
    &ExprStatsRecord::EfgEmpty,        &ExprStatsRecord::EfgNodes,
    &ExprStatsRecord::EfgEdges,        &ExprStatsRecord::CutWeight,
    &ExprStatsRecord::NumInsertions,   &ExprStatsRecord::NumReloads,
    &ExprStatsRecord::NumSaves,        &ExprStatsRecord::NumTempPhis,
    &ExprStatsRecord::McPreNodes,      &ExprStatsRecord::McPreEdges,
    &ExprStatsRecord::ReloadedFreq,    &ExprStatsRecord::InsertedFreq,
    &ExprStatsRecord::SprReloadedFreq, &ExprStatsRecord::SprWeight,
    &ExprStatsRecord::InsertedWeight,  &ExprStatsRecord::InPlaceWeight,
    &ExprStatsRecord::Saturated,       &ExprStatsRecord::Speculated,
    &ExprStatsRecord::LospreWidth,     &ExprStatsRecord::LospreDpEntries,
};

void appendToken(std::string &Out, const std::string &V) { Out += esc(V); }
void appendToken(std::string &Out, bool V) { Out += V ? '1' : '0'; }
template <class Int> void appendToken(std::string &Out, Int V) {
  Out += std::to_string(V);
}

bool parseToken(const std::string &T, std::string &V) { return unesc(T, V); }
bool parseToken(const std::string &T, unsigned &V) { return parseU32(T, V); }
bool parseToken(const std::string &T, bool &V) { return parseBool(T, V); }
bool parseToken(const std::string &T, int64_t &V) { return parseI64(T, V); }
bool parseToken(const std::string &T, uint64_t &V) { return parseU64(T, V); }

/// Appends `<Tag> <field>...` and a newline.
template <class Record, size_t N>
void appendLine(std::string &Out, const char *Tag,
                const RecordField<Record> (&Fields)[N], const Record &R) {
  Out += Tag;
  for (const RecordField<Record> &F : Fields) {
    Out += ' ';
    std::visit([&](auto Member) { appendToken(Out, R.*Member); }, F);
  }
  Out += '\n';
}

/// Inverse of appendLine over a split line: exactly one token per field.
template <class Record, size_t N>
bool parseLine(const std::vector<std::string> &T, const char *Tag,
               const RecordField<Record> (&Fields)[N], Record &R) {
  if (T.size() != N + 1 || T[0] != Tag)
    return false;
  for (size_t I = 0; I != N; ++I)
    if (!std::visit(
            [&](auto Member) { return parseToken(T[I + 1], R.*Member); },
            Fields[I]))
      return false;
  return true;
}

std::string encodePayload(bool IsSsa, const std::string &Ir,
                          const std::vector<ExprStatsRecord> &Records,
                          const CompileOutcomeRecord &Outcome) {
  std::string Out = "specpre-cache v2\n";
  Out += IsSsa ? "ssa 1\n" : "ssa 0\n";

  appendLine(Out, "outcome", OutcomeFields, Outcome);
  Out += "records " + std::to_string(Records.size()) + "\n";
  for (const ExprStatsRecord &R : Records)
    appendLine(Out, "record", ExprStatsFields, R);

  Out += "ir " + std::to_string(Ir.size()) + "\n";
  Out += Ir;
  return Out;
}

/// The one admission rule of both protocols: \p Cache when a lookup is
/// allowed, else null. Pipeline fault injection makes outcomes a
/// function of a process-global fault counter, not of the inputs, so it
/// bypasses the cache entirely (and is counted). The network/process/
/// disk sites only perturb transport and storage — outcomes stay
/// input-pure under them, and the disk sites in particular *need* cache
/// traffic to fire at all.
CompileCache *admittedCache(CompileCache *Cache) {
  if (!Cache || Cache->mode() == CacheMode::Off)
    return nullptr;
  if (pipelineFaultInjectionEnabled()) {
    Cache->noteBypass(CacheBypass::FaultInjection);
    return nullptr;
  }
  return Cache;
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

  // The slot of the retired interpreter-equivalence gate, which was never
  // set: hashing its "unset" keeps every key, and every entry on disk.
  H.addBool(false);

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
  return encodePayload(Optimized.IsSSA, printFunction(Optimized), Records,
                       Outcome);
}

bool specpre::decodeCachePayload(const std::string &Payload,
                                 DecodedPayload &Out) {
  size_t Pos = 0;
  std::string Line;
  if (!nextLine(Payload, Pos, Line) || Line != "specpre-cache v2")
    return false;

  if (!nextLine(Payload, Pos, Line))
    return false;
  std::vector<std::string> T = splitTokens(Line);
  if (T.size() != 2 || T[0] != "ssa" || !parseBool(T[1], Out.IsSsa))
    return false;

  if (!nextLine(Payload, Pos, Line) ||
      !parseLine(splitTokens(Line), "outcome", OutcomeFields, Out.Outcome))
    return false;

  if (!nextLine(Payload, Pos, Line))
    return false;
  T = splitTokens(Line);
  uint64_t NumRecords;
  if (T.size() != 2 || T[0] != "records" || !parseU64(T[1], NumRecords) ||
      NumRecords > (1u << 20))
    return false;
  Out.Records.clear();
  Out.Records.reserve(NumRecords);
  for (uint64_t I = 0; I != NumRecords; ++I) {
    if (!nextLine(Payload, Pos, Line) ||
        !parseLine(splitTokens(Line), "record", ExprStatsFields,
                   Out.Records.emplace_back()))
      return false;
  }

  if (!nextLine(Payload, Pos, Line))
    return false;
  T = splitTokens(Line);
  uint64_t IrBytes;
  if (T.size() != 2 || T[0] != "ir" || !parseU64(T[1], IrBytes) ||
      Payload.size() - Pos != IrBytes)
    return false;
  Out.Ir.assign(Payload, Pos);
  return true;
}

bool specpre::parseCachedIr(const DecodedPayload &P, Function &Out) {
  std::string Error;
  std::optional<Module> M = parseModule(P.Ir, Error);
  if (!M || M->Functions.size() != 1)
    return false;
  Out = std::move(M->Functions.front());
  // An SSA function whose live variables all print without version
  // suffixes (e.g. the identity rung's output, or params-only bodies)
  // parses back as non-SSA; the payload carries the flag explicitly.
  Out.IsSSA = P.IsSsa;
  return true;
}

bool specpre::decodeCachePayload(const std::string &Payload,
                                 Function &OptimizedOut,
                                 std::vector<ExprStatsRecord> &RecordsOut,
                                 CompileOutcomeRecord &OutcomeOut) {
  DecodedPayload P;
  if (!decodeCachePayload(Payload, P) || !parseCachedIr(P, OptimizedOut))
    return false;
  RecordsOut = std::move(P.Records);
  OutcomeOut = std::move(P.Outcome);
  return true;
}

Function specpre::compileThroughCache(const Function &Prepared,
                                      const PreOptions &Opts,
                                      CompileOutcomeRecord *OutcomeOut,
                                      const UncachedCompileFn &Compile,
                                      std::string *TextOut) {
  CompileCache *Cache = admittedCache(Opts.Cache);
  if (!Cache) {
    Function F = Compile(Prepared, Opts, OutcomeOut);
    if (TextOut)
      *TextOut = printFunction(F);
    return F;
  }

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
    DecodedPayload P;
    Function Decoded;
    // Verify mode compares the stored text and a text-only caller emits
    // it; only a caller that needs the Function parses it.
    if (decodeCachePayload(*Hit, P) &&
        (Cache->mode() == CacheMode::Verify || TextOut ||
         parseCachedIr(P, Decoded))) {
      if (Cache->mode() == CacheMode::Verify) {
        CompileOutcomeRecord FreshOutcome;
        Function Fresh = Compile(Prepared, RunOpts, &FreshOutcome);
        std::string FreshIr = printFunction(Fresh);
        const bool Same = FreshIr == P.Ir && Fresh.IsSSA == P.IsSsa &&
                          Shard.records() == P.Records &&
                          FreshOutcome == P.Outcome;
        if (!Same)
          Cache->noteVerifyMismatch();
        ForwardShard();
        if (OutcomeOut)
          *OutcomeOut = FreshOutcome;
        if (TextOut)
          *TextOut = std::move(FreshIr);
        return Fresh;
      }
      if (Opts.Stats) {
        for (const ExprStatsRecord &R : P.Records)
          Opts.Stats->addRecord(R);
        Opts.Stats->addOutcome(P.Outcome);
      }
      if (OutcomeOut)
        *OutcomeOut = P.Outcome;
      // A replayed hit is a compiled function the ladder never saw; only
      // clean compiles are stored, so no other robustness counter moves.
      if (PipelineMetrics *M = currentMetricsSink())
        ++M->robustness().FunctionsCompiled;
      if (TextOut)
        *TextOut = std::move(P.Ir);
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
  std::string Ir = printFunction(F);
  // A degraded result's shape depends on *which rung failed*, which the
  // key does not (and should not) capture: never cache it.
  if (Outcome.degraded())
    Cache->noteBypass(CacheBypass::Degraded);
  else
    Cache->insert(Key, encodePayload(F.IsSSA, Ir, Shard.records(), Outcome));
  if (TextOut)
    *TextOut = std::move(Ir);
  return F;
}

CacheKey specpre::trainingCacheKey(const Function &Prepared,
                                   const std::vector<int64_t> &Args,
                                   const ExecOptions &EO) {
  HashBuilder H;
  // Format tag of the training entries; bump it with their payload
  // format or with the interpreter's accounting (docs/IR.md).
  H.addString("specpre-train-key-v1");
  hashFunctionInto(H, Prepared);
  H.addU64(Args.size());
  for (int64_t A : Args)
    H.addI64(A);
  H.addU64(EO.MaxSteps);
  const CostModel &C = EO.Costs;
  for (uint64_t Cost : C.OpCost)
    H.addU64(Cost);
  for (uint64_t Cost : {C.CopyCost, C.PhiCost, C.BranchCost, C.JumpCost,
                        C.RetCost, C.PrintCost})
    H.addU64(Cost);
  Hash128 D = H.digest();
  return CacheKey{D.Hi, D.Lo};
}

std::string specpre::encodeTrainingPayload(const ExecResult &R,
                                           const Profile &Prof) {
  const std::string Text = serializeProfile(Prof);
  std::string Out = "specpre-train v1\nresult ";
  Out += std::to_string(R.ReturnValue) + " " +
         std::to_string(R.DynamicComputations) + " " +
         std::to_string(R.Cycles) + "\n";
  Out += Prof.HasEdgeFreqs ? "edges 1\n" : "edges 0\n";
  Out += "profile " + std::to_string(Text.size()) + "\n";
  Out += Text;
  return Out;
}

bool specpre::decodeTrainingPayload(const std::string &Payload,
                                    unsigned NumBlocks, ExecResult &ROut,
                                    Profile &ProfOut) {
  size_t Pos = 0;
  std::string Line;
  if (!nextLine(Payload, Pos, Line) || Line != "specpre-train v1")
    return false;

  ExecResult R;
  if (!nextLine(Payload, Pos, Line))
    return false;
  std::vector<std::string> T = splitTokens(Line);
  if (T.size() != 4 || T[0] != "result" || !parseI64(T[1], R.ReturnValue) ||
      !parseU64(T[2], R.DynamicComputations) || !parseU64(T[3], R.Cycles))
    return false;

  bool Edges;
  if (!nextLine(Payload, Pos, Line))
    return false;
  T = splitTokens(Line);
  if (T.size() != 2 || T[0] != "edges" || !parseBool(T[1], Edges))
    return false;

  uint64_t Bytes;
  if (!nextLine(Payload, Pos, Line))
    return false;
  T = splitTokens(Line);
  if (T.size() != 2 || T[0] != "profile" || !parseU64(T[1], Bytes) ||
      Payload.size() - Pos != Bytes)
    return false;

  const std::string Text = Payload.substr(Pos);
  Profile Prof;
  std::string Error;
  if (!parseProfile(Text, Prof, Error) || Prof.BlockFreq.size() != NumBlocks)
    return false;
  Prof.HasEdgeFreqs = Edges;
  // Only what encodeTrainingPayload writes decodes: the same text, so
  // also no edge lines under "edges 0".
  if (serializeProfile(Prof) != Text)
    return false;
  ROut = R;
  ProfOut = std::move(Prof);
  return true;
}

ExecResult specpre::trainThroughCache(const Function &Prepared,
                                      const std::vector<int64_t> &Args,
                                      const ExecOptions &EO,
                                      CompileCache *Cache) {
  assert(EO.CollectProfile && "training collects a profile");
  Cache = admittedCache(Cache);
  if (!Cache)
    return interpret(Prepared, Args, EO);

  const CacheKey Key = trainingCacheKey(Prepared, Args, EO);
  std::optional<std::string> Hit =
      Cache->lookup(Key, CacheEntryKind::Training);
  ExecResult Memo;
  Profile MemoProf;
  const bool Decoded =
      Hit && decodeTrainingPayload(*Hit, Prepared.numBlocks(), Memo, MemoProf);
  if (Decoded && Cache->mode() == CacheMode::On) {
    *EO.CollectProfile = std::move(MemoProf);
    return Memo;
  }

  ExecResult R = interpret(Prepared, Args, EO);
  const bool Clean = !R.Trapped && !R.TimedOut;
  if (Decoded) {
    // Verify mode: audit the entry against the fresh run, keep it.
    if (!Clean || encodeTrainingPayload(R, *EO.CollectProfile) != *Hit)
      Cache->noteVerifyMismatch();
  } else if (Clean) {
    // A miss, or a torn entry this store overwrites. A trapped or
    // timed-out run fails its request, so there is nothing to replay.
    Cache->insert(Key, encodeTrainingPayload(R, *EO.CollectProfile),
                  CacheEntryKind::Training);
  }
  return R;
}
