//===- pre/CachedCompile.h - Content-addressed compile caching -*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layer that turns support/CompileCache.h's dumb key→payload store
/// into a *compilation* cache (docs/CACHING.md). It knows three things
/// the store deliberately does not:
///
///  * **what identifies a compilation** — compileCacheKey() folds the
///    structural IR hash (ir/StructuralHash.h) together with every input
///    that can change the output: the strategy, the placement/algorithm/
///    objective knobs, the verification and budget settings, and the
///    *relevant slice* of the profile (node frequencies for MC-SSAPRE,
///    node+edge for MC-PRE, nothing for the profile-free legs — so
///    touching a profile never invalidates a compile that would not have
///    read it);
///
///  * **what a result is** — encode/decodeCachePayload() serialize the
///    optimized function (printed IR plus the IsSSA flag, which the
///    printed form alone cannot always recover), the per-expression
///    ExprStatsRecords, and the ladder's CompileOutcomeRecord, so a hit
///    replays the *entire* observable effect of the compile, stats
///    stream included, bit-identically. Decoding leaves the IR as text;
///    a caller that needs only the printed IR (compileThroughCache's
///    TextOut) emits it as stored, and parseCachedIr is the separate
///    step for one that needs a Function;
///
///  * **when caching is sound** — compileThroughCache() skips the cache
///    entirely under fault injection (outcomes depend on a global
///    fault-site counter) and refuses to store degraded results (their
///    shape depends on which rung happened to fail). In Verify mode a
///    hit additionally recompiles and cross-checks bit-for-bit — the
///    end-to-end oracle that the key really captures every input.
///
/// The same store memoizes training runs (trainThroughCache): the
/// profile and reported counts of interpreting a prepared function on
/// given arguments, keyed by trainingCacheKey(), under the same
/// admission rule and the same Verify audit.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_CACHEDCOMPILE_H
#define SPECPRE_PRE_CACHEDCOMPILE_H

#include "interp/Interpreter.h"
#include "pre/PreDriver.h"
#include "support/CompileCache.h"

#include <functional>
#include <string>
#include <vector>

namespace specpre {

/// Content address of compiling \p Prepared under \p Opts. Deterministic
/// across runs, platforms and --jobs settings; any single-token change
/// to the function or to the consumed profile slice changes the key
/// (tests/cache_test.cpp).
CacheKey compileCacheKey(const Function &Prepared, const PreOptions &Opts);

/// Serializes one compilation result: printed optimized IR, the explicit
/// SSA flag, the stats records and the ladder outcome. The format is a
/// line-oriented text with percent-escaped string fields; see the .cpp.
std::string encodeCachePayload(const Function &Optimized,
                               const std::vector<ExprStatsRecord> &Records,
                               const CompileOutcomeRecord &Outcome);

/// A decoded compile payload, its IR still the printed text.
struct DecodedPayload {
  bool IsSsa = false;
  std::vector<ExprStatsRecord> Records;
  CompileOutcomeRecord Outcome;
  std::string Ir; ///< printFunction of the optimized function, as stored.
};

/// Inverse of encodeCachePayload, short of parsing the IR. Returns false
/// (\p Out partially written, to be discarded) on any malformed input — a
/// corrupt or stale cache entry degrades to a miss, never to an error.
bool decodeCachePayload(const std::string &Payload, DecodedPayload &Out);

/// Parses \p P's IR text into \p Out and restores its SSA flag. False
/// unless the text is exactly one function.
bool parseCachedIr(const DecodedPayload &P, Function &Out);

/// decodeCachePayload followed by parseCachedIr.
bool decodeCachePayload(const std::string &Payload, Function &OptimizedOut,
                        std::vector<ExprStatsRecord> &RecordsOut,
                        CompileOutcomeRecord &OutcomeOut);

/// The uncached fallback compiler a cache protocol wraps — the signature
/// of compileWithFallback.
using UncachedCompileFn = std::function<Function(
    const Function &, const PreOptions &, CompileOutcomeRecord *)>;

/// The cache protocol compileWithFallback wraps its ladder walk in:
///
///  * ineligible (no cache, mode Off, fault injection active) — calls
///    \p Compile directly, unchanged semantics; the fault-injection case
///    counts as a fault bypass;
///  * miss — compiles via \p Compile into an isolated stats shard,
///    forwards the shard to Opts.Stats, and stores the result unless the
///    compile degraded (counted as degraded-unstored);
///  * hit (mode On) — replays the decoded function, records and outcome
///    without running any pass code, and counts the function in the
///    functions_compiled robustness counter of the calling thread's
///    metrics sink, as the cold compile did;
///  * hit (mode Verify) — recompiles anyway, counts a verify mismatch if
///    the cached entry is not bit-identical (printed IR, every stats
///    record, the outcome), and returns the fresh result.
///
/// \p Compile is always invoked with Opts.Cache cleared so a wrapped
/// driver cannot re-enter the protocol.
///
/// A caller that needs only the printed IR passes \p TextOut, which then
/// receives printFunction of the result. On a mode-On hit it receives
/// the payload's stored text, nothing is parsed, and the returned
/// Function is empty.
Function compileThroughCache(const Function &Prepared, const PreOptions &Opts,
                             CompileOutcomeRecord *OutcomeOut,
                             const UncachedCompileFn &Compile,
                             std::string *TextOut = nullptr);

/// Content address of training \p Prepared on \p Args under \p EO: the
/// structural hash, the arguments, MaxSteps and every CostModel field
/// (EO.CollectProfile is not an input).
CacheKey trainingCacheKey(const Function &Prepared,
                          const std::vector<int64_t> &Args,
                          const ExecOptions &EO);

/// Serializes a clean training run: the reported counts (return value,
/// computations, cycles), the profile's HasEdgeFreqs flag and its
/// serializeProfile text.
std::string encodeTrainingPayload(const ExecResult &R, const Profile &Prof);

/// Inverse of encodeTrainingPayload for a function of \p NumBlocks
/// blocks. Strict: any malformed, truncated or non-canonical entry, or
/// one whose profile has another block count, returns false.
bool decodeTrainingPayload(const std::string &Payload, unsigned NumBlocks,
                           ExecResult &ROut, Profile &ProfOut);

/// interpret(Prepared, Args, EO) through \p Cache, under the admission
/// rule of compileThroughCache. EO.CollectProfile must be set; it
/// receives the profile either way.
///
///  * ineligible (no cache, mode Off, fault injection active) —
///    interprets;
///  * hit (mode On) — interprets nothing and returns the stored counts:
///    ReturnValue, DynamicComputations and Cycles (the fields the
///    training report prints); the other ExecResult fields stay default;
///  * miss — interprets, and stores the run unless it trapped or timed
///    out;
///  * hit (mode Verify) — interprets, counts a verify mismatch unless
///    the run re-encodes to the stored bytes, and returns the fresh run.
ExecResult trainThroughCache(const Function &Prepared,
                             const std::vector<int64_t> &Args,
                             const ExecOptions &EO, CompileCache *Cache);

} // namespace specpre

#endif // SPECPRE_PRE_CACHEDCOMPILE_H
