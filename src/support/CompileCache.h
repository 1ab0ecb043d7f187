//===- support/CompileCache.h - Content-addressed compile cache *- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed store for per-function compilation results
/// (docs/CACHING.md). The cache itself is deliberately dumb: it maps a
/// 128-bit key to an opaque text payload. Key composition (structural IR
/// hash + profile slice + strategy + options + budget) and payload
/// encoding (printed optimized IR + replayable PreStats records + the
/// ladder outcome) live in pre/CachedCompile, the layer that knows what
/// a compilation *is*; this layer only knows how to remember one.
///
/// Storage is two-tier:
///
///  * an in-memory LRU bounded by Config.MaxEntries — one batch compile
///    touching the same function twice pays the disk at most once;
///  * an optional on-disk directory (Config.DiskDir) holding one file
///    per entry, named `<hex key>.sprc`, written atomically via a
///    temp-file rename so a crashed or concurrent writer can never leave
///    a torn entry for a later reader. The directory is safely shared by
///    multiple *processes* (the serve daemon plus any specpre-opt runs):
///    see docs/CACHING.md "Multi-process semantics" for the guarantees.
///
/// The disk tier is durable and self-healing (docs/CACHING.md
/// "Durability and self-healing"):
///
///  * every `.sprc` file carries a 64-bit two-lane splitmix64 checksum
///    trailer (`sprc-sum <16 hex>\n`, the ir/StructuralHash idiom)
///    appended at publish time and verified on every disk read — which
///    is also the memory-tier promotion point. A mismatch (bit rot, a
///    torn write that survived a crash, truncation) deletes the entry,
///    bumps CorruptDropped, and surfaces as a clean miss;
///  * the publish path is error-checked end to end (POSIX write loop,
///    close result, rename result) and optionally durable
///    (Config.Durable fsyncs the file and then the directory before the
///    entry becomes visible). ENOSPC/EIO/rename failures map to a
///    Status internally, unlink the temp file, and degrade the store to
///    passthrough compilation — a full disk never fails a request;
///  * a circuit breaker watches consecutive disk-tier failures: past
///    Config.BreakerThreshold the disk tier is disabled for
///    Config.BreakerCooldownMs, then probed half-open (one operation at
///    a time) until a success re-closes it. A dying disk costs hit
///    rate, never availability;
///  * scrubDiskTier() walks the tier validating checksums, quarantining
///    corrupt entries (renamed to `<entry>.quar`, never served again)
///    with optional byte-rate limiting — the daemon runs it on a
///    background cadence, `specpre-opt --cache-scrub` runs it once.
///
/// The disk tier is bounded by Config.MaxDiskBytes: when the directory
/// grows past the cap, a sweep evicts least-recently-used entries (disk
/// hits touch the entry's mtime, so recency survives process restarts)
/// down to 90% of the cap. Every sweep — capped or not — also reaps
/// orphaned temp files left by crashed writers. Sweeps are
/// concurrent-safe: eviction only unlinks, and a reader that loses the
/// race sees a plain miss, never torn data.
///
/// All operations are thread-safe: the parallel driver's workers and the
/// serve daemon's request workers share one cache. Disk I/O happens
/// outside the in-memory mutex so a slow disk read cannot stall every
/// other client's memory hits. Counters are cheap and always on; the
/// tools export them under the "cache" key of the metrics JSON.
///
/// Modes: On serves hits; Verify treats every hit as a cross-check — the
/// caller recompiles and compares bit-for-bit, reporting disagreement
/// via noteVerifyMismatch() (the cache's end-to-end integrity oracle).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_SUPPORT_COMPILECACHE_H
#define SPECPRE_SUPPORT_COMPILECACHE_H

#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "support/Status.h"

namespace specpre {

enum class CacheMode {
  Off,    ///< Never look up or store (the default without a cache).
  On,     ///< Serve hits, populate on miss.
  Verify, ///< Hits are audited: recompile and assert bit-identical.
};

/// Disk-tier circuit-breaker state (docs/CACHING.md). Closed admits all
/// disk I/O; Open short-circuits it for a cooldown; HalfOpen admits one
/// probe operation at a time until a success re-closes the breaker.
enum class DiskBreakerState : uint64_t {
  Closed = 0,
  Open = 1,
  HalfOpen = 2,
};

/// Content address of one compilation (see compileCacheKey). A plain
/// value so support/ needs no knowledge of how it is derived.
struct CacheKey {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  std::string toHex() const;

  auto operator<=>(const CacheKey &) const = default;
};

/// What an entry holds. Both kinds share every tier and mechanism (the
/// LRU, the disk directory, checksums, sweeps, scrubs, the breaker);
/// only the hit/miss/store counters are kept apart.
enum class CacheEntryKind {
  Compile,  ///< A compilation result (pre/CachedCompile.h).
  Training, ///< A memoized training run (trainThroughCache).
};

/// Why the compile layer left the cache out of a compile or training
/// run (noteBypass).
enum class CacheBypass {
  FaultInjection, ///< A pipeline fault site is armed: no lookup, no store.
  Degraded,       ///< The compile degraded: looked up, but not stored.
};

/// Monotonic event counts since construction. Snapshot via counters().
/// Hits, Misses, Stores, DiskHits and DiskWrites count compile entries
/// only; training entries count in the Train* fields.
struct CacheCounters {
  uint64_t Hits = 0;             ///< Lookups served (memory or disk).
  uint64_t Misses = 0;           ///< Lookups that found nothing.
  uint64_t Stores = 0;           ///< Entries inserted.
  uint64_t Evictions = 0;        ///< In-memory LRU evictions.
  uint64_t DiskHits = 0;         ///< Hits that had to read the directory.
  uint64_t DiskWrites = 0;       ///< Entries persisted to the directory.
  uint64_t DiskEvictions = 0;    ///< On-disk entries removed by sweeps.
  uint64_t VerifyMismatches = 0; ///< Verify-mode hit/recompile diffs.
  uint64_t CorruptDropped = 0;   ///< Checksum failures dropped (read+scrub).
  uint64_t DiskIoErrors = 0;     ///< Read/write/rename failures (real+injected).
  uint64_t BreakerOpens = 0;     ///< Closed/half-open -> open transitions.
  uint64_t BreakerShortCircuits = 0; ///< Disk ops skipped by an open breaker.
  uint64_t BreakerState = 0;     ///< Gauge: DiskBreakerState at snapshot time.
  uint64_t ScrubScanned = 0;     ///< Entries examined by scrubDiskTier().
  uint64_t ScrubQuarantined = 0; ///< Corrupt entries quarantined by scrubs.
  uint64_t TrainHits = 0;        ///< Training lookups served.
  uint64_t TrainMisses = 0;      ///< Training lookups that found nothing.
  uint64_t TrainStores = 0;      ///< Training entries inserted.
  uint64_t FaultBypasses = 0;    ///< Lookups skipped under fault injection.
  uint64_t DegradedUnstored = 0; ///< Degraded compiles not stored.
};

class CompileCache {
public:
  struct Config {
    /// On-disk cache directory; empty for a memory-only cache. Created
    /// (with parents) on first store if missing.
    std::string DiskDir;
    /// In-memory LRU capacity, in entries.
    uint64_t MaxEntries = 4096;
    /// Disk-tier size cap in bytes; 0 = unbounded. When the directory
    /// exceeds this, least-recently-used .sprc entries are evicted down
    /// to 90% of the cap. The cap is per-sweep advisory under
    /// multi-process sharing (each process sweeps on its own writes),
    /// so transient overshoot by one payload is possible.
    uint64_t MaxDiskBytes = 0;
    /// When set, every publish fsyncs the temp file before the rename
    /// and the directory after it, so a renamed entry survives a power
    /// cut. Off by default: the checksum trailer already turns a torn
    /// publish into a clean miss, so durability is a policy choice, not
    /// a correctness requirement.
    bool Durable = false;
    /// Consecutive disk-tier failures that open the circuit breaker;
    /// 0 disables the breaker entirely.
    uint64_t BreakerThreshold = 8;
    /// How long an open breaker short-circuits the disk tier before
    /// half-open probes are admitted.
    uint64_t BreakerCooldownMs = 2000;
    CacheMode Mode = CacheMode::On;
  };

  /// Result of one scrubDiskTier() pass.
  struct ScrubReport {
    uint64_t Scanned = 0;      ///< .sprc entries examined.
    uint64_t Quarantined = 0;  ///< Entries that failed their checksum.
    uint64_t ReadFailures = 0; ///< Entries unreadable (racing sweep, EIO).
    uint64_t BytesRead = 0;    ///< Total bytes validated.
  };

  explicit CompileCache(Config C);

  CacheMode mode() const { return Cfg.Mode; }

  /// Returns the payload stored under \p Key, consulting memory first,
  /// then the disk directory (promoting a disk hit into the LRU). Disk
  /// bytes are checksum-verified before promotion; a corrupt entry is
  /// deleted and reported as a miss. \p Kind selects the counters.
  std::optional<std::string>
  lookup(const CacheKey &Key, CacheEntryKind Kind = CacheEntryKind::Compile);

  /// Stores \p Payload under \p Key in memory and, when configured, on
  /// disk. Re-inserting an existing key refreshes its LRU position. A
  /// failed disk publish (ENOSPC, EIO, rename failure, open breaker)
  /// leaves the memory tier populated and is absorbed silently — the
  /// caller's request never fails because the disk did. \p Kind selects
  /// the counters.
  void insert(const CacheKey &Key, std::string Payload,
              CacheEntryKind Kind = CacheEntryKind::Compile);

  /// Verify-mode bookkeeping, called by the compile layer when a cached
  /// entry disagrees with a fresh recompile (or a fresh training run).
  void noteVerifyMismatch();

  /// Counts one compile or training run the compile layer kept out of
  /// the cache, under \p Reason.
  void noteBypass(CacheBypass Reason);

  CacheCounters counters() const;

  uint64_t entriesInMemory() const;

  DiskBreakerState breakerState() const;

  /// Forces a disk-tier sweep (normally triggered automatically when the
  /// approximate directory size crosses MaxDiskBytes). Always reaps
  /// stale temp files; evicts entries only when a byte cap is set and
  /// exceeded. No-op without a disk directory. Exposed for tests and
  /// for the daemon's shutdown path.
  void sweepDiskTier();

  /// Walks the disk tier validating every entry's checksum trailer and
  /// quarantining corrupt entries (renamed to `<entry>.quar` so they
  /// can never be served, with only the newest few kept for forensics).
  /// \p MaxBytesPerSec rate-limits the scan (0 = unthrottled) so a
  /// background scrub cannot starve foreground compiles of disk
  /// bandwidth. Concurrency-safe: overlapping scrubs no-op, racing
  /// sweeps/writers surface as ReadFailures, never as false positives.
  ScrubReport scrubDiskTier(uint64_t MaxBytesPerSec = 0);

  /// The 64-bit payload digest the disk trailer carries: two splitmix64
  /// lanes folded together, the same mixer idiom as ir/StructuralHash
  /// (duplicated here because support/ cannot depend on ir/).
  static uint64_t payloadChecksum(std::string_view Payload);

  /// Frames \p Payload for disk: payload bytes + checksum trailer.
  static std::string encodeDiskEntry(const std::string &Payload);

  /// Validates \p Bytes as a framed disk entry. On success strips the
  /// trailer into \p PayloadOut and returns true; any truncation, bit
  /// flip, or malformed trailer returns false.
  static bool decodeDiskEntry(const std::string &Bytes,
                              std::string &PayloadOut);

private:
  /// Outcome classification for one disk-tier read.
  enum class DiskReadResult { Hit, Missing, IoError, Corrupt };

  std::string diskPathFor(const CacheKey &Key) const;

  /// Inserts/refreshes \p Key in the LRU under Mu and applies the
  /// MaxEntries bound.
  void rememberInMemory(const CacheKey &Key, const std::string &Payload);

  /// Reads and checksum-validates the framed entry at \p Path into
  /// \p PayloadOut. Called outside Mu; enacts the disk-eio fault site.
  DiskReadResult readDiskEntry(const std::string &Path,
                               std::string &PayloadOut);

  /// Error-checked, optionally durable publish of \p Bytes to \p Final
  /// via \p Tmp. Enacts the disk write fault sites. On any failure the
  /// temp file is unlinked before returning — a failed publish never
  /// leaks a temp or a torn final entry.
  Status publishDiskEntry(const std::string &Tmp, const std::string &Final,
                          const std::string &Bytes);

  /// Breaker admission check, called under Mu before any disk I/O.
  /// Sets \p Probe when the admitted operation is a half-open probe.
  bool diskTierAdmitsLocked(bool &Probe);

  /// Breaker bookkeeping after a disk operation, called under Mu.
  void noteDiskOutcomeLocked(bool Ok, bool WasProbe);

  Config Cfg;
  mutable std::mutex Mu;
  /// Most-recently-used entries at the front.
  std::list<std::pair<CacheKey, std::string>> Lru;
  std::map<CacheKey, std::list<std::pair<CacheKey, std::string>>::iterator>
      Index;
  CacheCounters Stats;
  /// Running estimate of the disk directory's size, maintained under Mu
  /// and corrected to the scanned truth by every sweep. Only a trigger —
  /// eviction decisions come from the scan, never from this number.
  uint64_t ApproxDiskBytes = 0;
  /// Breaker state machine, all under Mu.
  DiskBreakerState Breaker = DiskBreakerState::Closed;
  uint64_t ConsecutiveDiskFailures = 0;
  std::chrono::steady_clock::time_point BreakerOpenedAt;
  bool ProbeInFlight = false;
  /// Serializes sweeps within this process; a sweep already in progress
  /// makes concurrent triggers no-ops instead of queueing.
  std::mutex SweepMu;
  /// Serializes scrubs (independent of SweepMu: a long rate-limited
  /// scrub must not block cap-triggered eviction sweeps).
  std::mutex ScrubMu;
};

} // namespace specpre

#endif // SPECPRE_SUPPORT_COMPILECACHE_H
