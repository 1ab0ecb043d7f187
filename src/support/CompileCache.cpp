//===- support/CompileCache.cpp - Content-addressed compile cache ---------===//

#include "support/CompileCache.h"

#include "support/FaultInjector.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>
#include <vector>

#if defined(_WIN32)
#include <process.h>
#define SPECPRE_GETPID _getpid
#else
#include <fcntl.h>
#include <unistd.h>
#define SPECPRE_GETPID getpid
#endif

using namespace specpre;

namespace fs = std::filesystem;

std::string CacheKey::toHex() const {
  static const char *Digits = "0123456789abcdef";
  std::string Out(32, '0');
  for (unsigned I = 0; I != 16; ++I)
    Out[15 - I] = Digits[(Hi >> (4 * I)) & 0xf];
  for (unsigned I = 0; I != 16; ++I)
    Out[31 - I] = Digits[(Lo >> (4 * I)) & 0xf];
  return Out;
}

namespace {

/// splitmix64 — the same reproducible mixer ir/StructuralHash and
/// FaultInjector use (duplicated: support/ cannot depend on ir/).
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Fixed-width checksum trailer: "sprc-sum " + 16 lowercase hex + '\n'.
constexpr char TrailerTag[] = "sprc-sum ";
constexpr size_t TrailerTagLen = sizeof(TrailerTag) - 1;
constexpr size_t TrailerLen = TrailerTagLen + 16 + 1;

/// The quarantine suffix scrubs rename corrupt entries to. Outside both
/// the ".sprc" entry namespace (sweeps and lookups never touch it) and
/// the ".tmp." reaping pattern.
constexpr char QuarantineSuffix[] = ".quar";

/// How many quarantined entries scrubs keep around for forensics before
/// pruning the oldest.
constexpr size_t MaxQuarantineKept = 32;

bool hexValue(char Ch, uint64_t &Out) {
  if (Ch >= '0' && Ch <= '9') {
    Out = static_cast<uint64_t>(Ch - '0');
    return true;
  }
  if (Ch >= 'a' && Ch <= 'f') {
    Out = static_cast<uint64_t>(Ch - 'a') + 10;
    return true;
  }
  return false;
}

} // namespace

uint64_t CompileCache::payloadChecksum(std::string_view Payload) {
  // Two independent lanes over little-endian 64-bit words (the
  // ir/StructuralHash addU64 recurrence), folded to one 64-bit digest.
  // The length is mixed in so truncation to a word boundary still
  // changes the sum.
  uint64_t Hi = 0x5a1fb7c9d3e8a642ULL;
  uint64_t Lo = 0xc3a5c85c97cb3127ULL;
  auto AddWord = [&](uint64_t W) {
    Hi = mix64(Hi ^ W);
    Lo = mix64(Lo ^ mix64(W));
  };
  AddWord(static_cast<uint64_t>(Payload.size()));
  size_t I = 0;
  for (; I + 8 <= Payload.size(); I += 8) {
    uint64_t W = 0;
    for (unsigned B = 0; B != 8; ++B)
      W |= static_cast<uint64_t>(static_cast<unsigned char>(Payload[I + B]))
           << (8 * B);
    AddWord(W);
  }
  if (I != Payload.size()) {
    uint64_t W = 0;
    for (unsigned B = 0; I + B != Payload.size(); ++B)
      W |= static_cast<uint64_t>(static_cast<unsigned char>(Payload[I + B]))
           << (8 * B);
    AddWord(W);
  }
  return Hi ^ mix64(Lo);
}

std::string CompileCache::encodeDiskEntry(const std::string &Payload) {
  static const char *Digits = "0123456789abcdef";
  uint64_t Sum = payloadChecksum(Payload);
  std::string Out;
  Out.reserve(Payload.size() + TrailerLen);
  Out = Payload;
  Out += TrailerTag;
  for (unsigned I = 0; I != 16; ++I)
    Out += Digits[(Sum >> (4 * (15 - I))) & 0xf];
  Out += '\n';
  return Out;
}

bool CompileCache::decodeDiskEntry(const std::string &Bytes,
                                   std::string &PayloadOut) {
  if (Bytes.size() < TrailerLen)
    return false;
  size_t TrailerAt = Bytes.size() - TrailerLen;
  if (Bytes.compare(TrailerAt, TrailerTagLen, TrailerTag) != 0 ||
      Bytes.back() != '\n')
    return false;
  uint64_t Sum = 0;
  for (size_t I = TrailerAt + TrailerTagLen; I != Bytes.size() - 1; ++I) {
    uint64_t Nibble = 0;
    if (!hexValue(Bytes[I], Nibble))
      return false;
    Sum = (Sum << 4) | Nibble;
  }
  std::string_view Payload(Bytes.data(), TrailerAt);
  if (payloadChecksum(Payload) != Sum)
    return false;
  PayloadOut.assign(Payload);
  return true;
}

CompileCache::CompileCache(Config C) : Cfg(std::move(C)) {
  if (Cfg.MaxEntries == 0)
    Cfg.MaxEntries = 1;
  // A daemon restarting over a pre-populated directory must see its real
  // size, or the cap would only bite after MaxDiskBytes of *new* writes.
  // Uncapped caches skip the cold-start scan (process-isolated workers
  // build one cache per fork); their temp orphans are reaped by the
  // always-scanning eviction/shutdown sweeps and the scrubber instead.
  if (!Cfg.DiskDir.empty() && Cfg.MaxDiskBytes)
    sweepDiskTier();
}

std::string CompileCache::diskPathFor(const CacheKey &Key) const {
  return Cfg.DiskDir + "/" + Key.toHex() + ".sprc";
}

void CompileCache::rememberInMemory(const CacheKey &Key,
                                    const std::string &Payload) {
  auto It = Index.find(Key);
  if (It != Index.end()) {
    It->second->second = Payload;
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.emplace_front(Key, Payload);
  Index[Key] = Lru.begin();
  while (Lru.size() > Cfg.MaxEntries) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
    ++Stats.Evictions;
  }
}

bool CompileCache::diskTierAdmitsLocked(bool &Probe) {
  if (!Cfg.BreakerThreshold)
    return true;
  switch (Breaker) {
  case DiskBreakerState::Closed:
    return true;
  case DiskBreakerState::Open: {
    auto Now = std::chrono::steady_clock::now();
    if (Now - BreakerOpenedAt <
        std::chrono::milliseconds(Cfg.BreakerCooldownMs)) {
      ++Stats.BreakerShortCircuits;
      return false;
    }
    Breaker = DiskBreakerState::HalfOpen;
    ProbeInFlight = false;
    [[fallthrough]];
  }
  case DiskBreakerState::HalfOpen:
    if (ProbeInFlight) {
      ++Stats.BreakerShortCircuits;
      return false;
    }
    ProbeInFlight = true;
    Probe = true;
    return true;
  }
  return true;
}

void CompileCache::noteDiskOutcomeLocked(bool Ok, bool WasProbe) {
  if (WasProbe)
    ProbeInFlight = false;
  if (Ok) {
    ConsecutiveDiskFailures = 0;
    Breaker = DiskBreakerState::Closed;
    return;
  }
  ++ConsecutiveDiskFailures;
  if (!Cfg.BreakerThreshold)
    return;
  // A failed half-open probe reopens immediately; a closed breaker waits
  // for the configured burst before declaring the disk down.
  if (Breaker == DiskBreakerState::HalfOpen ||
      (Breaker == DiskBreakerState::Closed &&
       ConsecutiveDiskFailures >= Cfg.BreakerThreshold)) {
    Breaker = DiskBreakerState::Open;
    BreakerOpenedAt = std::chrono::steady_clock::now();
    ++Stats.BreakerOpens;
  }
}

CompileCache::DiskReadResult
CompileCache::readDiskEntry(const std::string &Path, std::string &PayloadOut) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return DiskReadResult::Missing;
  if (faultInjectionEnabled() && shouldInjectFault(FaultSite::DiskEio))
    return DiskReadResult::IoError;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (In.bad())
    return DiskReadResult::IoError;
  std::string Bytes = std::move(Buf).str();
  if (!decodeDiskEntry(Bytes, PayloadOut))
    return DiskReadResult::Corrupt;
  return DiskReadResult::Hit;
}

std::optional<std::string> CompileCache::lookup(const CacheKey &Key,
                                                CacheEntryKind Kind) {
  const bool Compile = Kind == CacheEntryKind::Compile;
  uint64_t &Hits = Compile ? Stats.Hits : Stats.TrainHits;
  uint64_t &Misses = Compile ? Stats.Misses : Stats.TrainMisses;
  bool Probe = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      Lru.splice(Lru.begin(), Lru, It->second);
      ++Hits;
      return It->second->second;
    }
    if (Cfg.DiskDir.empty()) {
      ++Misses;
      return std::nullopt;
    }
    if (!diskTierAdmitsLocked(Probe)) {
      // Open breaker: the disk tier is presumed down, so a cold key is
      // a miss by decree — costing a recompile, never a stall.
      ++Misses;
      return std::nullopt;
    }
  }
  // Disk read outside the lock: a slow read must not stall other
  // clients' memory hits. Concurrent lookups of the same cold key may
  // both read the file; rememberInMemory coalesces the promotions.
  std::string DiskPath = diskPathFor(Key);
  std::string Payload;
  switch (readDiskEntry(DiskPath, Payload)) {
  case DiskReadResult::Hit: {
    // Touch the entry so disk-tier eviction is LRU, not FIFO: recency
    // earned by reads (possibly from another process) survives sweeps.
    std::error_code Ec;
    fs::last_write_time(DiskPath, fs::file_time_type::clock::now(), Ec);
    std::lock_guard<std::mutex> Lock(Mu);
    noteDiskOutcomeLocked(true, Probe);
    ++Hits;
    if (Compile)
      ++Stats.DiskHits;
    rememberInMemory(Key, Payload);
    return Payload;
  }
  case DiskReadResult::Missing: {
    // ENOENT is a working disk saying "no": a miss, not a failure.
    std::lock_guard<std::mutex> Lock(Mu);
    noteDiskOutcomeLocked(true, Probe);
    ++Misses;
    return std::nullopt;
  }
  case DiskReadResult::IoError: {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Stats.DiskIoErrors;
    noteDiskOutcomeLocked(false, Probe);
    ++Misses;
    return std::nullopt;
  }
  case DiskReadResult::Corrupt: {
    // Checksum mismatch: bit rot or a torn write that survived a crash.
    // Drop the entry so the recompile can republish clean bytes. The
    // disk itself answered, so this is not a breaker event.
    std::error_code Ec;
    fs::remove(DiskPath, Ec);
    std::lock_guard<std::mutex> Lock(Mu);
    ++Stats.CorruptDropped;
    noteDiskOutcomeLocked(true, Probe);
    ++Misses;
    return std::nullopt;
  }
  }
  return std::nullopt;
}

#if !defined(_WIN32)

Status CompileCache::publishDiskEntry(const std::string &Tmp,
                                      const std::string &Final,
                                      const std::string &Bytes) {
  bool Inject = faultInjectionEnabled();
  // Injected storage faults, enacted here so every caller above this
  // point exercises the same degradation path a real dying disk takes.
  if (Inject && shouldInjectFault(FaultSite::DiskEnospc))
    return Status::error(ErrorCode::IoError,
                         "write '" + Tmp + "': injected ENOSPC");
  if (Inject && shouldInjectFault(FaultSite::DiskEio))
    return Status::error(ErrorCode::IoError,
                         "write '" + Tmp + "': injected EIO");

  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return Status::error(ErrorCode::IoError, "open '" + Tmp +
                                                 "': " + std::strerror(errno));
  auto FailClosed = [&](const std::string &What) {
    int E = errno;
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return Status::error(ErrorCode::IoError,
                         What + " '" + Tmp + "': " + std::strerror(E));
  };

  const char *Data = Bytes.data();
  size_t Left = Bytes.size();
  // disk-short-write silently drops the tail and lets the rename land: a
  // torn publish exactly like a crash between write and fsync. The
  // checksum trailer is what turns it into a clean miss for readers.
  if (Inject && shouldInjectFault(FaultSite::DiskShortWrite))
    Left = Left / 2;
  std::string Corrupted;
  if (Inject && Left > 0 && shouldInjectFault(FaultSite::DiskCorruptByte)) {
    Corrupted.assign(Data, Left);
    Corrupted[Corrupted.size() / 2] ^= 0x20; // silent single-byte rot
    Data = Corrupted.data();
  }
  while (Left > 0) {
    ssize_t N = ::write(Fd, Data, Left);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return FailClosed("write");
    }
    Data += N;
    Left -= static_cast<size_t>(N);
  }
  // Durable mode flushes the bytes before the rename makes them
  // reachable, so a renamed entry can never be a post-crash hole.
  if (Cfg.Durable && ::fsync(Fd) != 0)
    return FailClosed("fsync");
  // close() is where buffered-write errors (ENOSPC on NFS, quota) often
  // surface; an unchecked close here is the torn-entry bug this layer
  // exists to prevent.
  if (::close(Fd) != 0) {
    int E = errno;
    ::unlink(Tmp.c_str());
    return Status::error(ErrorCode::IoError,
                         "close '" + Tmp + "': " + std::strerror(E));
  }
  if (Inject && shouldInjectFault(FaultSite::DiskRenameFail)) {
    ::unlink(Tmp.c_str());
    return Status::error(ErrorCode::IoError,
                         "rename '" + Tmp + "': injected failure");
  }
  if (::rename(Tmp.c_str(), Final.c_str()) != 0) {
    int E = errno;
    ::unlink(Tmp.c_str());
    return Status::error(ErrorCode::IoError,
                         "rename '" + Tmp + "': " + std::strerror(E));
  }
  if (Cfg.Durable) {
    // Persist the directory entry too (best-effort: some filesystems
    // refuse O_RDONLY directory fsync; the file's bytes are safe).
    int DirFd = ::open(Cfg.DiskDir.c_str(), O_RDONLY);
    if (DirFd >= 0) {
      ::fsync(DirFd);
      ::close(DirFd);
    }
  }
  return Status::ok();
}

#else // _WIN32: no fsync/POSIX fds; keep the stream path, error-checked.

Status CompileCache::publishDiskEntry(const std::string &Tmp,
                                      const std::string &Final,
                                      const std::string &Bytes) {
  std::error_code Ec;
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return Status::error(ErrorCode::IoError, "open '" + Tmp + "' failed");
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    Out.close();
    if (!Out.good()) {
      fs::remove(Tmp, Ec);
      return Status::error(ErrorCode::IoError, "write '" + Tmp + "' failed");
    }
  }
  fs::rename(Tmp, Final, Ec);
  if (Ec) {
    fs::remove(Tmp, Ec);
    return Status::error(ErrorCode::IoError, "rename '" + Tmp + "' failed");
  }
  return Status::ok();
}

#endif

void CompileCache::insert(const CacheKey &Key, std::string Payload,
                          CacheEntryKind Kind) {
  const bool Compile = Kind == CacheEntryKind::Compile;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++(Compile ? Stats.Stores : Stats.TrainStores);
    rememberInMemory(Key, Payload);
  }
  if (Cfg.DiskDir.empty())
    return;
  bool Probe = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!diskTierAdmitsLocked(Probe))
      return; // open breaker: memory-only until the cooldown probe
  }
  std::error_code Ec;
  fs::create_directories(Cfg.DiskDir, Ec);
  // Atomic publish: write a private temp file, then rename onto the
  // final name. Concurrent writers of the same key race benignly (both
  // bodies are identical by construction — the key is a content hash of
  // the inputs and compilation is deterministic); a reader only ever
  // sees a complete file, and the checksum trailer catches the torn
  // remains of a writer that died between write and rename.
  static std::atomic<uint64_t> TmpCounter{0};
  std::string Final = diskPathFor(Key);
  std::string Tmp = Final + ".tmp." +
                    std::to_string(static_cast<uint64_t>(SPECPRE_GETPID())) +
                    "." + std::to_string(TmpCounter.fetch_add(1));
  std::string Framed = encodeDiskEntry(Payload);
  Status St = publishDiskEntry(Tmp, Final, Framed);
  bool SweepNeeded = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (St.isOk()) {
      noteDiskOutcomeLocked(true, Probe);
      if (Compile)
        ++Stats.DiskWrites;
      ApproxDiskBytes += Framed.size();
      SweepNeeded = Cfg.MaxDiskBytes && ApproxDiskBytes > Cfg.MaxDiskBytes;
    } else {
      // A failed store (ENOSPC, EIO, rename failure) degrades to
      // passthrough compilation: the memory tier already has the entry
      // and the caller's request has its result either way.
      ++Stats.DiskIoErrors;
      noteDiskOutcomeLocked(false, Probe);
    }
  }
  if (SweepNeeded)
    sweepDiskTier();
}

void CompileCache::sweepDiskTier() {
  if (Cfg.DiskDir.empty())
    return;
  // One sweeper at a time per process; a concurrent trigger returns
  // immediately — the running sweep already covers its bytes.
  std::unique_lock<std::mutex> Sweep(SweepMu, std::try_to_lock);
  if (!Sweep.owns_lock())
    return;

  struct Entry {
    fs::path Path;
    uint64_t Size = 0;
    fs::file_time_type MTime;
  };
  std::vector<Entry> Entries;
  uint64_t Total = 0;
  const auto Now = fs::file_time_type::clock::now();
  std::error_code Ec;
  for (fs::directory_iterator It(Cfg.DiskDir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    const fs::path &P = It->path();
    std::string Name = P.filename().string();
    uint64_t Size = It->file_size(Ec);
    if (Ec) { // vanished mid-scan (concurrent sweep/writer): skip
      Ec.clear();
      continue;
    }
    fs::file_time_type MTime = It->last_write_time(Ec);
    if (Ec) {
      Ec.clear();
      continue;
    }
    if (Name.find(".tmp.") != std::string::npos) {
      // Orphaned temp file from a crashed writer. Only reap stale ones:
      // a live writer's temp exists for milliseconds, so ten minutes of
      // age means its process is gone. Reaped on every sweep — capped
      // or not — so an unbounded tier does not leak temps until the
      // next cold start.
      if (Now - MTime > std::chrono::minutes(10))
        fs::remove(P, Ec);
      Ec.clear();
      continue;
    }
    if (Name.size() < 5 || Name.substr(Name.size() - 5) != ".sprc")
      continue; // not ours; never touch foreign files
    Total += Size;
    Entries.push_back(Entry{P, Size, MTime});
  }

  uint64_t Evicted = 0;
  if (Cfg.MaxDiskBytes && Total > Cfg.MaxDiskBytes) {
    // Oldest-first down to 90% of the cap, so back-to-back inserts do
    // not each pay a full directory scan. Ties (coarse mtime clocks)
    // break by path for determinism.
    std::sort(Entries.begin(), Entries.end(),
              [](const Entry &A, const Entry &B) {
                if (A.MTime != B.MTime)
                  return A.MTime < B.MTime;
                return A.Path < B.Path;
              });
    const uint64_t Target = Cfg.MaxDiskBytes - Cfg.MaxDiskBytes / 10;
    for (const Entry &E : Entries) {
      if (Total <= Target)
        break;
      // remove() is idempotent across processes: if a concurrent sweep
      // already unlinked this entry, Ec reports ENOENT and the bytes
      // were freed either way.
      if (fs::remove(E.Path, Ec))
        ++Evicted;
      Total -= std::min(Total, E.Size);
    }
  }

  std::lock_guard<std::mutex> Lock(Mu);
  Stats.DiskEvictions += Evicted;
  ApproxDiskBytes = Total;
}

CompileCache::ScrubReport CompileCache::scrubDiskTier(uint64_t MaxBytesPerSec) {
  ScrubReport R;
  if (Cfg.DiskDir.empty())
    return R;
  // Overlapping scrubs (a slow background pass vs. a shutdown pass)
  // no-op rather than queue; the running scrub covers the tier.
  std::unique_lock<std::mutex> Scrub(ScrubMu, std::try_to_lock);
  if (!Scrub.owns_lock())
    return R;

  const auto Started = std::chrono::steady_clock::now();
  struct QuarFile {
    fs::path Path;
    fs::file_time_type MTime;
  };
  std::vector<QuarFile> Quarantined;
  std::error_code Ec;
  for (fs::directory_iterator It(Cfg.DiskDir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    const fs::path P = It->path();
    std::string Name = P.filename().string();
    if (Name.size() >= 5 && Name.substr(Name.size() - 5) == QuarantineSuffix) {
      fs::file_time_type MTime = It->last_write_time(Ec);
      if (!Ec)
        Quarantined.push_back(QuarFile{P, MTime});
      Ec.clear();
      continue;
    }
    if (Name.find(".tmp.") != std::string::npos) {
      // The scrubber doubles as the temp reaper on unbounded tiers,
      // where cap-triggered sweeps never run. Same staleness bound as
      // sweepDiskTier.
      fs::file_time_type MTime = It->last_write_time(Ec);
      if (!Ec && fs::file_time_type::clock::now() - MTime >
                     std::chrono::minutes(10))
        fs::remove(P, Ec);
      Ec.clear();
      continue;
    }
    if (Name.size() < 5 || Name.substr(Name.size() - 5) != ".sprc")
      continue;

    std::string Bytes;
    {
      std::ifstream In(P, std::ios::binary);
      if (!In) { // racing sweep/eviction unlinked it: not corruption
        ++R.ReadFailures;
        continue;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      if (In.bad()) {
        ++R.ReadFailures;
        continue;
      }
      Bytes = std::move(Buf).str();
    }
    ++R.Scanned;
    R.BytesRead += Bytes.size();
    std::string Payload;
    if (!decodeDiskEntry(Bytes, Payload)) {
      // Quarantine rather than delete: the corrupt bytes stay available
      // for forensics but can never be served (lookup and sweeps only
      // see ".sprc" names), and the key's next lookup is a clean miss
      // that republishes good bytes over nothing.
      fs::path Quar = P;
      Quar += QuarantineSuffix;
      fs::rename(P, Quar, Ec);
      if (!Ec) {
        ++R.Quarantined;
        Quarantined.push_back(QuarFile{Quar, fs::file_time_type::clock::now()});
      }
      Ec.clear();
    }
    if (MaxBytesPerSec) {
      // Rate limit: sleep until the cumulative byte count fits the
      // budgeted bandwidth, so a background scrub cannot starve
      // foreground compiles of the disk.
      auto Budgeted = std::chrono::duration<double>(
          static_cast<double>(R.BytesRead) /
          static_cast<double>(MaxBytesPerSec));
      auto Elapsed = std::chrono::steady_clock::now() - Started;
      if (Elapsed < Budgeted)
        std::this_thread::sleep_for(
            std::chrono::duration_cast<std::chrono::milliseconds>(Budgeted -
                                                                  Elapsed));
    }
  }

  if (Quarantined.size() > MaxQuarantineKept) {
    std::sort(Quarantined.begin(), Quarantined.end(),
              [](const QuarFile &A, const QuarFile &B) {
                if (A.MTime != B.MTime)
                  return A.MTime > B.MTime; // newest first
                return A.Path < B.Path;
              });
    for (size_t I = MaxQuarantineKept; I != Quarantined.size(); ++I)
      fs::remove(Quarantined[I].Path, Ec);
  }

  std::lock_guard<std::mutex> Lock(Mu);
  Stats.ScrubScanned += R.Scanned;
  Stats.ScrubQuarantined += R.Quarantined;
  // A quarantined entry is a detected corruption exactly like a
  // lookup-time checksum failure; account it under the same counter.
  Stats.CorruptDropped += R.Quarantined;
  return R;
}

void CompileCache::noteVerifyMismatch() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Stats.VerifyMismatches;
}

void CompileCache::noteBypass(CacheBypass Reason) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++(Reason == CacheBypass::FaultInjection ? Stats.FaultBypasses
                                           : Stats.DegradedUnstored);
}

CacheCounters CompileCache::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  CacheCounters Out = Stats;
  Out.BreakerState = static_cast<uint64_t>(Breaker);
  return Out;
}

DiskBreakerState CompileCache::breakerState() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Breaker;
}

uint64_t CompileCache::entriesInMemory() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return static_cast<uint64_t>(Lru.size());
}
