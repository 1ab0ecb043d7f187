//===- support/ThreadPool.h - Work-stealing thread pool --------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool for the parallel PRE pipeline.
///
/// The scheduling unit is a `parallelFor(N, Body)` call: the index range
/// [0, N) is split into one contiguous strip per worker; each participant
/// pops indices from the front of its own strip and, when it runs dry,
/// steals the back half of a victim's remaining range. The calling
/// thread always participates, so nested parallelFor calls cannot
/// deadlock: the inner caller drains its own job even when every pool
/// thread is busy elsewhere.
///
/// Determinism contract: the pool itself makes no ordering promises —
/// which thread runs which index is racy by design. Callers obtain
/// deterministic results by writing each index's output into its own
/// slot and reducing the slots in index order afterwards (see
/// ParallelPreDriver::fanOut and docs/PARALLELISM.md).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_SUPPORT_THREADPOOL_H
#define SPECPRE_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace specpre {

class ThreadPool {
public:
  /// \p Workers is the total parallelism of a parallelFor, counting the
  /// calling thread; the pool spawns Workers - 1 threads. Workers <= 1
  /// spawns nothing and runs every parallelFor inline, bit-identically
  /// to a plain loop.
  explicit ThreadPool(unsigned Workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned workers() const { return NumWorkers; }

  /// std::thread::hardware_concurrency, clamped to at least 1.
  static unsigned hardwareWorkers();

  /// Runs Body(I) for every I in [0, N) and returns when all calls have
  /// completed. The calling thread participates. Body must tolerate
  /// concurrent invocations on distinct indices. Safe to call from
  /// inside another parallelFor body (nested fan-out).
  ///
  /// Exceptions: a throwing Body(I) does not kill the batch — every
  /// other index still runs, and once all indices have completed the
  /// exception of the *smallest* failing index is rethrown on the
  /// calling thread (the deterministic choice: jobs=1 and jobs=N report
  /// the same error). Without this, an escaping exception on a worker
  /// thread would std::terminate the process.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

private:
  /// One in-flight parallelFor: strips of the index range plus
  /// completion accounting.
  struct Job {
    struct Strip {
      std::mutex M;
      size_t Begin = 0, End = 0; ///< remaining range, under M
    };

    const std::function<void(size_t)> *Body = nullptr;
    size_t N = 0;
    std::vector<std::unique_ptr<Strip>> Strips;
    std::mutex DoneM;
    std::condition_variable DoneCv;
    size_t ItemsDone = 0; ///< under DoneM
    /// First (smallest-index) exception thrown by Body, rethrown by
    /// parallelFor after the batch completes. Under DoneM.
    std::exception_ptr FirstError;
    size_t FirstErrorIndex = 0; ///< under DoneM, valid when FirstError
  };

  /// Claims and runs work from \p J until no index is claimable.
  /// Returns true if it ran at least one index.
  static bool participate(Job &J);

  void workerLoop();

  unsigned NumWorkers;
  std::vector<std::thread> Threads;

  std::mutex QueueM;
  std::condition_variable QueueCv;
  std::vector<std::shared_ptr<Job>> ActiveJobs; ///< under QueueM
  uint64_t QueueVersion = 0;                    ///< under QueueM
  bool Stopping = false;                        ///< under QueueM
};

} // namespace specpre

#endif // SPECPRE_SUPPORT_THREADPOOL_H
