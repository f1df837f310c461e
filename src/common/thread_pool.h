// Fixed-size thread pool for the data-parallel hot paths (scorer, DT,
// merger). The design goal is determinism, not raw task throughput: all
// parallel work goes through ParallelFor over an index range, callers write
// results into per-index slots, and every reduction happens serially on the
// calling thread in index order — so a run with any thread count is
// bit-identical to a serial run.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/result.h"

namespace scorpion {

/// \brief Fixed pool of worker threads driving ParallelFor.
///
/// `num_threads` is the total parallelism: the pool spawns num_threads - 1
/// workers and the calling thread executes the first chunk of every
/// ParallelFor itself, so ThreadPool(1) runs everything inline.
///
/// ParallelFor calls issued from inside a ParallelFor body (e.g. the Merger
/// scoring candidates in parallel while each score parallelizes over groups)
/// run inline on the current thread instead of deadlocking or oversubscribing.
///
/// ParallelFor may be called from multiple producer threads concurrently
/// (an Engine's async workers and sync callers share its one scoring pool):
/// completion is tracked per call, so each caller returns as soon as its own
/// chunks have finished, independent of other callers' in-flight work.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  SCORPION_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [begin, end) and blocks until all calls have
  /// returned. Indices are dealt to threads in contiguous chunks, at most one
  /// chunk per thread, so scheduling overhead is O(threads) per call. If one
  /// or more bodies throw, the exception from the lowest-numbered chunk is
  /// rethrown on the calling thread after every body has finished.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

  /// Hardware concurrency with a floor of 1 (hardware_concurrency may
  /// report 0).
  static int DefaultNumThreads();

  /// True while the current thread is inside a ParallelFor body (a worker
  /// chunk or an inline nested call). A ParallelFor issued from such a
  /// thread runs inline and never blocks in the help-first loop; a
  /// top-level dispatch, by contrast, may execute OTHER producers' queued
  /// tasks while blocked — so callers that keep thread-local scratch live
  /// across a dispatch must switch to function-local buffers exactly when
  /// this returns false.
  static bool InParallelBody();

 private:
  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;   // signals workers: task ready / stop
  CondVar done_cv_;   // signals callers: a chunk finished
  // Each queued closure carries its own call's completion bookkeeping, so
  // the pool needs no per-call state here.
  std::vector<std::function<void()>> queue_ SCORPION_GUARDED_BY(mu_);
  bool stop_ SCORPION_GUARDED_BY(mu_) = false;
};

/// ParallelFor through an optional pool: a null pool runs the loop inline.
/// This is the form the library uses so every call site works unchanged when
/// ScorpionOptions::num_threads == 1.
void ParallelForOver(ThreadPool* pool, size_t begin, size_t end,
                     const std::function<void(size_t)>& fn);

/// Parallel map with the library's determinism recipe: fn(i) (returning
/// Result<T>) writes into a per-index slot, and the serial sweep afterwards
/// reports the first error in index order — exactly the error a serial loop
/// would have returned. T must be default-constructible.
template <typename T, typename Fn>
Result<std::vector<T>> ParallelMapOver(ThreadPool* pool, size_t n, Fn&& fn) {
  std::vector<T> slots(n);
  std::vector<Status> statuses(n);
  ParallelForOver(pool, 0, n, [&](size_t i) {
    Result<T> result = fn(i);
    if (result.ok()) {
      slots[i] = result.MoveValueUnsafe();
    } else {
      statuses[i] = result.status();
    }
  });
  for (size_t i = 0; i < n; ++i) {
    SCORPION_RETURN_NOT_OK(statuses[i]);
  }
  return slots;
}

}  // namespace scorpion
