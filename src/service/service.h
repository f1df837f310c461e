// ExplanationService: the async batched serving layer above the Scorpion
// engine. Accepts many concurrent explanation requests, schedules them by
// priority and deadline through a bounded queue, executes them on worker
// threads that share one scoring ThreadPool, and runs each job against the
// ExplainSession its caller pinned on it (the Section 8.3.3 cache; the
// service holds none of its own).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "core/scorpion.h"
#include "service/job.h"
#include "service/scheduler.h"
#include "service/stats.h"

namespace scorpion {

struct ServiceOptions {
  /// Engine tuning shared by every request. `engine.algorithm` is overridden
  /// per request; `engine.num_threads` sizes the shared scoring pool
  /// (0 = one thread per hardware core, 1 = serial scoring).
  ScorpionOptions engine;
  /// Request-execution threads. 0 is allowed: requests queue but never run
  /// (useful for tests and manual draining — Shutdown() cancels them).
  int num_workers = 2;
  /// Scheduler bound; beyond it, admission control sheds (see Scheduler).
  size_t max_queue_depth = 256;
  /// Enables Section 8.3.3 cross-c warm starts between the c values cached
  /// in a job's session. Warm-started merges only improve influence, but the
  /// output then depends on request completion order; the default keeps
  /// every response byte-identical to a direct Scorpion::Explain() of the
  /// same request.
  bool cross_c_warm_start = false;
};

/// \brief Async, batched front-end over the Scorpion engine.
///
///   ExplanationService service(options);
///   Response r = service.Submit({.table = &t, .query_result = &qr,
///                                .problem = problem});
///   Result<Explanation> e = r.future.get();
///
/// (The typed public surface for this is api::Dataset::ExplainAsync, which
/// resolves an ExplainRequest into a Job and pins the dataset's session.)
///
/// All public methods are thread-safe. Tables and query results referenced
/// by a job are borrowed and must outlive its future's readiness.
class ExplanationService {
 public:
  explicit ExplanationService(ServiceOptions options = {});
  ~ExplanationService();

  SCORPION_DISALLOW_COPY_AND_ASSIGN(ExplanationService);

  /// Validates and enqueues one job. Never blocks on a full queue: the
  /// future reports Unavailable when shed (see Response for the full error
  /// contract).
  Response Submit(Job job);

  /// Cancels a queued job (its future reports Cancelled). False if the job
  /// already started, finished, or was never queued.
  bool Cancel(uint64_t id);

  /// Stops admission, cancels queued requests, and joins the workers after
  /// their in-flight requests finish. Idempotent; the destructor calls it.
  void Shutdown();

  ServiceStatsSnapshot stats() const;
  size_t queue_depth() const { return scheduler_.depth(); }

  const ServiceOptions& options() const { return options_; }

 private:
  void WorkerLoop();
  void Execute(ScheduledJob item);

  ServiceOptions options_;
  std::unique_ptr<ThreadPool> scoring_pool_;  // nullptr = serial scoring
  Scheduler scheduler_;
  ServiceStats stats_;
  std::atomic<uint64_t> next_id_{1};
  // Serializes Shutdown(): a concurrent second caller blocks until the
  // winner has joined the workers, so "after Shutdown() returns, nothing
  // touches the service or the borrowed tables" holds for every caller.
  Mutex shutdown_mu_;
  bool shutdown_ SCORPION_GUARDED_BY(shutdown_mu_) = false;

  // Spawned in the constructor, joined+cleared only by the Shutdown winner.
  std::vector<std::thread> workers_ SCORPION_GUARDED_BY(shutdown_mu_);
};

}  // namespace scorpion
