// ExplanationService: the async serving layer. Accepts many concurrent
// jobs, schedules them by priority and deadline through a bounded queue, and
// runs each job's `run` on a worker thread. It holds no engine state: no
// scoring pool, no engine options, no session cache — a job's run brings its
// own (api::Dataset's runs use their Engine's one scoring pool and the
// dataset's sessions).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "service/job.h"
#include "service/scheduler.h"
#include "service/stats.h"

namespace scorpion {

struct ServiceOptions {
  /// Job-running threads. 0 is allowed: jobs queue but never run (useful
  /// for tests and manual draining — Shutdown() cancels them).
  int num_workers = 2;
  /// Scheduler bound; beyond it, admission control sheds (see Scheduler).
  size_t max_queue_depth = 256;
};

/// \brief Async, batched job runner.
///
///   ExplanationService service(options);
///   Job job;
///   job.run = [&] { return scorpion.Explain(table, qr, problem); };
///   Response r = service.Submit(std::move(job));
///   Result<Explanation> e = r.future.get();
///
/// (The typed public surface for this is api::Dataset::ExplainAsync, which
/// submits the dataset's own explain run as the job.)
///
/// All public methods are thread-safe. Whatever a run borrows must outlive
/// its future's readiness.
class ExplanationService {
 public:
  explicit ExplanationService(ServiceOptions options = {});
  ~ExplanationService();

  SCORPION_DISALLOW_COPY_AND_ASSIGN(ExplanationService);

  /// Enqueues one job; a job without a `run` fails with InvalidArgument.
  /// Never blocks on a full queue: the future reports Unavailable when shed
  /// (see Response for the full error contract).
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
  Scheduler scheduler_;
  ServiceStats stats_;
  std::atomic<uint64_t> next_id_{1};
  // Serializes Shutdown(): a concurrent second caller blocks until the
  // winner has joined the workers, so "after Shutdown() returns, no run is
  // in flight" holds for every caller.
  Mutex shutdown_mu_;
  bool shutdown_ SCORPION_GUARDED_BY(shutdown_mu_) = false;

  // Spawned in the constructor, joined+cleared only by the Shutdown winner.
  std::vector<std::thread> workers_ SCORPION_GUARDED_BY(shutdown_mu_);
};

}  // namespace scorpion
