// Job/Response types for the ExplanationService: one queued unit of work —
// its scheduling order (priority, deadline) and the run that produces the
// Explanation — and the future the caller redeems for the result.
//
// The service never looks inside a run. Whoever builds the Job captures in
// `run` everything the explain needs and keeps it alive until the run
// returns; api::Dataset captures its pinned table generation, query result
// and session there.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <future>

#include "common/result.h"
#include "core/scorpion.h"

namespace scorpion {

/// \brief One job submitted to the ExplanationService.
struct Job {
  using Clock = std::chrono::steady_clock;
  /// Sentinel meaning "no deadline".
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  /// Higher-priority jobs are dequeued first.
  int priority = 0;
  /// Jobs not started by this instant complete with
  /// Status::DeadlineExceeded instead of running.
  Clock::time_point deadline = kNoDeadline;
  /// The explain, run once on a service worker thread. Required.
  std::function<Result<Explanation>()> run;

  /// Sets the deadline relative to now. Rejects negative or non-finite
  /// seconds with InvalidArgument (a negative deadline would silently
  /// dead-letter the job) and leaves the deadline unchanged on error.
  /// Deadlines beyond ~31 years are indistinguishable from none and become
  /// kNoDeadline — the double-to-integral duration cast would otherwise be
  /// undefined behaviour for huge finite values.
  Status set_deadline_after(double seconds) {
    if (!std::isfinite(seconds) || seconds < 0.0) {
      return Status::InvalidArgument(
          "deadline seconds must be finite and non-negative");
    }
    if (seconds >= 1e9) {
      deadline = kNoDeadline;
      return Status::OK();
    }
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    return Status::OK();
  }
};

/// \brief Handle for a submitted job.
///
/// The future becomes ready with the Explanation, or with an error Status:
///   - the run's own error, if it returned one;
///   - DeadlineExceeded: the deadline passed before the job ran.
///   - Unavailable: shed on admission (queue full).
///   - Cancelled: Cancel(id) or service shutdown removed it from the queue.
struct Response {
  /// Service-unique id, usable with ExplanationService::Cancel().
  uint64_t id = 0;
  std::future<Result<Explanation>> future;
};

}  // namespace scorpion
