// Job/Response types for the ExplanationService: one explanation job — the
// *resolved* problem instance plus serving metadata — and the future the
// caller redeems for the result.
//
// A Job carries exactly one cardinality exponent: `problem.c`. (Its
// predecessor, the old service Request, carried a second `c` field that
// silently overrode `problem.c` — a footgun the typed API removed. Callers
// wanting mixed-c streams over one annotation set copy the ProblemSpec and
// set `problem.c` per job, which is what api::Dataset does for them.)
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>

#include "common/result.h"
#include "core/options.h"
#include "core/problem.h"
#include "core/scorpion.h"
#include "query/groupby.h"
#include "service/stats.h"
#include "table/table.h"

namespace scorpion {

struct TableSnapshot;

/// \brief One explanation job submitted to the ExplanationService.
///
/// `table` and `query_result` are borrowed: they must stay alive until the
/// response future is ready (the service never copies table data). Jobs
/// share cached DT partitions / merged results only through a `session`
/// their caller pins; the service keeps no cache of its own.
struct Job {
  using Clock = std::chrono::steady_clock;
  /// Sentinel meaning "no deadline".
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  const Table* table = nullptr;
  const QueryResult* query_result = nullptr;
  /// Optional shared ownership of `query_result`: when set, the result
  /// outlives the job even if every caller-side handle is dropped mid-
  /// flight (api::Dataset pins its result here; the table stays borrowed).
  std::shared_ptr<const QueryResult> query_result_owner;
  /// Optional generation pin for live tables: when `table` points into a
  /// published TableSnapshot (see storage/live_table.h), holding the
  /// snapshot here keeps that frozen generation alive until the future is
  /// fulfilled, even after newer generations publish and the LiveDataset
  /// moves on. Null for plain static tables.
  std::shared_ptr<const TableSnapshot> snapshot;
  /// The resolved problem instance. `problem.c` is the cardinality exponent
  /// this job runs at — there is no override.
  ProblemSpec problem;
  Algorithm algorithm = Algorithm::kDT;
  /// Ranked predicates to return; 0 keeps the service's engine default.
  size_t top_k = 0;
  /// Higher-priority jobs are dequeued first.
  int priority = 0;
  /// Jobs not started by this instant complete with
  /// Status::DeadlineExceeded instead of running.
  Clock::time_point deadline = kNoDeadline;
  /// Optional session for one problem-sans-c, shared with the caller's
  /// other runs (api::Dataset pins its own so sync and async explains share
  /// one cache). Null runs the job sessionless.
  std::shared_ptr<ExplainSession> session;
  /// Optional second sink for this run's ingest-plane counters
  /// (sessions_delta_refreshed, tail_rows_scanned), fed once when the run
  /// finishes, besides the service's own stats (api::LiveDataset passes
  /// the sink given to Engine::OpenLive). Not owned; must outlive the job.
  ServiceStats* refresh_stats = nullptr;

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
///   - DeadlineExceeded: the deadline passed before the job ran.
///   - Unavailable: shed on admission (queue full).
///   - Cancelled: Cancel(id) or service shutdown removed it from the queue.
struct Response {
  /// Service-unique id, usable with ExplanationService::Cancel().
  uint64_t id = 0;
  std::future<Result<Explanation>> future;
};

}  // namespace scorpion
