#include "service/service.h"

#include <chrono>
#include <utility>

#include "common/failpoint.h"

namespace scorpion {

ExplanationService::ExplanationService(ServiceOptions options)
    : options_(std::move(options)),
      scheduler_(SchedulerOptions{options_.max_queue_depth}) {
  if (options_.num_workers < 0) options_.num_workers = 0;
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ExplanationService::~ExplanationService() { Shutdown(); }

Response ExplanationService::Submit(Job job) {
  Response response;
  response.id = next_id_.fetch_add(1, std::memory_order_relaxed);

  ScheduledJob item;
  item.id = response.id;
  item.enqueue_time = Job::Clock::now();
  item.job = std::move(job);
  response.future = item.promise.get_future();

  // Fail fast before the job occupies queue space.
  if (!item.job.run) {
    ++stats_.failed;
    item.promise.set_value(Status::InvalidArgument("job needs a run"));
    return response;
  }

  // Fault injection at the admission boundary: an injected error rejects
  // the job cleanly (promise fulfilled, counted as failed) exactly like a
  // validation failure; a sleep simulates a slow producer.
  SCORPION_FAILPOINT_HIT("service.enqueue", fp_hit);
  if (fp_hit.fired()) {
    ++stats_.failed;
    item.promise.set_value(
        fp_hit.kind == FailpointHit::Kind::kStatus
            ? fp_hit.status
            : Status::Unavailable("failpoint 'service.enqueue' injected"));
    return response;
  }

  switch (scheduler_.Enqueue(std::move(item))) {
    case AdmissionResult::kAdmitted:
      ++stats_.submitted;
      break;
    case AdmissionResult::kAdmittedEvictedWorst:
      ++stats_.submitted;
      ++stats_.shed;
      break;
    case AdmissionResult::kShed:
      ++stats_.shed;
      break;
    case AdmissionResult::kShutdown:
      ++stats_.cancelled;
      break;
  }
  return response;
}

bool ExplanationService::Cancel(uint64_t id) {
  if (scheduler_.Cancel(id)) {
    ++stats_.cancelled;
    return true;
  }
  return false;
}

void ExplanationService::Shutdown() {
  MutexLock lock(shutdown_mu_);
  if (shutdown_) return;
  stats_.cancelled += scheduler_.Shutdown();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  shutdown_ = true;
}

ServiceStatsSnapshot ExplanationService::stats() const {
  return stats_.Snapshot(scheduler_.depth());
}

void ExplanationService::WorkerLoop() {
  ScheduledJob item;
  while (scheduler_.Pop(&item)) {
    Execute(std::move(item));
  }
}

void ExplanationService::Execute(ScheduledJob item) {
  const Job& job = item.job;
  // Sits just before the deadline gate so a `sleep` action creates real
  // deadline pressure (the check below then expires the job) and an
  // injected error fails the run cleanly through its promise.
  SCORPION_FAILPOINT_HIT("service.deadline_check", fp_hit);
  if (fp_hit.kind == FailpointHit::Kind::kStatus) {
    ++stats_.failed;
    item.promise.set_value(fp_hit.status);
    return;
  }
  if (job.deadline != Job::kNoDeadline &&
      Job::Clock::now() >= job.deadline) {
    ++stats_.deadline_expired;
    item.promise.set_value(
        Status::DeadlineExceeded("deadline passed before the job ran"));
    return;
  }

  Result<Explanation> result = job.run();

  if (result.ok()) {
    ++stats_.completed;
    if (result->cache_partitions_hit) ++stats_.cache_partition_hits;
    if (result->cache_result_hit) ++stats_.cache_result_hits;
    stats_.blocks_pruned += result->scorer_stats.blocks_pruned_none.load() +
                            result->scorer_stats.blocks_pruned_all.load();
    stats_.rows_skipped_by_pruning +=
        result->scorer_stats.rows_skipped_by_pruning.load();
    stats_.RecordDeltaRefresh(*result);
    stats_.RecordLatency(std::chrono::duration<double>(
                             Job::Clock::now() - item.enqueue_time)
                             .count());
  } else {
    ++stats_.failed;
  }
  item.promise.set_value(std::move(result));
}

}  // namespace scorpion
