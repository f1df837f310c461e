// ExplanationService contract: a job's run executes on a worker and its
// result (or error) reaches the future, runs sharing a captured session
// reuse its cached state, deadlines/shedding/cancellation surface the right
// Status codes, and the scheduler orders by priority + deadline. The
// Engine-level async path (one scoring pool, byte-identity under concurrent
// clients) is covered by DatasetExplainAsync in test_api.cc.
#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "query/groupby.h"
#include "service/scheduler.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

struct Fixture {
  SynthDataset dataset;
  QueryResult qr;
  ProblemSpec problem;
};

Fixture MakeFixture(uint64_t seed, const std::string& aggregate = "SUM") {
  SynthOptions opts = SynthPreset(2, /*easy=*/true, seed);
  opts.num_groups = 6;
  opts.tuples_per_group = 250;
  Fixture f;
  f.dataset = GenerateSynth(opts).ValueOrDie();
  f.dataset.query.aggregate = aggregate;
  f.qr = ExecuteGroupBy(f.dataset.table, f.dataset.query).ValueOrDie();
  f.problem = MakeProblem(f.qr, f.dataset.outlier_keys,
                          f.dataset.holdout_keys, /*error_direction=*/1.0,
                          /*lambda=*/0.5, /*c=*/1.0, f.dataset.attributes)
                  .ValueOrDie();
  return f;
}

/// A DT explain of `f` at `c` as a closure job; `session` (optional) is
/// shared with the caller's other jobs. `f` must outlive the job.
Job MakeJob(const Fixture& f, double c,
            std::shared_ptr<ExplainSession> session = nullptr) {
  Job job;
  job.run = [&f, c, session = std::move(session)] {
    ProblemSpec problem = f.problem;
    problem.c = c;
    return Scorpion().Explain(f.dataset.table, f.qr, problem, session.get());
  };
  return job;
}

void ExpectSameExplanation(const Explanation& expected,
                           const Explanation& actual) {
  ASSERT_EQ(expected.predicates.size(), actual.predicates.size());
  for (size_t i = 0; i < expected.predicates.size(); ++i) {
    EXPECT_EQ(expected.predicates[i].pred.ToString(),
              actual.predicates[i].pred.ToString())
        << "rank " << i;
    EXPECT_EQ(expected.predicates[i].influence,
              actual.predicates[i].influence)
        << "rank " << i;
  }
}

// --- Scheduler unit tests ---------------------------------------------------

ScheduledJob MakeScheduled(uint64_t id, int priority,
                           Job::Clock::time_point deadline =
                               Job::kNoDeadline) {
  ScheduledJob item;
  item.id = id;
  item.job.priority = priority;
  item.job.deadline = deadline;
  return item;
}

TEST(Scheduler, PopsByPriorityThenDeadlineThenFifo) {
  Scheduler scheduler(SchedulerOptions{16});
  auto soon = Job::Clock::now() + std::chrono::seconds(1);
  auto later = Job::Clock::now() + std::chrono::hours(1);
  EXPECT_EQ(scheduler.Enqueue(MakeScheduled(1, 0)), AdmissionResult::kAdmitted);
  EXPECT_EQ(scheduler.Enqueue(MakeScheduled(2, 5, later)),
            AdmissionResult::kAdmitted);
  EXPECT_EQ(scheduler.Enqueue(MakeScheduled(3, 5, soon)),
            AdmissionResult::kAdmitted);
  EXPECT_EQ(scheduler.Enqueue(MakeScheduled(4, 0)), AdmissionResult::kAdmitted);

  ScheduledJob out;
  ASSERT_TRUE(scheduler.Pop(&out));
  EXPECT_EQ(out.id, 3u);  // highest priority, earliest deadline
  ASSERT_TRUE(scheduler.Pop(&out));
  EXPECT_EQ(out.id, 2u);  // highest priority, later deadline
  ASSERT_TRUE(scheduler.Pop(&out));
  EXPECT_EQ(out.id, 1u);  // FIFO within priority 0
  ASSERT_TRUE(scheduler.Pop(&out));
  EXPECT_EQ(out.id, 4u);
}

TEST(Scheduler, FullQueueShedsWorstNotBest) {
  Scheduler scheduler(SchedulerOptions{2});
  ScheduledJob low1 = MakeScheduled(1, 1);
  ScheduledJob low2 = MakeScheduled(2, 1);
  auto low2_future = low2.promise.get_future();
  EXPECT_EQ(scheduler.Enqueue(std::move(low1)), AdmissionResult::kAdmitted);
  EXPECT_EQ(scheduler.Enqueue(std::move(low2)), AdmissionResult::kAdmitted);

  // A worse-or-equal incoming request is the admission loser.
  ScheduledJob low3 = MakeScheduled(3, 1);
  auto low3_future = low3.promise.get_future();
  EXPECT_EQ(scheduler.Enqueue(std::move(low3)), AdmissionResult::kShed);
  EXPECT_TRUE(low3_future.get().status().IsUnavailable());

  // A better incoming request evicts the worst queued one (id 2: same
  // priority as id 1 but later FIFO order).
  ScheduledJob high = MakeScheduled(4, 9);
  EXPECT_EQ(scheduler.Enqueue(std::move(high)),
            AdmissionResult::kAdmittedEvictedWorst);
  EXPECT_TRUE(low2_future.get().status().IsUnavailable());

  ScheduledJob out;
  ASSERT_TRUE(scheduler.Pop(&out));
  EXPECT_EQ(out.id, 4u);
  ASSERT_TRUE(scheduler.Pop(&out));
  EXPECT_EQ(out.id, 1u);
  EXPECT_EQ(scheduler.depth(), 0u);
}

TEST(Scheduler, CancelRemovesQueuedRequest) {
  Scheduler scheduler(SchedulerOptions{8});
  ScheduledJob item = MakeScheduled(7, 0);
  auto future = item.promise.get_future();
  EXPECT_EQ(scheduler.Enqueue(std::move(item)), AdmissionResult::kAdmitted);
  EXPECT_TRUE(scheduler.Cancel(7));
  EXPECT_TRUE(future.get().status().IsCancelled());
  EXPECT_FALSE(scheduler.Cancel(7));  // already gone
  EXPECT_EQ(scheduler.depth(), 0u);
}

TEST(Scheduler, ShutdownCancelsQueuedAndRejectsNew) {
  Scheduler scheduler(SchedulerOptions{8});
  ScheduledJob item = MakeScheduled(1, 0);
  auto queued_future = item.promise.get_future();
  EXPECT_EQ(scheduler.Enqueue(std::move(item)), AdmissionResult::kAdmitted);
  scheduler.Shutdown();
  EXPECT_TRUE(queued_future.get().status().IsCancelled());

  ScheduledJob late = MakeScheduled(2, 0);
  auto late_future = late.promise.get_future();
  EXPECT_EQ(scheduler.Enqueue(std::move(late)), AdmissionResult::kShutdown);
  EXPECT_TRUE(late_future.get().status().IsCancelled());

  ScheduledJob out;
  EXPECT_FALSE(scheduler.Pop(&out));
}

// --- Service tests ----------------------------------------------------------

TEST(ExplanationService, SessionBoundsCachedCValues) {
  // A client sweeping c must not grow a session without bound: per-session
  // merged results are LRU-capped (ExplainSession::kMaxMergedEntries = 16),
  // so after 17 distinct c values the oldest is evicted while the newest
  // still hits.
  Fixture f = MakeFixture(73);
  ServiceOptions options;
  options.num_workers = 1;
  ExplanationService service(options);
  auto session = std::make_shared<ExplainSession>();
  auto submit = [&](double c) {
    return service.Submit(MakeJob(f, c, session)).future.get();
  };

  const double oldest_c = 0.90;
  double newest_c = 0.0;
  for (int i = 0; i < 17; ++i) {
    newest_c = oldest_c - 0.01 * i;
    ASSERT_TRUE(submit(newest_c).ok());
  }

  auto newest = submit(newest_c);
  ASSERT_TRUE(newest.ok());
  EXPECT_TRUE(newest->cache_result_hit);

  auto evicted = submit(oldest_c);
  ASSERT_TRUE(evicted.ok());
  EXPECT_FALSE(evicted->cache_result_hit);      // recomputed...
  EXPECT_TRUE(evicted->cache_partitions_hit);   // ...from cached partitions
}

TEST(ExplanationService, ExpiredDeadlineReturnsDeadlineExceeded) {
  Fixture f = MakeFixture(43);
  ServiceOptions options;
  options.num_workers = 1;
  ExplanationService service(options);

  std::atomic<bool> late_ran{false};
  Job late;
  late.run = [&late_ran]() -> Result<Explanation> {
    late_ran = true;
    return Explanation{};
  };
  late.deadline = Job::Clock::now() - std::chrono::milliseconds(1);
  Response response = service.Submit(std::move(late));
  EXPECT_TRUE(response.future.get().status().IsDeadlineExceeded());
  EXPECT_FALSE(late_ran) << "an expired job must not run";
  EXPECT_GE(service.stats().deadline_expired, 1u);

  // A deadline in the future still runs.
  Job in_time = MakeJob(f, 0.5);
  ASSERT_TRUE(in_time.set_deadline_after(120.0).ok());
  Response ok_response = service.Submit(std::move(in_time));
  EXPECT_TRUE(ok_response.future.get().ok());
}

TEST(JobDeadline, SetDeadlineAfterRejectsNegativeAndNonFinite) {
  // A negative relative deadline would put the absolute deadline in the
  // past and silently dead-letter the job; NaN would compare false against
  // now() forever. Both are caller bugs the API must surface.
  Job job;
  for (double bad : {-1.0, -1e-9,
                     std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_TRUE(job.set_deadline_after(bad).IsInvalidArgument()) << bad;
    EXPECT_EQ(job.deadline, Job::kNoDeadline) << "deadline must be unchanged";
  }
  ASSERT_TRUE(job.set_deadline_after(0.5).ok());
  EXPECT_NE(job.deadline, Job::kNoDeadline);
  EXPECT_GT(job.deadline, Job::Clock::now());
  // Absurdly far deadlines clamp to "none" instead of overflowing the
  // integral clock duration (UB) and wrapping negative.
  ASSERT_TRUE(job.set_deadline_after(1e12).ok());
  EXPECT_EQ(job.deadline, Job::kNoDeadline);
}

TEST(ExplanationService, CallerPinnedSessionWinsOverKeyedCache) {
  // The session a run captures is the only cache: jobs capturing it reuse
  // its state (api::Dataset captures its own so its sync and async paths
  // share one cache), while a job without a session runs cold every time —
  // the service keeps no cache of its own.
  Fixture f = MakeFixture(79);
  ServiceOptions options;
  options.num_workers = 1;
  ExplanationService service(options);

  auto session = std::make_shared<ExplainSession>();
  auto r1 = service.Submit(MakeJob(f, 0.5, session))
                .future.get();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_FALSE(r1->cache_partitions_hit);

  auto r2 = service.Submit(MakeJob(f, 0.2, session))
                .future.get();
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->cache_partitions_hit);

  for (int i = 0; i < 2; ++i) {
    auto sessionless = service.Submit(MakeJob(f, 0.5)).future.get();
    ASSERT_TRUE(sessionless.ok());
    EXPECT_FALSE(sessionless->cache_partitions_hit);
    EXPECT_FALSE(sessionless->cache_result_hit);
    ExpectSameExplanation(*r1, *sessionless);
  }

  auto r3 = service.Submit(MakeJob(f, 0.5, session))
                .future.get();
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3->cache_result_hit);
  ExpectSameExplanation(*r1, *r3);
}

TEST(ExplanationService, ShedsWhenQueueIsFull) {
  Fixture f = MakeFixture(47);
  ServiceOptions options;
  options.num_workers = 0;  // nothing drains the queue
  options.max_queue_depth = 3;
  ExplanationService service(options);

  std::vector<Response> responses;
  for (int i = 0; i < 5; ++i) {
    responses.push_back(service.Submit(MakeJob(f, 0.5)));
  }
  // Equal priority: the two submissions past the bound lose admission.
  EXPECT_TRUE(responses[3].future.get().status().IsUnavailable());
  EXPECT_TRUE(responses[4].future.get().status().IsUnavailable());
  EXPECT_EQ(service.stats().shed, 2u);
  EXPECT_EQ(service.queue_depth(), 3u);

  // Shutdown cancels what never ran.
  service.Shutdown();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(responses[i].future.get().status().IsCancelled());
  }
  EXPECT_EQ(service.stats().cancelled, 3u);
}

TEST(ExplanationService, CancelRemovesQueuedRequest) {
  Fixture f = MakeFixture(53);
  ServiceOptions options;
  options.num_workers = 0;
  ExplanationService service(options);

  Response response = service.Submit(MakeJob(f, 0.5));
  EXPECT_TRUE(service.Cancel(response.id));
  EXPECT_TRUE(response.future.get().status().IsCancelled());
  EXPECT_FALSE(service.Cancel(response.id));
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(ExplanationService, RejectsInvalidRequestsUpFront) {
  // A job without a run is rejected before it takes queue space. (Requests
  // with a bad problem never become jobs: Dataset::ExplainAsync resolves
  // them first; see DatasetExplainAsync.ExpiredDeadlineAndInvalidRequests.)
  ExplanationService service;
  Job no_run;
  Response r = service.Submit(std::move(no_run));
  EXPECT_TRUE(r.future.get().status().IsInvalidArgument());
  EXPECT_EQ(service.stats().submitted, 0u);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(ExplanationService, RunErrorsReachTheFutureAndCountAsFailed) {
  ServiceOptions options;
  options.num_workers = 1;
  ExplanationService service(options);
  Job job;
  job.run = []() -> Result<Explanation> {
    return Status::InvalidArgument("engine said no");
  };
  Response r = service.Submit(std::move(job));
  Result<Explanation> result = r.future.get();
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_EQ(result.status().message(), "engine said no");
  EXPECT_EQ(service.stats().submitted, 1u);
  EXPECT_EQ(service.stats().completed, 0u);
  EXPECT_EQ(service.stats().failed, 1u);
}

}  // namespace
}  // namespace scorpion
