// ExplanationService contract: concurrent Submit from many threads produces
// results byte-identical to direct Scorpion::Explain(), jobs sharing a
// pinned session reuse its cached state, deadlines/shedding/cancellation
// surface the right Status codes, and the scheduler orders by priority +
// deadline.
#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
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

Job MakeJob(const Fixture& f, double c,
            Algorithm algorithm = Algorithm::kDT,
            std::shared_ptr<ExplainSession> session = nullptr) {
  Job job;
  job.table = &f.dataset.table;
  job.query_result = &f.qr;
  job.problem = f.problem;
  job.problem.c = c;  // the one and only c for this job
  job.algorithm = algorithm;
  job.session = std::move(session);
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

TEST(ExplanationService, ConcurrentSubmitsMatchDirectExplainByteForByte) {
  // The acceptance scenario: 8 concurrent clients, ~50 mixed-c requests over
  // 2 problems, each with one session every job over it shares (so TSan
  // races a shared session). Every response must be byte-identical to a
  // direct serial Scorpion::Explain() of the same request, and the repeats
  // must hit the session cache.
  Fixture fixtures[2] = {MakeFixture(17), MakeFixture(29)};
  const std::vector<double> cs = {0.5, 0.3, 0.1};

  // Direct serial baselines, one per (fixture, c).
  Explanation expected[2][3];
  for (int f = 0; f < 2; ++f) {
    for (size_t ci = 0; ci < cs.size(); ++ci) {
      Scorpion engine;  // default options: kDT, num_threads = 1
      ProblemSpec problem = fixtures[f].problem;
      problem.c = cs[ci];
      auto e = engine.Explain(fixtures[f].dataset.table, fixtures[f].qr,
                              problem);
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      expected[f][ci] = std::move(*e);
    }
  }

  ServiceOptions options;
  options.num_workers = 4;
  options.engine.num_threads = 2;  // shared scoring pool, still bit-identical
  ExplanationService service(options);
  std::shared_ptr<ExplainSession> sessions[2] = {
      std::make_shared<ExplainSession>(), std::make_shared<ExplainSession>()};

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 7;  // 56 requests total
  struct Issued {
    int fixture;
    size_t c_index;
    Response response;
  };
  std::vector<std::vector<Issued>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        int f = (t + r) % 2;
        size_t ci = static_cast<size_t>(t + 2 * r) % cs.size();
        Issued issued;
        issued.fixture = f;
        issued.c_index = ci;
        issued.response = service.Submit(
            MakeJob(fixtures[f], cs[ci], Algorithm::kDT, sessions[f]));
        per_client[t].push_back(std::move(issued));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (auto& issued_list : per_client) {
    for (Issued& issued : issued_list) {
      auto result = issued.response.future.get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectSameExplanation(expected[issued.fixture][issued.c_index],
                            *result);
    }
  }

  ServiceStatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.submitted, static_cast<uint64_t>(kClients *
                                                  kRequestsPerClient));
  EXPECT_EQ(snap.completed, snap.submitted);
  EXPECT_EQ(snap.shed, 0u);
  // 56 requests over 6 (problem, c) pairs: the repeats must reuse session
  // state.
  EXPECT_GT(snap.cache_partition_hits + snap.cache_result_hits, 0u);
  EXPECT_GT(snap.p95_latency_seconds, 0.0);
  EXPECT_GE(snap.p95_latency_seconds, snap.p50_latency_seconds);
}

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
    return service.Submit(MakeJob(f, c, Algorithm::kDT, session)).future.get();
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

  Job late = MakeJob(f, 0.5);
  late.deadline = Job::Clock::now() - std::chrono::milliseconds(1);
  Response response = service.Submit(std::move(late));
  EXPECT_TRUE(response.future.get().status().IsDeadlineExceeded());
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
  // The caller's pinned session is the only cache: jobs pinning it reuse
  // its state (api::Dataset pins its own so its sync and async paths share
  // one cache), while a job without a session runs cold every time — the
  // service keeps no cache of its own.
  Fixture f = MakeFixture(79);
  ServiceOptions options;
  options.num_workers = 1;
  ExplanationService service(options);

  auto session = std::make_shared<ExplainSession>();
  auto r1 = service.Submit(MakeJob(f, 0.5, Algorithm::kDT, session))
                .future.get();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_FALSE(r1->cache_partitions_hit);

  auto r2 = service.Submit(MakeJob(f, 0.2, Algorithm::kDT, session))
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

  auto r3 = service.Submit(MakeJob(f, 0.5, Algorithm::kDT, session))
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
  Fixture f = MakeFixture(59);

  ExplanationService service;
  Job no_table;
  Response r1 = service.Submit(std::move(no_table));
  EXPECT_TRUE(r1.future.get().status().IsInvalidArgument());

  Job bad_problem = MakeJob(f, 0.5);
  bad_problem.problem.outliers.push_back(10'000);  // out of range
  Response r2 = service.Submit(std::move(bad_problem));
  EXPECT_TRUE(r2.future.get().status().IsIndexError());
  EXPECT_EQ(service.stats().submitted, 0u);
  EXPECT_EQ(service.stats().failed, 2u);
}

TEST(ExplanationService, ServesNaiveAndMCAlgorithms) {
  Fixture f = MakeFixture(61);
  ServiceOptions options;
  options.num_workers = 2;
  options.engine.naive.num_continuous_splits = 5;
  options.engine.naive.time_budget_seconds = 120.0;
  ExplanationService service(options);

  Response mc = service.Submit(MakeJob(f, 0.5, Algorithm::kMC));
  Response naive = service.Submit(MakeJob(f, 0.5, Algorithm::kNaive));

  for (Algorithm algorithm : {Algorithm::kMC, Algorithm::kNaive}) {
    ScorpionOptions direct_options = options.engine;
    direct_options.algorithm = algorithm;
    Scorpion engine(direct_options);
    ProblemSpec problem = f.problem;
    problem.c = 0.5;
    auto direct = engine.Explain(f.dataset.table, f.qr, problem);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto served = (algorithm == Algorithm::kMC ? mc : naive).future.get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectSameExplanation(*direct, *served);
  }
}

}  // namespace
}  // namespace scorpion
