// Chaos soak: replay distributed explains under deterministic seeded fault
// schedules (common/failpoint.h) and assert the only possible outcomes are
// (a) a result bit-identical to the fault-free in-process engine, or (b) a
// clean error Status. Never a crash, never a hang, never a silently
// diverging answer — the distributed layer's robustness contract.
//
// Schedules stay away from the `crash` action on every site except
// worker.explain: that is the one site whose crash is an in-process
// simulation (the worker halts itself); anywhere else `crash` means
// CrashNow(), which exits the process for real (exercised by
// tests/chaos_loopback.py instead).
//
// A replay is short: with arming after Connect(), the frames up to the
// explain are publish/prepare to each worker (8 frames counting both
// directions) and then the explain request and response (frames 9 and
// 10), plus whatever the 50 ms heartbeat interleaves. Every trigger below
// is sized to fire within that budget, and each replay asserts that its
// schedule tripped at least once.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/scorpion.h"
#include "distributed/coordinator.h"
#include "distributed/worker.h"
#include "eval/experiment.h"
#include "query/groupby.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

// 10 groups x 800 rows = 8000 rows = 2 blocks: each chaos replay stays fast.
constexpr int kTuplesPerGroup = 800;

struct Instance {
  SynthDataset dataset;
  QueryResult qr;
  ProblemSpec problem;
};

Instance MakeInstance() {
  SynthOptions synth;
  synth.dims = 2;
  synth.tuples_per_group = kTuplesPerGroup;
  auto dataset = GenerateSynth(synth);
  SCORPION_CHECK(dataset.ok(), "synth generation failed");
  auto qr = ExecuteGroupBy(dataset->table, dataset->query);
  SCORPION_CHECK(qr.ok(), "group-by failed");
  auto problem =
      MakeProblem(*qr, dataset->outlier_keys, dataset->holdout_keys,
                  /*error_direction=*/1.0, /*lambda=*/0.5, /*c=*/0.5,
                  dataset->attributes);
  SCORPION_CHECK(problem.ok(), "problem construction failed");
  return Instance{std::move(*dataset), std::move(*qr), std::move(*problem)};
}

ScorpionOptions EngineOptions(Algorithm algorithm) {
  ScorpionOptions options;
  options.algorithm = algorithm;
  options.naive.time_budget_seconds = 300.0;
  options.naive.max_clauses = 2;
  options.naive.num_continuous_splits = 6;
  options.naive.checkpoint_interval_seconds = 1e9;
  return options;
}

void ExpectBitIdentical(const Explanation& remote, const Explanation& local,
                        const std::string& schedule) {
  ASSERT_EQ(remote.predicates.size(), local.predicates.size())
      << "schedule: " << schedule;
  for (size_t i = 0; i < remote.predicates.size(); ++i) {
    EXPECT_EQ(remote.predicates[i].pred.ToString(),
              local.predicates[i].pred.ToString())
        << "schedule: " << schedule << " predicate " << i;
    EXPECT_EQ(remote.predicates[i].influence, local.predicates[i].influence)
        << "schedule: " << schedule << " influence " << i;
  }
}

// One replay: fresh workers, fresh coordinator, arm the schedule, explain.
// Returns whether the run produced a (verified) result, so callers can
// assert the suite is not vacuously passing on clean failures alone.
bool RunSchedule(const std::string& schedule, Algorithm algorithm,
                 const Instance& inst, const Explanation& reference) {
  SCOPED_TRACE("schedule: " + schedule);
  // Workers/coordinator are created BEFORE arming so connection setup is
  // not perturbed — the schedules target the serving path.
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < 2; ++i) {
    auto worker = Worker::Start("127.0.0.1", 0);
    SCORPION_CHECK(worker.ok(), "worker start failed");
    workers.push_back(std::move(*worker));
  }
  std::vector<std::string> endpoints;
  for (const auto& w : workers) {
    endpoints.push_back("127.0.0.1:" + std::to_string(w->port()));
  }
  CoordinatorOptions options;
  options.request_timeout_seconds = 5.0;
  options.backoff.base_seconds = 0.002;
  options.backoff.max_seconds = 0.02;
  options.heartbeat_interval_seconds = 0.05;  // the re-probe loop runs too
  options.dispatch_deadline_seconds = 10.0;
  auto coordinator = Coordinator::Connect(endpoints, std::move(options));
  SCORPION_CHECK(coordinator.ok(), "connect failed");

  // Disarms on every exit path: a schedule must never leak into the next.
  struct DisarmGuard {
    ~DisarmGuard() { failpoints::DisarmAll(); }
  } guard;
  // TotalTripped() only grows, so its growth over this replay counts the
  // schedule's fires — checked on every exit path too.
  const uint64_t tripped_before = failpoints::TotalTripped();
  struct TripCheck {
    uint64_t before;
    ~TripCheck() {
      EXPECT_GT(failpoints::TotalTripped(), before)
          << "schedule never fired";
    }
  } trip_check{tripped_before};
  SCORPION_CHECK(failpoints::ArmFromSpec(schedule).ok(),
                 ("bad schedule: " + schedule).c_str());

  Status published =
      (*coordinator)->Publish(inst.dataset.table, inst.qr, inst.problem);
  if (!published.ok()) {
    // A clean, attributable failure: acceptable under injection.
    EXPECT_FALSE(published.ToString().empty());
    return false;
  }
  auto remote = (*coordinator)->Explain(EngineOptions(algorithm));
  if (!remote.ok()) {
    EXPECT_FALSE(remote.status().ToString().empty());
    return false;
  }
  ExpectBitIdentical(*remote, reference, schedule);
  return true;
}

class ChaosSoak : public ::testing::Test {
 protected:
  void TearDown() override { failpoints::DisarmAll(); }
};

// The DT pool: every wire and control-plane site, each under a different
// deterministic trigger. Seeds are part of the spec, so a failing schedule
// reproduces with a one-line env var:
//   SCORPION_FAILPOINTS='<schedule>' ./test_chaos
const char* const kDtSchedules[] = {
    // Worker crash mid-explain (in-process simulation) + flaky reads.
    "worker.explain=once:crash;net.read_frame=prob(0.02,11):error(io)",
    // A failed first attempt: the explain is re-sent to the next worker.
    "coordinator.dispatch=once:error(unavailable)",
    // A corrupted frame around the explain request: a garbage envelope
    // marks a worker lost.
    "net.write_frame=every(9):corrupt",
    // A truncated send around the explain response: the connection dies
    // mid-frame.
    "net.write_frame=every(10):truncate",
    // Slow wire: deadline pressure without failures.
    "net.read_frame=every(3):sleep(0.005)",
    // Publish-path faults: the run either never starts or is unharmed.
    "worker.publish_dataset=once:error(io);"
    "worker.prepare_problem=prob(0.5,5):error(unavailable)",
    // Several at once, probabilistically, with a remote error on the first
    // explain so the retry path always runs.
    "net.read_frame=prob(0.05,21):error(io);"
    "net.write_frame=prob(0.05,22):corrupt;"
    "worker.explain=once:error(internal)",
    // Every attempt fails before it is sent: the explain falls back to the
    // local engine.
    "coordinator.dispatch=always:error(unavailable)",
};

TEST_F(ChaosSoak, DtSchedulesConvergeOrFailCleanly) {
  const Instance inst = MakeInstance();
  Scorpion engine(EngineOptions(Algorithm::kDT));
  auto reference = engine.Explain(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(reference.ok());

  int verified = 0;
  for (const char* schedule : kDtSchedules) {
    verified += RunSchedule(schedule, Algorithm::kDT, inst, *reference);
  }
  // The soak must not pass vacuously: most schedules are survivable, so
  // most replays must end in a verified bit-identical result...
  EXPECT_GE(verified, 4) << "too many clean failures — schedules too harsh "
                            "to exercise the recovery paths";
  // ...and the schedules really fired.
  EXPECT_GT(failpoints::TotalTripped(), 0u);
}

TEST_F(ChaosSoak, McSurvivesWireFaults) {
  const Instance inst = MakeInstance();
  Scorpion engine(EngineOptions(Algorithm::kMC));
  auto reference = engine.Explain(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(reference.ok());
  RunSchedule(
      "net.write_frame=every(9):corrupt;"
      "worker.explain=once:crash",
      Algorithm::kMC, inst, *reference);
}

TEST_F(ChaosSoak, NaiveSurvivesWireFaults) {
  const Instance inst = MakeInstance();
  Scorpion engine(EngineOptions(Algorithm::kNaive));
  auto reference = engine.Explain(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(reference.ok());
  RunSchedule("net.read_frame=every(7):error(io)", Algorithm::kNaive, inst,
              *reference);
}

}  // namespace
}  // namespace scorpion
