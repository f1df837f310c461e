// Coordinator/worker differential tests, in-process over loopback.
//
// The load-bearing assertion of the distributed service: an explain routed
// to a worker is BIT-identical to the in-process engine — same predicates,
// same influence doubles — for every algorithm, in exactly one explain
// request on the healthy path, including runs where a worker dies
// mid-request and the explain is re-sent to a survivor. Also the wire
// codecs of the explain op: exact round trips and strict rejection.
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/serialization.h"
#include "common/failpoint.h"
#include "core/scorpion.h"
#include "distributed/coordinator.h"
#include "distributed/worker.h"
#include "eval/experiment.h"
#include "query/groupby.h"
#include "storage/live_table.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

// 10 groups x 1200 rows = 12000 rows = 3 blocks of 4096.
constexpr int kTuplesPerGroup = 1200;

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
  Instance inst{std::move(*dataset), std::move(*qr), std::move(*problem)};
  return inst;
}

ScorpionOptions EngineOptions(Algorithm algorithm) {
  ScorpionOptions options;
  options.algorithm = algorithm;
  // NAIVE determinism: a budget it never exhausts plus an interval that
  // suppresses wall-clock checkpoints, so two runs sweep identically. The
  // coarse split count keeps the exhaustive sweep test-sized.
  options.naive.time_budget_seconds = 300.0;
  options.naive.max_clauses = 2;
  options.naive.num_continuous_splits = 6;
  options.naive.checkpoint_interval_seconds = 1e9;
  return options;
}

std::vector<std::unique_ptr<Worker>> StartWorkers(
    int n, WorkerOptions options = {}) {
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < n; ++i) {
    auto worker = Worker::Start("127.0.0.1", 0, options);
    SCORPION_CHECK(worker.ok(), "worker start failed");
    workers.push_back(std::move(*worker));
  }
  return workers;
}

std::vector<std::string> Endpoints(
    const std::vector<std::unique_ptr<Worker>>& workers) {
  std::vector<std::string> endpoints;
  for (const auto& w : workers) {
    endpoints.push_back("127.0.0.1:" + std::to_string(w->port()));
  }
  return endpoints;
}

void ExpectBitIdentical(const Explanation& remote, const Explanation& local) {
  ASSERT_EQ(remote.predicates.size(), local.predicates.size());
  for (size_t i = 0; i < remote.predicates.size(); ++i) {
    EXPECT_EQ(remote.predicates[i].pred.ToString(),
              local.predicates[i].pred.ToString())
        << "predicate " << i << " diverged";
    // Exact double equality on purpose: the worker runs the same engine
    // over the same bytes, and the wire carries influences bit-exactly.
    EXPECT_EQ(remote.predicates[i].influence, local.predicates[i].influence)
        << "influence " << i << " diverged";
  }
}

class DistributedExplain : public ::testing::TestWithParam<Algorithm> {};

TEST_P(DistributedExplain, BitIdenticalToLocal) {
  const Instance inst = MakeInstance();
  const ScorpionOptions options = EngineOptions(GetParam());

  Scorpion local_engine(options);
  auto local = local_engine.Explain(inst.dataset.table, inst.qr,
                                    inst.problem);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  auto workers = StartWorkers(2);
  auto coordinator = Coordinator::Connect(Endpoints(workers));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  ASSERT_TRUE(
      (*coordinator)->Publish(inst.dataset.table, inst.qr, inst.problem).ok());
  auto remote = (*coordinator)->Explain(options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  ExpectBitIdentical(*remote, *local);
  EXPECT_EQ(remote->algorithm, local->algorithm);
  EXPECT_EQ(remote->naive_exhausted, local->naive_exhausted);
  EXPECT_EQ(remote->naive_checkpoints.size(), local->naive_checkpoints.size());
  // The whole explain went over the wire as one request — no
  // per-predicate traffic — and the worker, not the local engine, ran it.
  const CoordinatorStats stats = (*coordinator)->stats();
  EXPECT_EQ(stats.explain_requests, 1u);
  EXPECT_GT(stats.bytes_on_wire, 0u);
  EXPECT_EQ(stats.workers_lost, 0u);
  EXPECT_EQ(stats.explains_redispatched, 0u);
  EXPECT_EQ(stats.local_fallbacks, 0u);
  EXPECT_EQ((*coordinator)->num_live_workers(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DistributedExplain,
                         ::testing::Values(Algorithm::kDT, Algorithm::kMC,
                                           Algorithm::kNaive),
                         [](const auto& info) {
                           return AlgorithmToString(info.param);
                         });

TEST(DistributedFaults, WorkerDeathTriggersRedispatch) {
  const Instance inst = MakeInstance();
  const ScorpionOptions options = EngineOptions(Algorithm::kDT);

  Scorpion local_engine(options);
  auto local = local_engine.Explain(inst.dataset.table, inst.qr,
                                    inst.problem);
  ASSERT_TRUE(local.ok());

  // Whichever worker receives the first explain drops every connection
  // without responding — a crash as the coordinator sees it. The
  // failpoint's once trigger guarantees exactly one of the two dies.
  auto workers = StartWorkers(2);

  CoordinatorOptions coordinator_options;
  coordinator_options.backoff.base_seconds = 0.001;
  coordinator_options.backoff.max_seconds = 0.005;
  auto coordinator =
      Coordinator::Connect(Endpoints(workers), std::move(coordinator_options));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  ASSERT_TRUE(
      (*coordinator)->Publish(inst.dataset.table, inst.qr, inst.problem).ok());

  failpoints::ScopedFailpoint crash_once("worker.explain",
                                         failpoints::Config::CrashOnce());
  auto remote = (*coordinator)->Explain(options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ExpectBitIdentical(*remote, *local);

  const CoordinatorStats stats = (*coordinator)->stats();
  EXPECT_EQ(stats.workers_lost, 1u);
  EXPECT_EQ(stats.explain_requests, 2u);
  EXPECT_EQ(stats.explains_redispatched, 1u);
  // The survivor served the re-sent explain; nothing fell back to the
  // local engine.
  EXPECT_EQ(stats.local_fallbacks, 0u);
  EXPECT_EQ((*coordinator)->num_live_workers(), 1u);
}

TEST(DistributedFaults, AllWorkersDeadFallsBackLocally) {
  const Instance inst = MakeInstance();
  const ScorpionOptions options = EngineOptions(Algorithm::kDT);

  Scorpion local_engine(options);
  auto local = local_engine.Explain(inst.dataset.table, inst.qr,
                                    inst.problem);
  ASSERT_TRUE(local.ok());

  auto workers = StartWorkers(1);

  CoordinatorOptions coordinator_options;
  coordinator_options.backoff.base_seconds = 0.001;
  coordinator_options.backoff.max_seconds = 0.005;
  coordinator_options.max_attempts = 2;
  auto coordinator =
      Coordinator::Connect(Endpoints(workers), std::move(coordinator_options));
  ASSERT_TRUE(coordinator.ok());
  ASSERT_TRUE(
      (*coordinator)->Publish(inst.dataset.table, inst.qr, inst.problem).ok());

  failpoints::ScopedFailpoint crash_once("worker.explain",
                                         failpoints::Config::CrashOnce());
  auto remote = (*coordinator)->Explain(options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ExpectBitIdentical(*remote, *local);

  const CoordinatorStats stats = (*coordinator)->stats();
  EXPECT_EQ(stats.workers_lost, 1u);
  EXPECT_EQ(stats.local_fallbacks, 1u);
  EXPECT_EQ((*coordinator)->num_live_workers(), 0u);
}

TEST(DistributedFaults, NoLocalFallbackSurfacesUnavailable) {
  const Instance inst = MakeInstance();
  auto workers = StartWorkers(1);

  CoordinatorOptions coordinator_options;
  coordinator_options.backoff.base_seconds = 0.001;
  coordinator_options.backoff.max_seconds = 0.005;
  coordinator_options.max_attempts = 2;
  coordinator_options.allow_local_fallback = false;
  auto coordinator =
      Coordinator::Connect(Endpoints(workers), std::move(coordinator_options));
  ASSERT_TRUE(coordinator.ok());
  ASSERT_TRUE(
      (*coordinator)->Publish(inst.dataset.table, inst.qr, inst.problem).ok());

  failpoints::ScopedFailpoint crash_once("worker.explain",
                                         failpoints::Config::CrashOnce());
  auto remote = (*coordinator)->Explain(EngineOptions(Algorithm::kDT));
  ASSERT_FALSE(remote.ok());
  EXPECT_TRUE(remote.status().IsUnavailable()) << remote.status().ToString();
  EXPECT_EQ((*coordinator)->stats().local_fallbacks, 0u);
}

TEST(DistributedFaults, CrashedWorkerIsReadmittedByReprobe) {
  const Instance inst = MakeInstance();
  const ScorpionOptions options = EngineOptions(Algorithm::kDT);

  Scorpion local_engine(options);
  auto local = local_engine.Explain(inst.dataset.table, inst.qr,
                                    inst.problem);
  ASSERT_TRUE(local.ok());

  auto workers = StartWorkers(2);
  CoordinatorOptions coordinator_options;
  // Fast heartbeat + tiny backoff so the re-probe loop readmits within the
  // poll budget below; jitter stays on to exercise the real delay path.
  coordinator_options.heartbeat_interval_seconds = 0.05;
  coordinator_options.backoff.base_seconds = 0.005;
  coordinator_options.backoff.max_seconds = 0.05;
  auto coordinator =
      Coordinator::Connect(Endpoints(workers), std::move(coordinator_options));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  ASSERT_TRUE(
      (*coordinator)->Publish(inst.dataset.table, inst.qr, inst.problem).ok());

  {
    failpoints::ScopedFailpoint crash_once("worker.explain",
                                           failpoints::Config::CrashOnce());
    auto remote = (*coordinator)->Explain(options);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ExpectBitIdentical(*remote, *local);
  }
  ASSERT_GE((*coordinator)->stats().workers_lost, 1u);

  // Restart the crashed worker on its old port (SO_REUSEADDR): the
  // heartbeat thread's re-probe must readmit it — ping, then re-publish the
  // catalog from the coordinator's fingerprint-keyed copy — with no manual
  // re-Publish here.
  const size_t dead = workers[0]->stopped() ? 0 : 1;
  ASSERT_TRUE(workers[dead]->stopped());
  const int dead_port = workers[dead]->port();
  workers[dead]->Stop();
  workers[dead].reset();
  auto revived = Worker::Start("127.0.0.1", dead_port);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  workers[dead] = std::move(*revived);

  for (int i = 0; i < 1000 && (*coordinator)->num_live_workers() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ((*coordinator)->num_live_workers(), 2u);
  EXPECT_GE((*coordinator)->stats().workers_recovered, 1u);

  // The first explain went to worker 0, so worker 0 crashed; explains go
  // to the first live worker, so the readmitted one serves the next
  // explain, bit-identically, without a retry.
  ASSERT_EQ(dead, 0u);
  const CoordinatorStats before = (*coordinator)->stats();
  auto remote2 = (*coordinator)->Explain(options);
  ASSERT_TRUE(remote2.ok()) << remote2.status().ToString();
  ExpectBitIdentical(*remote2, *local);
  const CoordinatorStats after = (*coordinator)->stats();
  EXPECT_EQ(after.explain_requests, before.explain_requests + 1);
  EXPECT_EQ(after.workers_lost, before.workers_lost);
  EXPECT_EQ(after.local_fallbacks, 0u);
}

TEST(DistributedService, StatsFlowIntoServiceSink) {
  const Instance inst = MakeInstance();
  auto workers = StartWorkers(2);
  ServiceStats sink;
  CoordinatorOptions coordinator_options;
  coordinator_options.service_stats = &sink;
  auto coordinator =
      Coordinator::Connect(Endpoints(workers), std::move(coordinator_options));
  ASSERT_TRUE(coordinator.ok());
  ASSERT_TRUE(
      (*coordinator)->Publish(inst.dataset.table, inst.qr, inst.problem).ok());
  auto remote = (*coordinator)->Explain(EngineOptions(Algorithm::kDT));
  ASSERT_TRUE(remote.ok());
  const ServiceStatsSnapshot snapshot = sink.Snapshot(/*queue_depth=*/0);
  EXPECT_GT(snapshot.bytes_on_wire, 0u);
  EXPECT_EQ(snapshot.workers_lost, 0u);
  EXPECT_EQ(snapshot.explains_redispatched, 0u);
}

TEST(DistributedService, ExplainBeforePublishFails) {
  auto workers = StartWorkers(1);
  auto coordinator = Coordinator::Connect(Endpoints(workers));
  ASSERT_TRUE(coordinator.ok());
  auto explanation = (*coordinator)->Explain(EngineOptions(Algorithm::kDT));
  EXPECT_FALSE(explanation.ok());
  EXPECT_TRUE(explanation.status().IsFailedPrecondition())
      << explanation.status().ToString();
  EXPECT_EQ((*coordinator)->stats().explain_requests, 0u);
}

TEST(DistributedService, ConnectFailsOnDeadEndpoint) {
  auto workers = StartWorkers(1);
  std::vector<std::string> endpoints = Endpoints(workers);
  // A listener that immediately stops: the port is (almost certainly)
  // unreachable by the time the coordinator dials it.
  {
    auto doomed = StartWorkers(1);
    endpoints.push_back("127.0.0.1:" + std::to_string(doomed[0]->port()));
    doomed[0]->Stop();
  }
  CoordinatorOptions options;
  options.connect_timeout_seconds = 1.0;
  auto coordinator = Coordinator::Connect(endpoints, std::move(options));
  EXPECT_FALSE(coordinator.ok());
}

TEST(DistributedProtocol, RemoteErrorsReconstructTheStatus) {
  auto workers = StartWorkers(1);
  auto conn = Conn::Dial("127.0.0.1", workers[0]->port(), 5.0);
  ASSERT_TRUE(conn.ok());
  // Unknown op: the worker answers with an error envelope the client turns
  // back into a Status of the original code, message prefixed "remote: ".
  ASSERT_TRUE(
      conn->WriteFrame(EncodeRequest("bogus_op", 7, JsonValue::Object()))
          .ok());
  auto payload = conn->ReadFrame({});
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  auto response = ParseResponse(*payload, 7, WireParseLimits());
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument());
  EXPECT_NE(response.status().ToString().find("remote: "), std::string::npos);
  EXPECT_NE(response.status().ToString().find("bogus_op"), std::string::npos);
}

TEST(DistributedProtocol, SessionFingerprintSeparatesProblems) {
  const Instance inst = MakeInstance();
  const Fingerprint table_fp = inst.dataset.table.fingerprint();
  ProblemSpec other = inst.problem;
  other.lambda += 0.25;
  EXPECT_NE(SessionFingerprint(table_fp, inst.qr.query, inst.problem),
            SessionFingerprint(table_fp, inst.qr.query, other));
}

// --- Explain op codecs (wire v3) -------------------------------------------

// Every field moved off its default, so a field the codec forgot would
// come back default and fail its EXPECT.
ScorpionOptions NonDefaultOptions() {
  ScorpionOptions o;
  o.algorithm = Algorithm::kMC;
  o.top_k = 7;
  o.num_threads = 3;  // stays off the wire
  o.enable_block_pruning = false;
  o.enable_candidate_batching = false;
  o.dt.tau_min = 0.0125;
  o.dt.tau_max = 0.375;
  o.dt.inflection_p = 0.3;
  o.dt.min_partition_size = 21;
  o.dt.max_depth = 9;
  o.dt.num_split_candidates = 5;
  o.dt.max_discrete_split_values = 17;
  o.dt.use_sampling = true;
  o.dt.epsilon = 0.002;
  o.dt.min_sample_size = 99;
  o.dt.seed = 0xFEDCBA9876543210ULL;  // needs all 64 bits
  o.mc.num_continuous_splits = 11;
  o.mc.max_discrete_values = 33;
  o.mc.max_candidates_per_iteration = 777;
  o.mc.max_iterations = 4;
  o.naive.num_continuous_splits = 8;
  o.naive.max_clauses = 3;
  o.naive.max_discrete_set_size = 4;
  o.naive.time_budget_seconds = std::numeric_limits<double>::infinity();
  o.naive.checkpoint_interval_seconds = 0.1;
  o.merger.top_quartile_only = false;
  o.merger.use_cached_tuple_estimate = false;
  o.merger.same_attributes_only = true;
  o.merger.max_expansions_per_seed = 12;
  o.merger.max_candidates_per_step = 34;
  return o;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(DistributedProtocol, ScorpionOptionsRoundTripEveryField) {
  const ScorpionOptions in = NonDefaultOptions();
  // Through text, the way a frame carries it.
  auto parsed = JsonValue::Parse(ScorpionOptionsToJson(in).Dump(),
                                 WireParseLimits());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto out = ScorpionOptionsFromJson(*parsed);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->algorithm, in.algorithm);
  EXPECT_EQ(out->top_k, in.top_k);
  EXPECT_EQ(out->num_threads, ScorpionOptions().num_threads);
  EXPECT_EQ(out->enable_block_pruning, in.enable_block_pruning);
  EXPECT_EQ(out->enable_candidate_batching, in.enable_candidate_batching);
  EXPECT_TRUE(SameBits(out->dt.tau_min, in.dt.tau_min));
  EXPECT_TRUE(SameBits(out->dt.tau_max, in.dt.tau_max));
  EXPECT_TRUE(SameBits(out->dt.inflection_p, in.dt.inflection_p));
  EXPECT_EQ(out->dt.min_partition_size, in.dt.min_partition_size);
  EXPECT_EQ(out->dt.max_depth, in.dt.max_depth);
  EXPECT_EQ(out->dt.num_split_candidates, in.dt.num_split_candidates);
  EXPECT_EQ(out->dt.max_discrete_split_values,
            in.dt.max_discrete_split_values);
  EXPECT_EQ(out->dt.use_sampling, in.dt.use_sampling);
  EXPECT_TRUE(SameBits(out->dt.epsilon, in.dt.epsilon));
  EXPECT_EQ(out->dt.min_sample_size, in.dt.min_sample_size);
  EXPECT_EQ(out->dt.seed, in.dt.seed);
  EXPECT_EQ(out->mc.num_continuous_splits, in.mc.num_continuous_splits);
  EXPECT_EQ(out->mc.max_discrete_values, in.mc.max_discrete_values);
  EXPECT_EQ(out->mc.max_candidates_per_iteration,
            in.mc.max_candidates_per_iteration);
  EXPECT_EQ(out->mc.max_iterations, in.mc.max_iterations);
  EXPECT_EQ(out->naive.num_continuous_splits,
            in.naive.num_continuous_splits);
  EXPECT_EQ(out->naive.max_clauses, in.naive.max_clauses);
  EXPECT_EQ(out->naive.max_discrete_set_size,
            in.naive.max_discrete_set_size);
  EXPECT_TRUE(SameBits(out->naive.time_budget_seconds,
                       in.naive.time_budget_seconds));
  EXPECT_TRUE(SameBits(out->naive.checkpoint_interval_seconds,
                       in.naive.checkpoint_interval_seconds));
  EXPECT_EQ(out->merger.top_quartile_only, in.merger.top_quartile_only);
  EXPECT_EQ(out->merger.use_cached_tuple_estimate,
            in.merger.use_cached_tuple_estimate);
  EXPECT_EQ(out->merger.same_attributes_only, in.merger.same_attributes_only);
  EXPECT_EQ(out->merger.max_expansions_per_seed,
            in.merger.max_expansions_per_seed);
  EXPECT_EQ(out->merger.max_candidates_per_step,
            in.merger.max_candidates_per_step);
}

TEST(DistributedProtocol, ExplanationRoundTripEveryFieldBitExactly) {
  Predicate range_pred;
  ASSERT_TRUE(range_pred.AddRange({"a1", -1.5, 2.25, true}).ok());
  Predicate set_pred;
  ASSERT_TRUE(set_pred.AddSet({"sensorid", {0, 3, 7}}).ok());
  ASSERT_TRUE(set_pred.AddRange({"voltage", 0.1, 0.30000000000000004,
                                 false}).ok());
  double nan_with_payload;
  const uint64_t nan_bits = 0x7FF8000000000123ULL;
  std::memcpy(&nan_with_payload, &nan_bits, sizeof(double));

  Explanation in;
  in.algorithm = Algorithm::kNaive;
  in.naive_exhausted = true;
  const double influences[] = {-std::numeric_limits<double>::infinity(),
                               nan_with_payload, -0.0, 4.9e-324,
                               0.1 + 0.2};
  for (size_t i = 0; i < 5; ++i) {
    ScoredPredicate sp;
    sp.pred = i % 2 == 0 ? range_pred : set_pred;
    sp.influence = influences[i];
    in.predicates.push_back(sp);
  }
  in.naive_checkpoints.push_back({0.5, 1.0 / 3.0, set_pred});
  in.naive_checkpoints.push_back(
      {1.25, std::numeric_limits<double>::infinity(), range_pred});

  auto parsed =
      JsonValue::Parse(ExplanationToJson(in).Dump(), WireParseLimits());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto out = ExplanationFromJson(*parsed);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->algorithm, in.algorithm);
  EXPECT_EQ(out->naive_exhausted, in.naive_exhausted);
  ASSERT_EQ(out->predicates.size(), in.predicates.size());
  for (size_t i = 0; i < in.predicates.size(); ++i) {
    EXPECT_EQ(out->predicates[i].pred, in.predicates[i].pred) << i;
    EXPECT_TRUE(SameBits(out->predicates[i].influence,
                         in.predicates[i].influence))
        << i;
  }
  ASSERT_EQ(out->naive_checkpoints.size(), in.naive_checkpoints.size());
  for (size_t i = 0; i < in.naive_checkpoints.size(); ++i) {
    EXPECT_EQ(out->naive_checkpoints[i].pred, in.naive_checkpoints[i].pred);
    EXPECT_TRUE(SameBits(out->naive_checkpoints[i].elapsed_seconds,
                         in.naive_checkpoints[i].elapsed_seconds));
    EXPECT_TRUE(SameBits(out->naive_checkpoints[i].influence,
                         in.naive_checkpoints[i].influence));
  }
}

// Copy of object `doc` with member `key` replaced by `value`.
JsonValue WithMember(const JsonValue& doc, const std::string& key,
                     const JsonValue& value) {
  JsonValue out = JsonValue::Object();
  for (const auto& [k, v] : doc.members()) out.Add(k, k == key ? value : v);
  return out;
}

const JsonValue& MemberOf(const JsonValue& doc, const std::string& key) {
  for (const auto& [k, v] : doc.members()) {
    if (k == key) return v;
  }
  SCORPION_CHECK(false, ("no member " + key).c_str());
  return doc;
}

TEST(DistributedProtocol, CodecsRejectMalformedDocuments) {
  const JsonValue good = ScorpionOptionsToJson(ScorpionOptions());
  auto decode = [](const JsonValue& doc) {
    return ScorpionOptionsFromJson(doc).status();
  };
  auto nested = [&](const std::string& section, const std::string& key,
                    const JsonValue& value) {
    return WithMember(good, section,
                      WithMember(MemberOf(good, section), key, value));
  };
  ASSERT_TRUE(decode(good).ok());
  JsonValue unknown = good;
  unknown.Add("num_threads", JsonValue::Number(4));
  const std::vector<JsonValue> rejected = {
      unknown,                                                // unknown key
      WithMember(good, "top_k", JsonValue::String("5")),      // wrong type
      WithMember(good, "algorithm", JsonValue::String("XT")),
      WithMember(good, "top_k", JsonValue::Number(-1)),       // negative
      WithMember(good, "top_k", JsonValue::Number(2.5)),
      nested("dt", "max_depth", JsonValue::Number(4294967296.0)),
      nested("naive", "time_budget_seconds", JsonValue::Number(-1.0)),
      nested("dt", "seed", JsonValue::String("-1")),
      nested("mc", "max_iterations", JsonValue::Bool(true)),
  };
  for (size_t i = 0; i < rejected.size(); ++i) {
    EXPECT_TRUE(decode(rejected[i]).IsInvalidArgument()) << "case " << i;
  }

  JsonValue explanation = ExplanationToJson(Explanation());
  explanation.Add("runtime_seconds", JsonValue::Number(1.0));
  EXPECT_TRUE(ExplanationFromJson(explanation).status().IsInvalidArgument());
  JsonValue bad_pred = JsonValue::Object();
  bad_pred.Add("predicate", PredicateToJsonValue(Predicate()));
  bad_pred.Add("influence", JsonValue::Bool(true));
  JsonValue preds = JsonValue::Array();
  preds.Append(std::move(bad_pred));
  EXPECT_TRUE(ExplanationFromJson(WithMember(ExplanationToJson(Explanation()),
                                             "predicates", preds))
                  .status()
                  .IsInvalidArgument());
}

// Sends one raw frame and decodes the reply against `expect_id`.
Result<JsonValue> RawRoundTrip(Conn& conn, const std::string& payload,
                               uint64_t expect_id) {
  SCORPION_RETURN_NOT_OK(conn.WriteFrame(payload));
  SCORPION_ASSIGN_OR_RETURN(std::string reply, conn.ReadFrame({}));
  return ParseResponse(reply, expect_id, WireParseLimits());
}

TEST(DistributedProtocol, WorkerRejectsBadExplainsAndKeepsServing) {
  const Instance inst = MakeInstance();
  auto workers = StartWorkers(1);
  auto coordinator = Coordinator::Connect(Endpoints(workers));
  ASSERT_TRUE(coordinator.ok());
  ASSERT_TRUE(
      (*coordinator)->Publish(inst.dataset.table, inst.qr, inst.problem).ok());
  const std::string session =
      SessionFingerprint(inst.dataset.table.fingerprint(), inst.qr.query,
                         inst.problem)
          .ToHex();

  auto conn = Conn::Dial("127.0.0.1", workers[0]->port(), 5.0);
  ASSERT_TRUE(conn.ok());
  uint64_t id = 1;
  auto explain_with = [&](JsonValue options) {
    JsonValue body = JsonValue::Object();
    body.Add("session_fp", JsonValue::String(session));
    body.Add("options", std::move(options));
    const uint64_t request_id = id++;
    return RawRoundTrip(*conn, EncodeRequest(kOpExplain, request_id,
                                             std::move(body)),
                        request_id);
  };
  auto expect_ping = [&] {
    const uint64_t request_id = id++;
    auto pong = RawRoundTrip(
        *conn, EncodeRequest(kOpPing, request_id, JsonValue::Object()),
        request_id);
    EXPECT_TRUE(pong.ok()) << pong.status().ToString();
  };
  const ScorpionOptions options = EngineOptions(Algorithm::kDT);

  // Unknown key.
  JsonValue unknown = ScorpionOptionsToJson(options);
  unknown.Add("match_threads", JsonValue::Number(2));
  auto r1 = explain_with(std::move(unknown));
  EXPECT_TRUE(r1.status().IsInvalidArgument()) << r1.status().ToString();
  EXPECT_NE(r1.status().ToString().find("match_threads"), std::string::npos);
  expect_ping();

  // Wrong type and negative count.
  for (const JsonValue& bad : {JsonValue::String("5"), JsonValue::Number(-3)}) {
    auto r = explain_with(
        WithMember(ScorpionOptionsToJson(options), "top_k", bad));
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    expect_ping();
  }

  // A v2 envelope: the worker answers with an id-0 error envelope.
  JsonValue v2 = JsonValue::Object();
  v2.Add("scorpion_wire", JsonValue::Number(2));
  v2.Add("op", JsonValue::String(kOpPing));
  v2.Add("id", JsonValue::Number(static_cast<double>(id++)));
  v2.Add("body", JsonValue::Object());
  auto r3 = RawRoundTrip(*conn, v2.Dump(), /*expect_id=*/0);
  EXPECT_TRUE(r3.status().IsInvalidArgument()) << r3.status().ToString();
  EXPECT_NE(r3.status().ToString().find("wire version"), std::string::npos);
  expect_ping();

  // The retired v2 per-predicate op is an unknown op now. (Spelled in two
  // pieces so a search for the old op finds no live use of it.)
  const std::string retired_op = std::string("shard_") + "filter";
  const uint64_t retired_id = id++;
  auto r4 = RawRoundTrip(
      *conn, EncodeRequest(retired_op, retired_id, JsonValue::Object()),
      retired_id);
  EXPECT_TRUE(r4.status().IsInvalidArgument()) << r4.status().ToString();
  EXPECT_NE(r4.status().ToString().find("unknown op"), std::string::npos);
  expect_ping();

  // After every rejection the same connection still serves a real explain.
  auto good = explain_with(ScorpionOptionsToJson(options));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  Scorpion local_engine(options);
  auto local =
      local_engine.Explain(inst.dataset.table, inst.qr, inst.problem);
  ASSERT_TRUE(local.ok());
  auto remote = ExplanationFromJson(MemberOf(*good, "explanation"));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ExpectBitIdentical(*remote, *local);
}

// --- Live tables over the wire (extend_dataset, wire v2) ---------------------

Schema LiveSchema() {
  return Schema({{"time", DataType::kCategorical},
                 {"sensorid", DataType::kCategorical},
                 {"voltage", DataType::kDouble},
                 {"humidity", DataType::kDouble},
                 {"temp", DataType::kDouble}});
}

// Stationary paper-shaped stream (see tests/test_live_table.cc): sensor 3
// runs hot at low voltage outside 11AM, so the ground-truth predicate is
// the same in every generation.
std::vector<Value> LiveRow(size_t i) {
  static const char* kHours[] = {"11AM", "12PM", "1PM"};
  const std::string hour = kHours[(i / 3) % 3];
  const std::string sensor = std::to_string(i % 3 + 1);
  const bool hot = sensor == "3" && hour != "11AM";
  return {hour, sensor, hot ? 2.3 : 2.7, (i % 2 == 0) ? 0.4 : 0.5,
          hot ? (hour == "12PM" ? 100.0 : 80.0)
              : 34.0 + static_cast<double>(i % 3)};
}

GroupByQuery LiveQuery() {
  GroupByQuery q;
  q.aggregate = "AVG";
  q.agg_attr = "temp";
  q.group_by = {"time"};
  return q;
}

TEST(DistributedLive, DeltaPublishBitIdenticalToLocal) {
  // Initial generation spans two blocks so the delta extends sealed state.
  LiveTable live(LiveSchema());
  for (size_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(live.Append(LiveRow(i)).ok());
  }
  auto snap1 = live.Publish();
  ASSERT_TRUE(snap1.ok());
  auto qr1 = ExecuteGroupBy((*snap1)->table, LiveQuery());
  ASSERT_TRUE(qr1.ok());
  auto problem1 = MakeProblem(*qr1, {"12PM", "1PM"}, {"11AM"},
                              /*error_direction=*/1.0, /*lambda=*/0.5,
                              /*c=*/0.5, {"sensorid", "voltage"});
  ASSERT_TRUE(problem1.ok());

  auto workers = StartWorkers(2);
  auto coordinator = Coordinator::Connect(Endpoints(workers));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  ASSERT_TRUE(
      (*coordinator)->Publish((*snap1)->table, *qr1, *problem1).ok());
  const ScorpionOptions options = EngineOptions(Algorithm::kDT);
  auto remote1 = (*coordinator)->Explain(options);
  ASSERT_TRUE(remote1.ok()) << remote1.status().ToString();

  // Grow the table past another block boundary and ship only the delta.
  for (size_t i = 5000; i < 8500; ++i) {
    ASSERT_TRUE(live.Append(LiveRow(i)).ok());
  }
  auto snap2 = live.Publish();
  ASSERT_TRUE(snap2.ok());
  auto qr2 = ExtendQueryResult(*qr1, (*snap2)->table);
  ASSERT_TRUE(qr2.ok());
  auto problem2 = MakeProblem(*qr2, {"12PM", "1PM"}, {"11AM"}, 1.0, 0.5, 0.5,
                              {"sensorid", "voltage"});
  ASSERT_TRUE(problem2.ok());

  Status delta_status =
      (*coordinator)->PublishDelta((*snap2)->table, *qr2, *problem2);
  ASSERT_TRUE(delta_status.ok()) << delta_status.ToString();
  EXPECT_EQ((*coordinator)->num_live_workers(), 2u);

  auto remote2 = (*coordinator)->Explain(options);
  ASSERT_TRUE(remote2.ok()) << remote2.status().ToString();

  Scorpion local_engine(options);
  auto local2 = local_engine.Explain((*snap2)->table, *qr2, *problem2);
  ASSERT_TRUE(local2.ok()) << local2.status().ToString();
  ExpectBitIdentical(*remote2, *local2);
  // Both generations were served remotely, one request each.
  EXPECT_EQ((*coordinator)->stats().explain_requests, 2u);
  EXPECT_EQ((*coordinator)->stats().local_fallbacks, 0u);
}

TEST(DistributedLive, DeltaBeforePublishFailsPrecondition) {
  LiveTable live(LiveSchema());
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(live.Append(LiveRow(i)).ok());
  }
  auto snap = live.Publish();
  ASSERT_TRUE(snap.ok());
  auto qr = ExecuteGroupBy((*snap)->table, LiveQuery());
  ASSERT_TRUE(qr.ok());
  auto problem = MakeProblem(*qr, {"12PM", "1PM"}, {"11AM"}, 1.0, 0.5, 0.5,
                             {"sensorid", "voltage"});
  ASSERT_TRUE(problem.ok());

  auto workers = StartWorkers(1);
  auto coordinator = Coordinator::Connect(Endpoints(workers));
  ASSERT_TRUE(coordinator.ok());
  Status status = (*coordinator)->PublishDelta((*snap)->table, *qr, *problem);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
}

}  // namespace
}  // namespace scorpion
