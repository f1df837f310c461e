// Distributed explain vs the in-process engine: runtime, wire traffic, and
// a hard differential check that every ranked predicate and influence of
// the distributed answer is bit-identical to the local one, for DT, MC and
// NAIVE. A worker runs the same engine over the same bytes, so the remote
// cost is the local cost plus one explain round trip. Workers run
// in-process on loopback, so the numbers measure protocol + serialization
// overhead, not datacenter RTTs.
//
// Usage: bench_distributed_scatter [--tiny] [--json <path>]
//   --tiny         CI smoke configuration (one small instance, 2 workers).
//   --json <path>  Also write the measurements as JSON (the CI
//                  perf-trajectory artifact, BENCH_distributed.json), one
//                  entry per algorithm under "cases".
//
// Exits 1 unless every case's output matches the local engine.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/timer.h"
#include "core/scorpion.h"
#include "distributed/coordinator.h"
#include "distributed/worker.h"
#include "eval/experiment.h"
#include "query/groupby.h"
#include "workload/synth.h"

using namespace scorpion;

template <typename T>
Status AsStatus(const Result<T>& r) {
  return r.status();
}
inline Status AsStatus(const Status& s) { return s; }

#define BENCH_CHECK_OK(expr)                                         \
  do {                                                               \
    const auto& _res = (expr);                                       \
    if (!_res.ok()) {                                                \
      std::fprintf(stderr, "FATAL %s: %s\n", #expr,                  \
                   AsStatus(_res).ToString().c_str());               \
      return 1;                                                      \
    }                                                                \
  } while (false)

int main(int argc, char** argv) {
  bool tiny = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  SynthOptions synth;
  synth.dims = 2;
  synth.tuples_per_group = tiny ? 1200 : 20000;
  auto dataset = GenerateSynth(synth);
  BENCH_CHECK_OK(dataset);
  auto qr = ExecuteGroupBy(dataset->table, dataset->query);
  BENCH_CHECK_OK(qr);
  auto problem = MakeProblem(*qr, dataset->outlier_keys,
                             dataset->holdout_keys, /*error_direction=*/1.0,
                             /*lambda=*/0.5, /*c=*/0.5, dataset->attributes);
  BENCH_CHECK_OK(problem);

  std::printf("=== distributed explain (%s, %zu rows) ===\n",
              tiny ? "tiny/CI config" : "full config",
              dataset->table.num_rows());

  const int num_workers = 2;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::string> endpoints;
  for (int i = 0; i < num_workers; ++i) {
    auto worker = Worker::Start("127.0.0.1", 0);
    BENCH_CHECK_OK(worker);
    endpoints.push_back("127.0.0.1:" + std::to_string((*worker)->port()));
    workers.push_back(std::move(*worker));
  }

  CoordinatorOptions coordinator_options;
  // One round trip carries a whole explain; the full config's NAIVE sweep
  // runs well past the default 30 s request deadline.
  coordinator_options.request_timeout_seconds = 3600.0;
  auto coordinator =
      Coordinator::Connect(endpoints, std::move(coordinator_options));
  BENCH_CHECK_OK(coordinator);
  WallTimer publish_timer;
  BENCH_CHECK_OK((*coordinator)->Publish(dataset->table, *qr, *problem));
  const double publish_seconds = publish_timer.ElapsedSeconds();
  std::printf("publish  %.3fs\n", publish_seconds);

  JsonValue cases = JsonValue::Array();
  bool all_match = true;
  for (Algorithm algorithm :
       {Algorithm::kDT, Algorithm::kMC, Algorithm::kNaive}) {
    ScorpionOptions options;
    options.algorithm = algorithm;
    // NAIVE: a coarse grid keeps the exhaustive sweep bench-sized, and a
    // budget it never exhausts plus an interval that suppresses wall-clock
    // checkpoints make two runs sweep identically.
    options.naive.num_continuous_splits = 6;
    options.naive.time_budget_seconds = 300.0;
    options.naive.checkpoint_interval_seconds = 1e9;

    WallTimer local_timer;
    auto local = Scorpion(options).Explain(dataset->table, *qr, *problem);
    BENCH_CHECK_OK(local);
    const double local_seconds = local_timer.ElapsedSeconds();

    const CoordinatorStats before = (*coordinator)->stats();
    WallTimer remote_timer;
    auto remote = (*coordinator)->Explain(options);
    BENCH_CHECK_OK(remote);
    const double remote_seconds = remote_timer.ElapsedSeconds();
    const CoordinatorStats after = (*coordinator)->stats();
    const uint64_t requests = after.explain_requests - before.explain_requests;
    const uint64_t bytes = after.bytes_on_wire - before.bytes_on_wire;

    bool outputs_match = remote->predicates.size() == local->predicates.size();
    for (size_t i = 0; outputs_match && i < local->predicates.size(); ++i) {
      const ScoredPredicate& r = remote->predicates[i];
      const ScoredPredicate& l = local->predicates[i];
      outputs_match =
          r.pred.ToString() == l.pred.ToString() &&
          std::memcmp(&r.influence, &l.influence, sizeof(double)) == 0;
    }
    all_match = all_match && outputs_match;

    const char* name = AlgorithmToString(algorithm);
    const double ratio = local_seconds > 0 ? remote_seconds / local_seconds
                                           : 0.0;
    std::printf("%-5s local %.3fs  remote %.3fs (%.2fx)  %llu requests, "
                "%llu bytes  %s\n",
                name, local_seconds, remote_seconds, ratio,
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(bytes),
                outputs_match ? "bit-identical" : "DIVERGED");

    JsonValue c = JsonValue::Object();
    c.Add("algorithm", JsonValue::String(name));
    c.Add("local_seconds", JsonValue::Number(local_seconds));
    c.Add("remote_seconds", JsonValue::Number(remote_seconds));
    c.Add("remote_over_local", JsonValue::Number(ratio));
    c.Add("explain_requests",
          JsonValue::Number(static_cast<double>(requests)));
    c.Add("bytes_on_wire", JsonValue::Number(static_cast<double>(bytes)));
    c.Add("predicates",
          JsonValue::Number(static_cast<double>(local->predicates.size())));
    c.Add("outputs_match", JsonValue::Bool(outputs_match));
    cases.Append(std::move(c));
  }

  if (!json_path.empty()) {
    const CoordinatorStats stats = (*coordinator)->stats();
    JsonValue doc = JsonValue::Object();
    doc.Add("bench", JsonValue::String("distributed_scatter"));
    doc.Add("config", JsonValue::String(tiny ? "tiny" : "full"));
    doc.Add("rows",
            JsonValue::Number(static_cast<double>(dataset->table.num_rows())));
    doc.Add("workers", JsonValue::Number(num_workers));
    doc.Add("publish_seconds", JsonValue::Number(publish_seconds));
    doc.Add("workers_lost",
            JsonValue::Number(static_cast<double>(stats.workers_lost)));
    doc.Add("explains_redispatched",
            JsonValue::Number(
                static_cast<double>(stats.explains_redispatched)));
    doc.Add("cases", std::move(cases));
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "FATAL cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", doc.Dump(2).c_str());
    std::fclose(f);
  }

  (*coordinator)->ShutdownWorkers();
  return all_match ? 0 : 1;
}
