// scorpiond: the distributed explanation service on the command line.
//
//   scorpiond worker --listen <port> [--host <addr>] [--failpoints SPEC]
//     Serves the wire protocol until a shutdown op arrives. Prints
//     "LISTENING <port>" on stdout once bound (port 0 picks an ephemeral
//     port), which is what examples/run_distributed_loopback.sh and the
//     multi-process ctest scripts wait for, and "FAILPOINTS_TRIPPED <n>"
//     when it exits. --failpoints arms the named fault-injection schedule
//     (common/failpoint.h grammar); the SCORPION_FAILPOINTS env var works
//     too. A `crash` action on `worker.explain` (e.g.
//     `worker.explain=after(N-1):crash`, dying on the N-th explain) _exits
//     the process mid-request, for exercising the coordinator's re-dispatch
//     and re-probe paths end to end.
//
//   scorpiond coordinate --workers <host:port,...> [--algorithm dt|mc|naive]
//             [--tuples-per-group N] [--verify-local] [--shutdown-workers]
//             [--failpoints SPEC]
//     Generates a deterministic SYNTH instance, publishes it to the
//     workers, runs a distributed explain, and prints a JSON summary.
//     --verify-local also runs the in-process engine on the same problem
//     (with every failpoint disarmed) and fails (exit 1) unless every
//     ranked predicate and influence of the distributed answer is
//     bit-identical. Under --failpoints, a run that
//     fails with a clean error Status exits 3 — chaos drivers treat that as
//     a pass (injected faults may legitimately fail the run; only a
//     divergence, crash, or hang is a bug).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/json.h"
#include "core/scorpion.h"
#include "distributed/coordinator.h"
#include "distributed/worker.h"
#include "eval/experiment.h"
#include "query/groupby.h"
#include "workload/synth.h"

namespace {

using namespace scorpion;  // NOLINT(google-build-using-namespace)

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  scorpiond worker --listen <port> [--host <addr>]"
      " [--failpoints SPEC]\n"
      "  scorpiond coordinate --workers <host:port,...>"
      " [--algorithm dt|mc|naive] [--tuples-per-group N]"
      " [--verify-local] [--shutdown-workers] [--failpoints SPEC]"
      " [--chaos]\n");
  return 2;
}

// By value: Result<T>::status() materializes its Status, so a reference
// return would dangle.
template <typename T>
Status AsStatus(const Result<T>& r) {
  return r.status();
}
inline Status AsStatus(const Status& s) { return s; }

#define TOOL_CHECK_OK(expr)                                \
  do {                                                     \
    const auto& _res = (expr);                             \
    if (!_res.ok()) {                                      \
      std::fprintf(stderr, "scorpiond: %s: %s\n", #expr,   \
                   AsStatus(_res).ToString().c_str());     \
      return 1;                                            \
    }                                                      \
  } while (false)

/// Under a chaos schedule an injected fault may cleanly fail the run; the
/// driver distinguishes that (exit 3) from a real bug (divergence, exit 1)
/// and from infrastructure errors (exit 1/2).
#define COORD_CHECK_OK(expr)                               \
  do {                                                     \
    const auto& _res = (expr);                             \
    if (!_res.ok()) {                                      \
      const Status& _st = AsStatus(_res);                  \
      if (chaos) return CleanFailure(#expr, _st);          \
      std::fprintf(stderr, "scorpiond: %s: %s\n", #expr,   \
                   _st.ToString().c_str());                \
      return 1;                                            \
    }                                                      \
  } while (false)

int CleanFailure(const char* where, const Status& status) {
  JsonValue out = JsonValue::Object();
  out.Add("clean_failure", JsonValue::Bool(true));
  out.Add("where", JsonValue::String(where));
  out.Add("status", JsonValue::String(status.ToString()));
  out.Add("failpoints_tripped",
          JsonValue::Number(static_cast<double>(failpoints::TotalTripped())));
  std::printf("%s\n", out.Dump().c_str());
  return 3;
}

void PrintTripped() {
  std::printf("FAILPOINTS_TRIPPED %llu\n",
              static_cast<unsigned long long>(failpoints::TotalTripped()));
  std::fflush(stdout);
}

int RunWorker(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string failpoints_spec;
  int port = -1;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--listen" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--failpoints" && i + 1 < argc) {
      failpoints_spec = argv[++i];
    } else {
      return Usage();
    }
  }
  if (port < 0) return Usage();

  if (!failpoints_spec.empty()) {
    TOOL_CHECK_OK(failpoints::ArmFromSpec(failpoints_spec));
  }
  WorkerOptions options;
  // A real crash: no destructors, the sockets just vanish. Only reached
  // when a crash action fires on worker.explain; the trip count still
  // reaches the chaos harness, which checks that its schedule fired.
  options.on_die = [] {
    PrintTripped();
    std::_Exit(0);
  };
  Result<std::unique_ptr<Worker>> worker =
      Worker::Start(host, port, std::move(options));
  TOOL_CHECK_OK(worker);
  std::printf("LISTENING %d\n", (*worker)->port());
  std::fflush(stdout);
  while (!(*worker)->stopped()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  (*worker)->Stop();
  PrintTripped();
  return 0;
}

std::vector<std::string> SplitEndpoints(const std::string& list) {
  std::vector<std::string> endpoints;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    if (comma > start) endpoints.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return endpoints;
}

/// Empty when every ranked predicate and influence of `remote` equals
/// `local`'s bit for bit; otherwise describes the first difference.
std::string Divergence(const Explanation& remote, const Explanation& local) {
  if (remote.predicates.size() != local.predicates.size()) {
    return "remote ranked " + std::to_string(remote.predicates.size()) +
           " predicates, local " + std::to_string(local.predicates.size());
  }
  for (size_t i = 0; i < remote.predicates.size(); ++i) {
    const ScoredPredicate& r = remote.predicates[i];
    const ScoredPredicate& l = local.predicates[i];
    if (r.pred.ToString() != l.pred.ToString() ||
        std::memcmp(&r.influence, &l.influence, sizeof(double)) != 0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " %.17g vs %.17g", r.influence,
                    l.influence);
      return "rank " + std::to_string(i) + ": remote=" + r.pred.ToString() +
             " local=" + l.pred.ToString() + buf;
    }
  }
  return "";
}

int RunCoordinate(int argc, char** argv) {
  std::string workers_arg;
  std::string failpoints_spec;
  Algorithm algorithm = Algorithm::kDT;
  int tuples_per_group = 2000;
  bool verify_local = false;
  bool shutdown_workers = false;
  bool chaos_run = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers" && i + 1 < argc) {
      workers_arg = argv[++i];
    } else if (arg == "--algorithm" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "dt") {
        algorithm = Algorithm::kDT;
      } else if (name == "mc") {
        algorithm = Algorithm::kMC;
      } else if (name == "naive") {
        algorithm = Algorithm::kNaive;
      } else {
        return Usage();
      }
    } else if (arg == "--tuples-per-group" && i + 1 < argc) {
      tuples_per_group = std::atoi(argv[++i]);
    } else if (arg == "--verify-local") {
      verify_local = true;
    } else if (arg == "--shutdown-workers") {
      shutdown_workers = true;
    } else if (arg == "--failpoints" && i + 1 < argc) {
      failpoints_spec = argv[++i];
    } else if (arg == "--chaos") {
      chaos_run = true;
    } else {
      return Usage();
    }
  }
  if (workers_arg.empty()) return Usage();

  // The same deterministic instance every run, so two invocations (or the
  // local verification below) are comparable. Generated before arming so
  // the instance itself is never perturbed.
  SynthOptions synth;
  synth.dims = 2;
  synth.tuples_per_group = tuples_per_group;
  Result<SynthDataset> dataset = GenerateSynth(synth);
  TOOL_CHECK_OK(dataset);
  Result<QueryResult> qr = ExecuteGroupBy(dataset->table, dataset->query);
  TOOL_CHECK_OK(qr);
  Result<ProblemSpec> problem =
      MakeProblem(*qr, dataset->outlier_keys, dataset->holdout_keys,
                  /*error_direction=*/1.0, /*lambda=*/0.5, /*c=*/0.5,
                  dataset->attributes);
  TOOL_CHECK_OK(problem);

  // --chaos marks a run whose faults live in the *worker* processes (armed
  // via their SCORPION_FAILPOINTS env): clean failures still exit 3 even
  // though this process armed nothing.
  const bool chaos = chaos_run || !failpoints_spec.empty();
  if (!failpoints_spec.empty()) {
    TOOL_CHECK_OK(failpoints::ArmFromSpec(failpoints_spec));
  }

  CoordinatorOptions coordinator_options;
  coordinator_options.heartbeat_interval_seconds = 2.0;
  Result<std::unique_ptr<Coordinator>> coordinator = Coordinator::Connect(
      SplitEndpoints(workers_arg), std::move(coordinator_options));
  COORD_CHECK_OK(coordinator);
  COORD_CHECK_OK(
      (*coordinator)->Publish(dataset->table, *qr, *problem));

  ScorpionOptions engine_options;
  engine_options.algorithm = algorithm;
  // NAIVE's wall-clock checkpoints are nondeterministic; the huge interval
  // disables them so --verify-local can demand bit-identity.
  engine_options.naive.checkpoint_interval_seconds = 1e9;
  Result<Explanation> remote = (*coordinator)->Explain(engine_options);
  COORD_CHECK_OK(remote);

  const CoordinatorStats stats = (*coordinator)->stats();
  JsonValue out = JsonValue::Object();
  out.Add("algorithm", JsonValue::String(AlgorithmToString(algorithm)));
  out.Add("workers", JsonValue::Number(
                         static_cast<double>((*coordinator)->num_workers())));
  out.Add("live_workers",
          JsonValue::Number(
              static_cast<double>((*coordinator)->num_live_workers())));
  out.Add("predicate",
          JsonValue::String(remote->best().pred.ToString(&dataset->table)));
  out.Add("influence", JsonValue::Number(remote->best().influence));
  out.Add("runtime_seconds", JsonValue::Number(remote->runtime_seconds));
  out.Add("explain_requests",
          JsonValue::Number(static_cast<double>(stats.explain_requests)));
  out.Add("bytes_on_wire",
          JsonValue::Number(static_cast<double>(stats.bytes_on_wire)));
  out.Add("workers_lost",
          JsonValue::Number(static_cast<double>(stats.workers_lost)));
  out.Add("workers_recovered",
          JsonValue::Number(static_cast<double>(stats.workers_recovered)));
  out.Add("explains_redispatched",
          JsonValue::Number(static_cast<double>(stats.explains_redispatched)));
  out.Add("local_fallbacks",
          JsonValue::Number(static_cast<double>(stats.local_fallbacks)));
  out.Add("failpoints_tripped",
          JsonValue::Number(static_cast<double>(stats.failpoints_tripped)));

  int exit_code = 0;
  if (verify_local) {
    // The local reference must be fault-free: whatever the schedule armed,
    // the ground truth is the undisturbed engine.
    failpoints::DisarmAll();
    Scorpion engine(engine_options);
    Result<Explanation> local =
        engine.Explain(dataset->table, *qr, *problem);
    TOOL_CHECK_OK(local);
    const std::string divergence = Divergence(*remote, *local);
    out.Add("matches_local", JsonValue::Bool(divergence.empty()));
    if (!divergence.empty()) {
      std::fprintf(stderr, "scorpiond: DIVERGENCE %s\n", divergence.c_str());
      exit_code = 1;
    }
  }
  if (shutdown_workers) (*coordinator)->ShutdownWorkers();

  std::printf("%s\n", out.Dump().c_str());
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode == "worker") return RunWorker(argc - 2, argv + 2);
  if (mode == "coordinate") return RunCoordinate(argc - 2, argv + 2);
  return Usage();
}
