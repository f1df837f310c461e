// Coordinator side of the distributed explanation service.
//
// The coordinator routes whole explains, not predicates. Publish() ships
// the table, query and problem to every worker; Explain() then sends one
// explain request to a live worker, which runs the unmodified engine over
// the dataset it holds and returns the ranked predicates. The worker never
// sees anything smaller than a request, and the coordinator never runs the
// search unless it has to fall back: the answer is bit-identical to the
// in-process engine because it *is* the in-process engine over the same
// bytes (asserted by test_distributed.cc for DT, MC and NAIVE).
//
// Robustness: each attempt carries a deadline; a worker that fails at the
// transport level is declared lost (once) and the explain is re-sent to the
// next live worker with capped, jittered backoff; an optional heartbeat
// thread probes idle workers and readmits restarted ones. When no worker
// can serve an explain the coordinator can run it locally (it holds the
// published table), so a request degrades instead of failing. All of it is
// observable through CoordinatorStats and the ServiceStats sink.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_counter.h"
#include "common/backoff.h"
#include "common/mutex.h"
#include "common/result.h"
#include "core/scorpion.h"
#include "distributed/protocol.h"
#include "net/socket.h"
#include "service/stats.h"

namespace scorpion {

struct CoordinatorOptions {
  /// Dial timeout per worker during Connect().
  double connect_timeout_seconds = 5.0;
  /// Deadline for one request/response round trip, an explain included
  /// (liveness bound: a worker that cannot answer within this is treated
  /// as lost). Raise it for explains that search longer, e.g. NAIVE with a
  /// large time budget.
  double request_timeout_seconds = 30.0;
  /// Deadline for publish_dataset, which ships the whole table.
  double publish_timeout_seconds = 120.0;
  /// Attempts per explain across workers before giving up on remote
  /// execution for it.
  int max_attempts = 3;
  /// Capped jittered exponential backoff, shared by explain retries and the
  /// heartbeat thread's re-probe of lost workers (which derives a
  /// deterministic per-worker sub-seed).
  BackoffOptions backoff;
  /// Absolute budget for dispatching one explain across all retries and
  /// backoff sleeps; per-attempt request timeouts shrink to whatever
  /// remains. 0 disables (each attempt gets the full request timeout).
  double dispatch_deadline_seconds = 0.0;
  /// Probe interval of the background heartbeat thread; 0 disables it
  /// (liveness is then detected by request deadlines alone). The same
  /// thread re-probes lost workers and readmits them once a fresh
  /// connection answers ping and accepts a re-publication of the
  /// coordinator's published state (circuit-breaker half-open).
  double heartbeat_interval_seconds = 0.0;
  /// When no worker can serve an explain, run it locally instead of
  /// failing with Unavailable. Bit-identical either way.
  bool allow_local_fallback = true;
  FrameLimits frame_limits;
  /// Optional service-level sink mirroring workers_lost /
  /// explains_redispatched / bytes_on_wire. Not owned.
  ServiceStats* service_stats = nullptr;
};

/// Point-in-time counters (see also ServiceStatsSnapshot).
struct CoordinatorStats {
  uint64_t workers_lost = 0;
  uint64_t workers_recovered = 0;
  /// explain requests sent to workers, retries included.
  uint64_t explain_requests = 0;
  /// Attempts after an explain's first (re-sent after a failed attempt).
  uint64_t explains_redispatched = 0;
  /// Explains no worker could serve, run by the local engine instead.
  uint64_t local_fallbacks = 0;
  uint64_t bytes_on_wire = 0;
  /// Process-wide failpoint fires (common/failpoint.h), sampled at stats()
  /// time; 0 in any default build.
  uint64_t failpoints_tripped = 0;
};

/// \brief Request router over a fixed worker set.
class Coordinator {
 public:
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Dials every "host:port" endpoint. Fails unless every endpoint answers
  /// a ping — a misspelled worker list should fail loudly at connect time,
  /// not as mysterious lost-worker counters later.
  static Result<std::unique_ptr<Coordinator>> Connect(
      const std::vector<std::string>& endpoints,
      CoordinatorOptions options = {});

  /// Ships (table, query result, problem) to every live worker and prepares
  /// the shared session. Verifies each worker independently derives the
  /// same table fingerprint, block count and session fingerprint. Keeps
  /// borrowed pointers; all three must outlive the coordinator's last call.
  Status Publish(const Table& table, const QueryResult& result,
                 const ProblemSpec& problem);

  /// Incremental publication for live tables (wire v2). `table` must be a
  /// row-wise extension of the previously Publish()ed table — a newer
  /// LiveTable snapshot generation — and `result`/`problem` its extended
  /// query result and re-validated annotations. Ships only the rows past
  /// the old high-water mark to every live worker (diff-addressed by the
  /// old table fingerprint), re-prepares the problem against the new
  /// fingerprint, and adopts the new (table, result, problem) as the
  /// published state. A worker that cannot apply the delta is marked lost
  /// exactly like a failed Publish. Requires a prior successful Publish.
  Status PublishDelta(const Table& table, const QueryResult& result,
                      const ProblemSpec& problem);

  /// Explains the published problem: sends one explain request to the
  /// first live worker and, on failure, re-sends it to the next live worker
  /// (up to max_attempts, with backoff, within dispatch_deadline_seconds).
  /// When no worker serves it, runs the engine locally if
  /// allow_local_fallback, else returns Unavailable. FailedPrecondition
  /// before Publish(). Thread-safe (explains are serialized internally).
  /// The result carries the ranked predicates, algorithm and NAIVE trace;
  /// runtime_seconds is the coordinator's wall time, and the per-run
  /// scorer counters stay with whichever process ran the search.
  Result<Explanation> Explain(const ScorpionOptions& options);

  size_t num_workers() const;
  size_t num_live_workers() const;
  CoordinatorStats stats() const;

  /// Sends shutdown to every live worker (best effort).
  void ShutdownWorkers();

 private:
  /// One worker endpoint. The per-worker mutex serializes use of the
  /// connection (explains and the heartbeat thread both send on it).
  struct WorkerState {
    std::string host;
    int port = 0;
    mutable Mutex mu;
    Conn conn SCORPION_GUARDED_BY(mu);
    bool alive SCORPION_GUARDED_BY(mu) = true;
    uint64_t next_id SCORPION_GUARDED_BY(mu) = 1;
    /// Re-probe schedule while lost: the heartbeat thread skips this
    /// worker until next_probe, doubling the gap (capped, jittered) on
    /// each failed revival.
    uint64_t reprobe_attempt SCORPION_GUARDED_BY(mu) = 0;
    std::chrono::steady_clock::time_point next_probe SCORPION_GUARDED_BY(mu){};
  };

  Coordinator(std::vector<std::unique_ptr<WorkerState>> workers,
              CoordinatorOptions options);

  /// One request/response round trip on `worker` (locks worker.mu). On any
  /// failure the worker is marked lost and the error returned.
  Result<JsonValue> Call(WorkerState& worker, const std::string& op,
                         JsonValue body, double timeout_seconds);

  /// One explain attempt on `worker` within `timeout_seconds`; the
  /// `coordinator.dispatch` failpoint sits in front of it.
  Result<Explanation> ExplainOnWorker(WorkerState& worker,
                                      const ScorpionOptions& options,
                                      double timeout_seconds)
      SCORPION_REQUIRES(scatter_mu_);

  /// Half-open readmission of a lost worker: dial a fresh connection, ping
  /// it, and re-publish the catalog (published table + query result +
  /// problem, keyed by their fingerprints) on the probe connection. Only
  /// after the full sequence verifies is the connection installed and the
  /// worker marked alive — explains never see a partially re-provisioned
  /// worker. Caller holds scatter_mu_ so the published state is stable.
  Status ReviveWorker(WorkerState& worker) SCORPION_REQUIRES(scatter_mu_);

  /// Publish + prepare the current catalog over a half-open probe
  /// connection (ReviveWorker's second phase), verifying block count and
  /// session fingerprint exactly like Publish() does per live worker.
  Status PublishCatalogOnConn(Conn& conn, uint64_t* next_id)
      SCORPION_REQUIRES(scatter_mu_);

  void HeartbeatLoop();

  const CoordinatorOptions options_;
  std::vector<std::unique_ptr<WorkerState>> workers_;

  // Published problem (borrowed).
  const Table* table_ = nullptr;
  const QueryResult* result_ = nullptr;
  const ProblemSpec* problem_ = nullptr;
  uint64_t num_blocks_ = 0;
  Fingerprint session_;
  /// Fingerprint of the published table; the diff address PublishDelta
  /// extends from.
  Fingerprint table_fp_;

  /// Serializes Explain(), Publish() and PublishDelta() end to end: one
  /// request at a time keeps per-worker queueing trivial and the failure
  /// accounting exact.
  Mutex scatter_mu_;

  RelaxedCounter workers_lost_;
  RelaxedCounter workers_recovered_;
  RelaxedCounter explain_requests_;
  RelaxedCounter explains_redispatched_;
  RelaxedCounter local_fallbacks_;
  RelaxedCounter bytes_on_wire_;

  std::thread heartbeat_thread_;
  Mutex heartbeat_mu_;
  CondVar heartbeat_cv_;
  bool stopping_ SCORPION_GUARDED_BY(heartbeat_mu_) = false;
};

}  // namespace scorpion
