// Worker side of the distributed explanation service: a small threaded TCP
// server holding published datasets and answering explain requests. An
// explain names a prepared session (dataset + problem) and carries the
// engine options; the worker runs the unmodified in-process engine over
// the dataset it holds and returns the ranked explanation. The whole
// search runs here — nothing of it crosses the wire — so a worker's answer
// is bit-identical to a local run over the same bytes. All state is keyed
// by content fingerprints, never by process-local addresses, so a
// coordinator can talk to any worker that holds the same data.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "distributed/protocol.h"
#include "net/socket.h"
#include "query/groupby.h"
#include "table/table.h"

namespace scorpion {

struct WorkerOptions {
  FrameLimits frame_limits;
  /// Runs after an in-process crash simulation: when the
  /// `worker.explain` failpoint (common/failpoint.h) fires a `crash`
  /// action, the worker drops every connection and the listener — exactly
  /// what a crashed process looks like to the coordinator — then invokes
  /// this hook (scorpiond installs _exit here so the whole process dies,
  /// exercising the multi-process path too).
  std::function<void()> on_die;
};

/// \brief One worker server; Start() spawns its accept loop.
class Worker {
 public:
  ~Worker();
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Binds host:port (port 0 = ephemeral; see port()) and starts serving.
  static Result<std::unique_ptr<Worker>> Start(const std::string& host,
                                               int port,
                                               WorkerOptions options = {});

  int port() const { return listener_.port(); }

  /// True once a shutdown op or the fault-injection hook stopped the
  /// worker. Poll-able by a host process waiting to exit.
  bool stopped() const;

  /// Stops serving (idempotent) and joins every thread. Called by the
  /// destructor; callers that need the port freed earlier call it directly.
  void Stop();

 private:
  Worker(Listener listener, WorkerOptions options);

  void AcceptLoop();
  void Serve(Conn* conn);
  /// Closes listener + every live connection; what Stop and the fault hook
  /// share. Does not join (the fault hook runs on a serving thread).
  void Halt();

  Result<JsonValue> Handle(const WireRequest& request, bool* shutdown);
  Result<JsonValue> HandlePublishDataset(const JsonValue& body);
  Result<JsonValue> HandleExtendDataset(const JsonValue& body);
  Result<JsonValue> HandlePrepareProblem(const JsonValue& body);
  Result<JsonValue> HandleExplain(const JsonValue& body);

  /// One published (table, query result) pair, keyed by table fingerprint.
  /// unique_ptr keeps addresses stable while the map grows — and lets
  /// extend_dataset re-key a dataset under its new fingerprint without
  /// moving the Table (its derived caches stay seeded).
  struct DatasetState {
    Table table;
    QueryResult result;
    /// Live-table snapshot generation last applied (0 for static publishes);
    /// extend_dataset requests must advance it.
    uint64_t generation = 0;
  };
  /// One prepared problem, keyed by session fingerprint.
  struct SessionState {
    std::string table_fp_hex;
    ProblemSpec problem;
  };

  WorkerOptions options_;
  Listener listener_;
  std::thread accept_thread_;

  mutable Mutex mu_;
  bool halted_ SCORPION_GUARDED_BY(mu_) = false;
  std::map<std::string, std::unique_ptr<DatasetState>> datasets_
      SCORPION_GUARDED_BY(mu_);
  std::map<std::string, SessionState> sessions_ SCORPION_GUARDED_BY(mu_);
  std::vector<Conn*> live_conns_ SCORPION_GUARDED_BY(mu_);
  std::vector<std::thread> conn_threads_ SCORPION_GUARDED_BY(mu_);
};

}  // namespace scorpion
