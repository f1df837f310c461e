#include "distributed/coordinator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "api/serialization.h"
#include "common/failpoint.h"
#include "common/macros.h"
#include "common/timer.h"
#include "table/block_stats.h"

namespace scorpion {

namespace {

using SteadyClock = std::chrono::steady_clock;

Result<std::pair<std::string, int>> ParseEndpoint(const std::string& ep) {
  const size_t colon = ep.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == ep.size()) {
    return Status::InvalidArgument("endpoint '" + ep +
                                   "' is not host:port");
  }
  const std::string port_str = ep.substr(colon + 1);
  int port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("endpoint '" + ep + "' has a bad port");
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("endpoint '" + ep +
                                     "' port out of range");
    }
  }
  return std::make_pair(ep.substr(0, colon), port);
}

/// De-correlates the shared BackoffOptions per worker while staying
/// deterministic for a given options seed.
BackoffOptions SubSeed(BackoffOptions options, uint64_t salt) {
  options.seed ^= salt * 0x9E3779B97F4A7C15ULL;
  return options;
}

/// One request/response round trip on a bare connection: no worker
/// bookkeeping, no lost-marking. ReviveWorker probes through this so a
/// half-open worker never touches WorkerState until fully verified.
Result<JsonValue> RoundTrip(Conn& conn, const std::string& op, uint64_t id,
                            JsonValue body, double timeout_seconds,
                            const FrameLimits& limits) {
  SCORPION_RETURN_NOT_OK(conn.SetTimeout(timeout_seconds));
  SCORPION_RETURN_NOT_OK(
      conn.WriteFrame(EncodeRequest(op, id, std::move(body))));
  SCORPION_ASSIGN_OR_RETURN(std::string payload, conn.ReadFrame(limits));
  return ParseResponse(payload, id, WireParseLimits());
}

}  // namespace

Result<std::unique_ptr<Coordinator>> Coordinator::Connect(
    const std::vector<std::string>& endpoints, CoordinatorOptions options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("coordinator needs at least one worker");
  }
  std::vector<std::unique_ptr<WorkerState>> workers;
  workers.reserve(endpoints.size());
  for (const std::string& ep : endpoints) {
    SCORPION_ASSIGN_OR_RETURN(auto host_port, ParseEndpoint(ep));
    SCORPION_ASSIGN_OR_RETURN(
        Conn conn, Conn::Dial(host_port.first, host_port.second,
                              options.connect_timeout_seconds));
    auto worker = std::make_unique<WorkerState>();
    worker->host = host_port.first;
    worker->port = host_port.second;
    {
      MutexLock lock(worker->mu);
      worker->conn = std::move(conn);
    }
    workers.push_back(std::move(worker));
  }
  std::unique_ptr<Coordinator> coordinator(
      new Coordinator(std::move(workers), std::move(options)));
  // Strict connect: every endpoint must answer a ping before we hand the
  // coordinator out, so a dead entry in the worker list fails loudly here.
  for (const std::unique_ptr<WorkerState>& worker : coordinator->workers_) {
    SCORPION_RETURN_NOT_OK(
        coordinator
            ->Call(*worker, kOpPing, JsonValue::Object(),
                   coordinator->options_.request_timeout_seconds)
            .status());
  }
  if (coordinator->options_.heartbeat_interval_seconds > 0.0) {
    coordinator->heartbeat_thread_ =
        std::thread([c = coordinator.get()] { c->HeartbeatLoop(); });
  }
  return coordinator;
}

Coordinator::Coordinator(std::vector<std::unique_ptr<WorkerState>> workers,
                         CoordinatorOptions options)
    : options_(std::move(options)), workers_(std::move(workers)) {}

Coordinator::~Coordinator() {
  {
    MutexLock lock(heartbeat_mu_);
    stopping_ = true;
    heartbeat_cv_.NotifyAll();
  }
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
}

size_t Coordinator::num_workers() const { return workers_.size(); }

size_t Coordinator::num_live_workers() const {
  size_t live = 0;
  for (const std::unique_ptr<WorkerState>& worker : workers_) {
    MutexLock lock(worker->mu);
    if (worker->alive) ++live;
  }
  return live;
}

CoordinatorStats Coordinator::stats() const {
  CoordinatorStats stats;
  stats.workers_lost = workers_lost_.load();
  stats.workers_recovered = workers_recovered_.load();
  stats.explain_requests = explain_requests_.load();
  stats.explains_redispatched = explains_redispatched_.load();
  stats.local_fallbacks = local_fallbacks_.load();
  stats.bytes_on_wire = bytes_on_wire_.load();
  stats.failpoints_tripped = failpoints::TotalTripped();
  return stats;
}

Result<JsonValue> Coordinator::Call(WorkerState& worker, const std::string& op,
                                    JsonValue body, double timeout_seconds) {
  MutexLock lock(worker.mu);
  if (!worker.alive) {
    return Status::Unavailable("worker " + worker.host + ":" +
                               std::to_string(worker.port) + " is lost");
  }
  const uint64_t id = worker.next_id++;
  const uint64_t bytes_before =
      worker.conn.bytes_sent() + worker.conn.bytes_received();
  // Transport failures (broken stream, missed deadline) mean the worker can
  // no longer be trusted to stay in frame sync: declare it lost and close.
  // A well-formed error *envelope* is not a transport failure — the worker
  // answered — so it comes back as a plain remote Status below.
  auto lost = [&](Status status) SCORPION_REQUIRES(worker.mu) {
    worker.alive = false;
    worker.conn.Close();
    ++workers_lost_;
    if (options_.service_stats != nullptr) {
      ++options_.service_stats->workers_lost;
    }
    return status;
  };
  auto account_bytes = [&]() SCORPION_REQUIRES(worker.mu) {
    const uint64_t delta = worker.conn.bytes_sent() +
                           worker.conn.bytes_received() - bytes_before;
    bytes_on_wire_ += delta;
    if (options_.service_stats != nullptr) {
      options_.service_stats->bytes_on_wire += delta;
    }
  };

  Status status = worker.conn.SetTimeout(timeout_seconds);
  if (!status.ok()) return lost(std::move(status));
  status = worker.conn.WriteFrame(EncodeRequest(op, id, std::move(body)));
  if (!status.ok()) {
    account_bytes();
    return lost(std::move(status));
  }
  Result<std::string> payload = worker.conn.ReadFrame(options_.frame_limits);
  account_bytes();
  if (!payload.ok()) return lost(payload.status());
  bool was_remote_error = false;
  Result<JsonValue> response =
      ParseResponse(*payload, id, WireParseLimits(), &was_remote_error);
  if (!response.ok() && !was_remote_error) {
    // The frame arrived but its envelope is garbage (corruption, id drift):
    // the stream can no longer be trusted to stay in sync, so the worker is
    // lost exactly like a transport failure. A well-formed error envelope
    // passes through — the worker answered.
    return lost(response.status());
  }
  return response;
}

Status Coordinator::Publish(const Table& table, const QueryResult& result,
                            const ProblemSpec& problem) {
  MutexLock lock(scatter_mu_);
  SCORPION_RETURN_NOT_OK(problem.Validate(result));
  const Fingerprint table_fp = table.fingerprint();
  const Fingerprint session =
      SessionFingerprint(table_fp, result.query, problem);
  const uint64_t num_blocks = (table.num_rows() + kBlockSize - 1) / kBlockSize;

  const JsonValue table_json = TableToJsonValue(table);
  const JsonValue query_json = GroupByQueryToJsonValue(result.query);
  const JsonValue problem_json = ProblemSpecToJsonValue(problem);

  size_t published = 0;
  Status first_error = Status::Unavailable("no workers reachable");
  bool have_error = false;
  for (const std::unique_ptr<WorkerState>& worker : workers_) {
    Status status = [&]() -> Status {
      JsonValue publish_body = JsonValue::Object();
      publish_body.Add("table", table_json);
      publish_body.Add("query", query_json);
      publish_body.Add("table_fp", JsonValue::String(table_fp.ToHex()));
      SCORPION_ASSIGN_OR_RETURN(
          JsonValue publish_resp,
          Call(*worker, kOpPublishDataset, std::move(publish_body),
               options_.publish_timeout_seconds));
      SCORPION_ASSIGN_OR_RETURN(
          JsonObjectReader publish_reader,
          JsonObjectReader::Make(publish_resp, "publish_dataset response"));
      SCORPION_ASSIGN_OR_RETURN(int64_t worker_blocks,
                                publish_reader.GetInt("num_blocks"));
      SCORPION_RETURN_NOT_OK(publish_reader.Finish());
      if (static_cast<uint64_t>(worker_blocks) != num_blocks) {
        return Status::Internal(
            "worker sees " + std::to_string(worker_blocks) +
            " blocks, coordinator " + std::to_string(num_blocks));
      }

      JsonValue prepare_body = JsonValue::Object();
      prepare_body.Add("table_fp", JsonValue::String(table_fp.ToHex()));
      prepare_body.Add("problem", problem_json);
      SCORPION_ASSIGN_OR_RETURN(
          JsonValue prepare_resp,
          Call(*worker, kOpPrepareProblem, std::move(prepare_body),
               options_.request_timeout_seconds));
      SCORPION_ASSIGN_OR_RETURN(
          JsonObjectReader prepare_reader,
          JsonObjectReader::Make(prepare_resp, "prepare_problem response"));
      SCORPION_ASSIGN_OR_RETURN(std::string worker_session,
                                prepare_reader.GetString("session_fp"));
      SCORPION_RETURN_NOT_OK(prepare_reader.Finish());
      // Both sides derive the session id independently; a mismatch means
      // they disagree about the data and this worker must not serve.
      if (worker_session != session.ToHex()) {
        return Status::Internal("worker session fingerprint " +
                                worker_session + " != coordinator's " +
                                session.ToHex());
      }
      return Status::OK();
    }();
    if (status.ok()) {
      ++published;
      continue;
    }
    if (!have_error) {
      first_error = status;
      have_error = true;
    }
    // Transport failures already marked the worker lost inside Call();
    // semantic disagreements (fingerprint/block mismatches) do it here.
    MutexLock worker_lock(worker->mu);
    if (worker->alive) {
      worker->alive = false;
      worker->conn.Close();
      ++workers_lost_;
      if (options_.service_stats != nullptr) {
        ++options_.service_stats->workers_lost;
      }
    }
  }
  if (published == 0) return first_error;

  table_ = &table;
  result_ = &result;
  problem_ = &problem;
  num_blocks_ = num_blocks;
  session_ = session;
  table_fp_ = table_fp;
  return Status::OK();
}

Status Coordinator::PublishDelta(const Table& table,
                                 const QueryResult& result,
                                 const ProblemSpec& problem) {
  MutexLock lock(scatter_mu_);
  if (table_ == nullptr) {
    return Status::FailedPrecondition(
        "Coordinator::PublishDelta before Publish");
  }
  SCORPION_RETURN_NOT_OK(problem.Validate(result));
  const size_t old_rows = table_->num_rows();
  if (table.num_rows() < old_rows) {
    return Status::InvalidArgument(
        "PublishDelta: new table has " + std::to_string(table.num_rows()) +
        " rows, published table " + std::to_string(old_rows));
  }
  const Fingerprint old_fp = table_fp_;
  const Fingerprint new_fp = table.fingerprint();
  const Fingerprint session =
      SessionFingerprint(new_fp, result.query, problem);
  const uint64_t num_blocks = (table.num_rows() + kBlockSize - 1) / kBlockSize;

  // Only the rows past the published high-water mark go on the wire.
  RowIdList delta_rows;
  delta_rows.reserve(table.num_rows() - old_rows);
  for (RowId r = static_cast<RowId>(old_rows);
       r < static_cast<RowId>(table.num_rows()); ++r) {
    delta_rows.push_back(r);
  }
  SCORPION_ASSIGN_OR_RETURN(Table delta, table.TakeRows(delta_rows));
  const JsonValue delta_json = TableToJsonValue(delta);
  const JsonValue problem_json = ProblemSpecToJsonValue(problem);

  size_t published = 0;
  Status first_error = Status::Unavailable("no workers reachable");
  bool have_error = false;
  for (const std::unique_ptr<WorkerState>& worker : workers_) {
    Status status = [&]() -> Status {
      JsonValue extend_body = JsonValue::Object();
      extend_body.Add("table_fp", JsonValue::String(old_fp.ToHex()));
      extend_body.Add("new_table_fp", JsonValue::String(new_fp.ToHex()));
      extend_body.Add("generation", JsonValue::Number(static_cast<double>(
                                        table.generation())));
      extend_body.Add("delta", delta_json);
      SCORPION_ASSIGN_OR_RETURN(
          JsonValue extend_resp,
          Call(*worker, kOpExtendDataset, std::move(extend_body),
               options_.publish_timeout_seconds));
      SCORPION_ASSIGN_OR_RETURN(
          JsonObjectReader extend_reader,
          JsonObjectReader::Make(extend_resp, "extend_dataset response"));
      SCORPION_ASSIGN_OR_RETURN(int64_t worker_blocks,
                                extend_reader.GetInt("num_blocks"));
      SCORPION_RETURN_NOT_OK(extend_reader.Finish());
      if (static_cast<uint64_t>(worker_blocks) != num_blocks) {
        return Status::Internal(
            "worker sees " + std::to_string(worker_blocks) +
            " blocks after extend, coordinator " + std::to_string(num_blocks));
      }

      // Sessions keyed under the old generation were dropped by the
      // worker; re-prepare against the new fingerprint.
      JsonValue prepare_body = JsonValue::Object();
      prepare_body.Add("table_fp", JsonValue::String(new_fp.ToHex()));
      prepare_body.Add("problem", problem_json);
      SCORPION_ASSIGN_OR_RETURN(
          JsonValue prepare_resp,
          Call(*worker, kOpPrepareProblem, std::move(prepare_body),
               options_.request_timeout_seconds));
      SCORPION_ASSIGN_OR_RETURN(
          JsonObjectReader prepare_reader,
          JsonObjectReader::Make(prepare_resp, "prepare_problem response"));
      SCORPION_ASSIGN_OR_RETURN(std::string worker_session,
                                prepare_reader.GetString("session_fp"));
      SCORPION_RETURN_NOT_OK(prepare_reader.Finish());
      if (worker_session != session.ToHex()) {
        return Status::Internal("worker session fingerprint " +
                                worker_session + " != coordinator's " +
                                session.ToHex());
      }
      return Status::OK();
    }();
    if (status.ok()) {
      ++published;
      continue;
    }
    if (!have_error) {
      first_error = status;
      have_error = true;
    }
    MutexLock worker_lock(worker->mu);
    if (worker->alive) {
      worker->alive = false;
      worker->conn.Close();
      ++workers_lost_;
      if (options_.service_stats != nullptr) {
        ++options_.service_stats->workers_lost;
      }
    }
  }
  if (published == 0) return first_error;

  table_ = &table;
  result_ = &result;
  problem_ = &problem;
  num_blocks_ = num_blocks;
  session_ = session;
  table_fp_ = new_fp;
  if (options_.service_stats != nullptr) {
    ++options_.service_stats->snapshot_generations_published;
  }
  return Status::OK();
}

Result<Explanation> Coordinator::ExplainOnWorker(
    WorkerState& worker, const ScorpionOptions& options,
    double timeout_seconds) {
  SCORPION_FAILPOINT("coordinator.dispatch");
  JsonValue body = JsonValue::Object();
  body.Add("session_fp", JsonValue::String(session_.ToHex()));
  body.Add("options", ScorpionOptionsToJson(options));
  ++explain_requests_;
  SCORPION_ASSIGN_OR_RETURN(
      JsonValue response,
      Call(worker, kOpExplain, std::move(body), timeout_seconds));
  SCORPION_ASSIGN_OR_RETURN(
      JsonObjectReader reader,
      JsonObjectReader::Make(response, "explain response"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* explanation,
                            reader.GetMember("explanation"));
  SCORPION_RETURN_NOT_OK(reader.Finish());
  return ExplanationFromJson(*explanation);
}

Result<Explanation> Coordinator::Explain(const ScorpionOptions& options) {
  MutexLock lock(scatter_mu_);
  if (table_ == nullptr) {
    return Status::FailedPrecondition("Coordinator::Explain before Publish");
  }
  WallTimer timer;
  Status last = Status::Unavailable("no live workers");
  const size_t n = workers_.size();
  // Deadline propagation: the whole retry budget for this explain —
  // attempts, backoff sleeps and all — fits inside the configured window,
  // and each attempt's request timeout shrinks to what remains.
  const bool bounded = options_.dispatch_deadline_seconds > 0.0;
  const SteadyClock::time_point deadline =
      SteadyClock::now() +
      std::chrono::duration_cast<SteadyClock::duration>(
          std::chrono::duration<double>(options_.dispatch_deadline_seconds));
  const Backoff backoff(options_.backoff);
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    // First live worker at or after `attempt`: the first try goes to the
    // first live worker, and each retry rotates onward so a re-sent
    // explain lands on a survivor, not the peer that just failed.
    WorkerState* chosen = nullptr;
    for (size_t k = 0; k < n && chosen == nullptr; ++k) {
      WorkerState& worker = *workers_[(static_cast<size_t>(attempt) + k) % n];
      MutexLock worker_lock(worker.mu);
      if (worker.alive) chosen = &worker;
    }
    if (chosen == nullptr) break;
    const double delay =
        attempt > 0
            ? backoff.DelayForAttempt(static_cast<uint64_t>(attempt) - 1)
            : 0.0;
    double timeout = options_.request_timeout_seconds;
    if (bounded) {
      const double remaining =
          std::chrono::duration<double>(deadline - SteadyClock::now())
              .count() -
          delay;
      if (remaining <= 0.0) {
        last = Status::DeadlineExceeded(
            "explain exhausted its dispatch deadline after " +
            std::to_string(attempt) + " attempts");
        break;
      }
      timeout = std::min(timeout, remaining);
    }
    if (attempt > 0) {
      SleepForSeconds(delay);
      ++explains_redispatched_;
      if (options_.service_stats != nullptr) {
        ++options_.service_stats->explains_redispatched;
      }
    }
    Result<Explanation> result = ExplainOnWorker(*chosen, options, timeout);
    if (result.ok()) {
      result->runtime_seconds = timer.ElapsedSeconds();
      return result;
    }
    last = result.status();
  }
  if (!options_.allow_local_fallback) {
    return Status::Unavailable("no worker could serve the explain: " +
                               last.ToString());
  }
  ++local_fallbacks_;
  return Scorpion(options).Explain(*table_, *result_, *problem_);
}

void Coordinator::ShutdownWorkers() {
  for (const std::unique_ptr<WorkerState>& worker : workers_) {
    Call(*worker, kOpShutdown, JsonValue::Object(),
         options_.request_timeout_seconds)
        .status()
        .ok();  // best effort
  }
}

Status Coordinator::PublishCatalogOnConn(Conn& conn, uint64_t* next_id) {
  if (table_ == nullptr) return Status::OK();  // nothing published yet
  // The coordinator-side catalog is the borrowed published state keyed by
  // its fingerprints (table_fp_, session_): a restarted worker holds
  // nothing, so it gets the full current table — not the delta chain that
  // built it — and must independently re-derive both fingerprints.
  JsonValue publish_body = JsonValue::Object();
  publish_body.Add("table", TableToJsonValue(*table_));
  publish_body.Add("query", GroupByQueryToJsonValue(result_->query));
  publish_body.Add("table_fp", JsonValue::String(table_fp_.ToHex()));
  SCORPION_ASSIGN_OR_RETURN(
      JsonValue publish_resp,
      RoundTrip(conn, kOpPublishDataset, (*next_id)++,
                std::move(publish_body), options_.publish_timeout_seconds,
                options_.frame_limits));
  SCORPION_ASSIGN_OR_RETURN(
      JsonObjectReader publish_reader,
      JsonObjectReader::Make(publish_resp, "publish_dataset response"));
  SCORPION_ASSIGN_OR_RETURN(int64_t worker_blocks,
                            publish_reader.GetInt("num_blocks"));
  SCORPION_RETURN_NOT_OK(publish_reader.Finish());
  if (static_cast<uint64_t>(worker_blocks) != num_blocks_) {
    return Status::Internal("revived worker sees " +
                            std::to_string(worker_blocks) +
                            " blocks, coordinator " +
                            std::to_string(num_blocks_));
  }

  JsonValue prepare_body = JsonValue::Object();
  prepare_body.Add("table_fp", JsonValue::String(table_fp_.ToHex()));
  prepare_body.Add("problem", ProblemSpecToJsonValue(*problem_));
  SCORPION_ASSIGN_OR_RETURN(
      JsonValue prepare_resp,
      RoundTrip(conn, kOpPrepareProblem, (*next_id)++,
                std::move(prepare_body), options_.request_timeout_seconds,
                options_.frame_limits));
  SCORPION_ASSIGN_OR_RETURN(
      JsonObjectReader prepare_reader,
      JsonObjectReader::Make(prepare_resp, "prepare_problem response"));
  SCORPION_ASSIGN_OR_RETURN(std::string worker_session,
                            prepare_reader.GetString("session_fp"));
  SCORPION_RETURN_NOT_OK(prepare_reader.Finish());
  if (worker_session != session_.ToHex()) {
    return Status::Internal("revived worker session fingerprint " +
                            worker_session + " != coordinator's " +
                            session_.ToHex());
  }
  return Status::OK();
}

Status Coordinator::ReviveWorker(WorkerState& worker) {
  SCORPION_ASSIGN_OR_RETURN(
      Conn conn,
      Conn::Dial(worker.host, worker.port, options_.connect_timeout_seconds));
  uint64_t next_id = 1;
  SCORPION_RETURN_NOT_OK(
      RoundTrip(conn, kOpPing, next_id++, JsonValue::Object(),
                options_.request_timeout_seconds, options_.frame_limits)
          .status());
  SCORPION_RETURN_NOT_OK(PublishCatalogOnConn(conn, &next_id));
  // Full sequence verified: close the circuit. From here explains may pick
  // the worker again.
  MutexLock lock(worker.mu);
  worker.conn = std::move(conn);
  worker.alive = true;
  worker.next_id = next_id;
  worker.reprobe_attempt = 0;
  worker.next_probe = SteadyClock::time_point{};
  ++workers_recovered_;
  if (options_.service_stats != nullptr) {
    ++options_.service_stats->workers_recovered;
  }
  return Status::OK();
}

void Coordinator::HeartbeatLoop() {
  while (true) {
    {
      MutexLock lock(heartbeat_mu_);
      if (stopping_) return;
      heartbeat_cv_.WaitFor(heartbeat_mu_,
                            options_.heartbeat_interval_seconds);
      if (stopping_) return;
    }
    SCORPION_FAILPOINT_HIT("coordinator.heartbeat", fp_hit);
    if (fp_hit.kind == FailpointHit::Kind::kCrash) {
      failpoints::CrashNow("coordinator.heartbeat");
    }
    if (fp_hit.fired()) continue;  // injected failure: skip this round
    for (size_t i = 0; i < workers_.size(); ++i) {
      const std::unique_ptr<WorkerState>& worker = workers_[i];
      // Probe only idle workers: a worker mid-request is covered by that
      // request's own deadline, and queueing a ping behind a long explain
      // would tell us nothing sooner.
      if (!worker->mu.TryLock()) continue;
      const bool alive = worker->alive;
      const SteadyClock::time_point next_probe = worker->next_probe;
      const uint64_t reprobe_attempt = worker->reprobe_attempt;
      worker->mu.Unlock();
      if (alive) {
        Call(*worker, kOpPing, JsonValue::Object(),
             options_.request_timeout_seconds)
            .status()
            .ok();  // failure marks the worker lost inside Call
        continue;
      }
      // Lost worker: re-probe on the capped jittered backoff schedule.
      // Readmission needs the published state stable, so it runs under
      // scatter_mu_; TryLock keeps the heartbeat from ever stalling an
      // in-flight explain — the next round retries.
      if (SteadyClock::now() < next_probe) continue;
      if (!scatter_mu_.TryLock()) continue;
      const Status revived = ReviveWorker(*worker);
      scatter_mu_.Unlock();
      if (!revived.ok()) {
        const Backoff backoff(
            SubSeed(options_.backoff, static_cast<uint64_t>(i) + 0x517EULL));
        const double delay = backoff.DelayForAttempt(reprobe_attempt);
        MutexLock lock(worker->mu);
        worker->reprobe_attempt = reprobe_attempt + 1;
        worker->next_probe =
            SteadyClock::now() +
            std::chrono::duration_cast<SteadyClock::duration>(
                std::chrono::duration<double>(delay));
      }
    }
  }
}

}  // namespace scorpion
