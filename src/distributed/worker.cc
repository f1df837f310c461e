#include "distributed/worker.h"

#include <algorithm>
#include <utility>

#include "api/serialization.h"
#include "common/backoff.h"
#include "common/failpoint.h"
#include "common/macros.h"
#include "core/scorpion.h"
#include "table/block_stats.h"

namespace scorpion {

Result<std::unique_ptr<Worker>> Worker::Start(const std::string& host,
                                              int port,
                                              WorkerOptions options) {
  SCORPION_ASSIGN_OR_RETURN(Listener listener, Listener::Listen(host, port));
  std::unique_ptr<Worker> worker(
      new Worker(std::move(listener), std::move(options)));
  worker->accept_thread_ = std::thread([w = worker.get()] { w->AcceptLoop(); });
  return worker;
}

Worker::Worker(Listener listener, WorkerOptions options)
    : options_(std::move(options)), listener_(std::move(listener)) {}

Worker::~Worker() { Stop(); }

bool Worker::stopped() const {
  MutexLock lock(mu_);
  return halted_;
}

void Worker::Halt() {
  MutexLock lock(mu_);
  if (halted_) return;
  halted_ = true;
  listener_.Shutdown();
  for (Conn* conn : live_conns_) conn->ShutdownRW();
}

void Worker::Stop() {
  Halt();
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop has exited, so no new threads are being registered;
  // take the list and join outside the lock (the threads themselves lock
  // mu_ to deregister their connections).
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void Worker::AcceptLoop() {
  while (true) {
    Result<Conn> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (accepted.status().IsCancelled()) return;  // Halt shut us down
      {
        MutexLock lock(mu_);
        if (halted_) return;
      }
      // Transient accept failure (fd pressure, injected fault): keep the
      // worker alive — a dead listener surfaces as Cancelled above.
      SleepForSeconds(0.01);
      continue;
    }
    // The connection is heap-allocated so Halt() can shut it down through
    // the registry while its serving thread owns it.
    auto conn = std::make_unique<Conn>(std::move(*accepted));
    MutexLock lock(mu_);
    if (halted_) return;
    Conn* raw = conn.get();
    live_conns_.push_back(raw);
    conn_threads_.emplace_back(
        [this, owned = std::move(conn)]() mutable { Serve(owned.get()); });
  }
}

void Worker::Serve(Conn* conn) {
  while (true) {
    Result<std::string> payload = conn->ReadFrame(options_.frame_limits);
    if (!payload.ok()) break;
    Result<WireRequest> request = ParseRequest(*payload, WireParseLimits());
    if (!request.ok()) {
      // Frame boundaries are still intact (the frame itself decoded), so
      // report the bad envelope and keep serving this connection.
      if (!conn->WriteFrame(EncodeErrorResponse(0, request.status())).ok()) {
        break;
      }
      continue;
    }

    if (request->op == kOpExplain) {
      SCORPION_FAILPOINT_HIT("worker.explain", fp_hit);
      if (fp_hit.kind == FailpointHit::Kind::kCrash) {
        // Crash simulation: no response, every connection dropped.
        // scorpiond installs _exit in on_die so the whole process dies.
        Halt();
        if (options_.on_die) options_.on_die();
        break;
      }
      if (fp_hit.fired()) {
        const Status injected =
            fp_hit.kind == FailpointHit::Kind::kStatus
                ? fp_hit.status
                : Status::IOError(
                      "failpoint 'worker.explain' injected failure");
        const std::string err = EncodeErrorResponse(request->id, injected);
        if (!conn->WriteFrame(err).ok()) break;
        continue;
      }
    }

    bool shutdown = false;
    Result<JsonValue> body = Handle(*request, &shutdown);
    const std::string response =
        body.ok() ? EncodeResponse(request->id, std::move(*body))
                  : EncodeErrorResponse(request->id, body.status());
    if (!conn->WriteFrame(response).ok()) break;
    if (shutdown) {
      Halt();
      break;
    }
  }
  MutexLock lock(mu_);
  live_conns_.erase(
      std::remove(live_conns_.begin(), live_conns_.end(), conn),
      live_conns_.end());
}

Result<JsonValue> Worker::Handle(const WireRequest& request, bool* shutdown) {
  if (request.op == kOpPing) return JsonValue::Object();
  if (request.op == kOpShutdown) {
    *shutdown = true;
    return JsonValue::Object();
  }
  if (request.op == kOpPublishDataset) {
    return HandlePublishDataset(request.body);
  }
  if (request.op == kOpExtendDataset) {
    return HandleExtendDataset(request.body);
  }
  if (request.op == kOpPrepareProblem) {
    return HandlePrepareProblem(request.body);
  }
  if (request.op == kOpExplain) return HandleExplain(request.body);
  return Status::InvalidArgument("unknown op '" + request.op + "'");
}

Result<JsonValue> Worker::HandlePublishDataset(const JsonValue& body) {
  SCORPION_FAILPOINT("worker.publish_dataset");
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(body, "publish_dataset"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* table_json,
                            reader.GetMember("table"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* query_json,
                            reader.GetMember("query"));
  SCORPION_ASSIGN_OR_RETURN(std::string claimed_fp,
                            reader.GetString("table_fp"));
  SCORPION_RETURN_NOT_OK(reader.Finish());

  SCORPION_ASSIGN_OR_RETURN(Table table, TableFromJsonValue(*table_json));
  // Verify the rebuilt table is byte-equivalent to the sender's: same
  // schema, same values, same dictionary encoding. Catches both wire
  // corruption and encoder/decoder drift before any result depends on it.
  const std::string actual_fp = table.fingerprint().ToHex();
  if (actual_fp != claimed_fp) {
    return Status::InvalidArgument(
        "publish_dataset: rebuilt table fingerprint " + actual_fp +
        " does not match sender's " + claimed_fp);
  }
  SCORPION_ASSIGN_OR_RETURN(GroupByQuery query,
                            GroupByQueryFromJsonValue(*query_json));
  SCORPION_ASSIGN_OR_RETURN(QueryResult result,
                            ExecuteGroupBy(table, query));

  const uint64_t num_blocks =
      (table.num_rows() + kBlockSize - 1) / kBlockSize;
  auto state = std::make_unique<DatasetState>(
      DatasetState{std::move(table), std::move(result),
                   /*generation=*/0});
  state->generation = state->table.generation();
  {
    MutexLock lock(mu_);
    datasets_[actual_fp] = std::move(state);
  }
  JsonValue resp = JsonValue::Object();
  resp.Add("num_blocks", JsonValue::Number(static_cast<double>(num_blocks)));
  return resp;
}

Result<JsonValue> Worker::HandleExtendDataset(const JsonValue& body) {
  SCORPION_FAILPOINT("worker.extend_dataset");
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(body, "extend_dataset"));
  SCORPION_ASSIGN_OR_RETURN(std::string old_fp, reader.GetString("table_fp"));
  SCORPION_ASSIGN_OR_RETURN(std::string new_fp,
                            reader.GetString("new_table_fp"));
  SCORPION_ASSIGN_OR_RETURN(int64_t generation, reader.GetInt("generation"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* delta_json,
                            reader.GetMember("delta"));
  SCORPION_RETURN_NOT_OK(reader.Finish());
  SCORPION_ASSIGN_OR_RETURN(Table delta, TableFromJsonValue(*delta_json));

  MutexLock lock(mu_);
  auto it = datasets_.find(old_fp);
  if (it == datasets_.end()) {
    return Status::KeyError("extend_dataset: no dataset with fingerprint " +
                            old_fp + " (publish the full table first)");
  }
  DatasetState& ds = *it->second;
  if (static_cast<uint64_t>(generation) <= ds.generation) {
    return Status::FailedPrecondition(
        "extend_dataset: generation " + std::to_string(generation) +
        " does not advance the dataset's generation " +
        std::to_string(ds.generation));
  }
  if (!(delta.schema() == ds.table.schema())) {
    return Status::InvalidArgument(
        "extend_dataset: delta schema does not match the dataset's");
  }

  // Append the delta in row order. Dictionary interning is append-only, so
  // replaying the rows reproduces the coordinator's frozen snapshot
  // encoding byte for byte — verified by the fingerprint below, which the
  // dataset's streaming hasher states extend in O(delta).
  for (int c = 0; c < ds.table.num_columns(); ++c) {
    const Column& src = delta.column(c);
    Column& dst = ds.table.column(c);
    for (RowId r = 0; r < static_cast<RowId>(delta.num_rows()); ++r) {
      if (src.type() == DataType::kDouble) {
        SCORPION_RETURN_NOT_OK(dst.AppendDouble(src.GetDouble(r)));
      } else {
        SCORPION_RETURN_NOT_OK(dst.AppendString(src.GetString(r)));
      }
    }
  }
  SCORPION_RETURN_NOT_OK(ds.table.FinalizeColumnwiseBuild());

  const std::string actual_fp = ds.table.fingerprint().ToHex();
  if (actual_fp != new_fp) {
    // The in-place append left the dataset in a state the coordinator does
    // not recognise; drop it so the next publish starts clean rather than
    // serving a diverged table.
    datasets_.erase(it);
    for (auto sit = sessions_.begin(); sit != sessions_.end();) {
      if (sit->second.table_fp_hex == old_fp) {
        sit = sessions_.erase(sit);
      } else {
        ++sit;
      }
    }
    return Status::InvalidArgument(
        "extend_dataset: extended table fingerprint " + actual_fp +
        " does not match sender's " + new_fp + "; dataset dropped");
  }

  SCORPION_ASSIGN_OR_RETURN(QueryResult extended,
                            ExtendQueryResult(ds.result, ds.table));
  ds.result = std::move(extended);
  ds.generation = static_cast<uint64_t>(generation);

  // Re-key under the new fingerprint (the unique_ptr move keeps the Table's
  // address — and so its seeded caches — stable) and drop sessions prepared
  // against the old generation: their result indices may have shifted as
  // groups appeared, and an explain against a re-keyed dataset would
  // otherwise hit the evicted-dataset CHECK. The coordinator re-runs
  // prepare_problem against the new fingerprint after every extend.
  std::unique_ptr<DatasetState> state = std::move(it->second);
  datasets_.erase(it);
  datasets_[actual_fp] = std::move(state);
  for (auto sit = sessions_.begin(); sit != sessions_.end();) {
    if (sit->second.table_fp_hex == old_fp) {
      sit = sessions_.erase(sit);
    } else {
      ++sit;
    }
  }

  const uint64_t num_blocks =
      (datasets_[actual_fp]->table.num_rows() + kBlockSize - 1) / kBlockSize;
  JsonValue resp = JsonValue::Object();
  resp.Add("num_blocks", JsonValue::Number(static_cast<double>(num_blocks)));
  return resp;
}

Result<JsonValue> Worker::HandlePrepareProblem(const JsonValue& body) {
  SCORPION_FAILPOINT("worker.prepare_problem");
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(body, "prepare_problem"));
  SCORPION_ASSIGN_OR_RETURN(std::string table_fp_hex,
                            reader.GetString("table_fp"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* problem_json,
                            reader.GetMember("problem"));
  SCORPION_RETURN_NOT_OK(reader.Finish());
  SCORPION_ASSIGN_OR_RETURN(Fingerprint table_fp,
                            Fingerprint::FromHex(table_fp_hex));
  SCORPION_ASSIGN_OR_RETURN(ProblemSpec problem,
                            ProblemSpecFromJsonValue(*problem_json));

  Fingerprint session;
  {
    MutexLock lock(mu_);
    auto it = datasets_.find(table_fp_hex);
    if (it == datasets_.end()) {
      return Status::KeyError("prepare_problem: no dataset with fingerprint " +
                              table_fp_hex);
    }
    const DatasetState& ds = *it->second;
    SCORPION_RETURN_NOT_OK(problem.Validate(ds.result));
    session = SessionFingerprint(table_fp, ds.result.query, problem);
    sessions_[session.ToHex()] = SessionState{table_fp_hex, std::move(problem)};
  }
  JsonValue resp = JsonValue::Object();
  resp.Add("session_fp", JsonValue::String(session.ToHex()));
  return resp;
}

Result<JsonValue> Worker::HandleExplain(const JsonValue& body) {
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(body, "explain"));
  SCORPION_ASSIGN_OR_RETURN(std::string session_hex,
                            reader.GetString("session_fp"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* options_json,
                            reader.GetMember("options"));
  SCORPION_RETURN_NOT_OK(reader.Finish());
  SCORPION_ASSIGN_OR_RETURN(ScorpionOptions options,
                            ScorpionOptionsFromJson(*options_json));

  // Held for the whole run: extend_dataset appends to a dataset's table in
  // place, so an explain must not overlap it. One coordinator serializes
  // its explains anyway, and pings are answered without the lock.
  MutexLock lock(mu_);
  auto session_it = sessions_.find(session_hex);
  if (session_it == sessions_.end()) {
    return Status::KeyError("explain: unknown session " + session_hex);
  }
  const SessionState& session = session_it->second;
  auto dataset_it = datasets_.find(session.table_fp_hex);
  SCORPION_CHECK(dataset_it != datasets_.end(),
                 "session points at an evicted dataset");
  const DatasetState& ds = *dataset_it->second;
  SCORPION_ASSIGN_OR_RETURN(
      Explanation explanation,
      Scorpion(options).Explain(ds.table, ds.result, session.problem));
  JsonValue resp = JsonValue::Object();
  resp.Add("explanation", ExplanationToJson(explanation));
  return resp;
}

}  // namespace scorpion
