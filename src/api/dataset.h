// The public entry point: Engine::Open(table, query) executes the group-by
// and returns a Dataset handle owning the QueryResult and an ExplainSession.
// All explanation traffic goes through the handle —
//
//   Engine engine;
//   auto dataset = engine.Open(table, query);
//   auto response = dataset->Explain(ExplainRequest()
//       .FlagTooHigh("12PM").Holdout("11AM")
//       .WithAttributes({"sensorid", "voltage"}).WithC(0.5));
//
// — and owns the sessions (Section 8.3.3 caches) those explains share;
// Scorpion is the internal engine this facade drives. Sync and async
// explains share the dataset's session, so a c-slider sweep reuses DT
// partitions and merged results, and results stay byte-identical to a
// direct engine run unless cross-c warm starts are explicitly enabled.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/explain_request.h"
#include "api/explain_response.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/scorpion.h"
#include "query/groupby.h"
#include "service/service.h"
#include "storage/live_table.h"
#include "table/table.h"

namespace scorpion {

class Dataset;
class LiveDataset;
class PendingExplanation;

/// Engine-wide tuning: the inner Scorpion knobs plus the serving knobs of
/// the async queue (one ExplanationService per Engine).
struct EngineOptions {
  /// Inner engine tuning. `engine.algorithm` and `engine.top_k` act as
  /// defaults a request can override; `engine.num_threads` sizes the
  /// Engine's one scoring pool, shared by the sync and async explains of
  /// every dataset (0 = one thread per core, 1 = serial).
  ScorpionOptions engine;
  /// Worker threads running async explains (each scores on the shared
  /// pool above).
  int num_workers = 2;
  /// Async queue bound; beyond it admission control sheds (Unavailable).
  size_t max_queue_depth = 256;
  /// Opt-in Section 8.3.3 cross-c warm starts: influence can only improve,
  /// but results then depend on which c values ran first. Off by default so
  /// every response is byte-identical to a direct Scorpion::Explain().
  bool cross_c_warm_start = false;
};

/// \brief Factory for Dataset handles; owns the scoring pool and the async
/// serving stack they share. Must outlive every Dataset it opened.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  SCORPION_DISALLOW_COPY_AND_ASSIGN(Engine);

  /// Executes `query` over `table` and returns the handle for explaining
  /// its results. The table is borrowed and must outlive the Dataset; the
  /// executed QueryResult is owned by the handle.
  Result<Dataset> Open(const Table& table, GroupByQuery query);

  /// Opens a streaming dataset over a LiveTable: publishes its current
  /// contents as a pinned snapshot, executes `query` over that frozen
  /// generation, and returns a handle whose Explain()s read the pinned
  /// generation until Refresh() advances it. The LiveTable is borrowed and
  /// must outlive the LiveDataset. An optional ServiceStats sink receives
  /// the ingest-plane counters (generations published, sessions delta-
  /// refreshed, tail rows scanned) of sync and async explains alike, once
  /// per finished run, the way CoordinatorOptions wires the distributed
  /// ones. The sink must outlive every explain submitted through the
  /// handle.
  Result<LiveDataset> OpenLive(LiveTable& live, GroupByQuery query,
                               ServiceStats* service_stats = nullptr);

  /// Cancels a queued async request by id (see PendingExplanation::id());
  /// false if it already started, finished, or was never queued.
  bool Cancel(uint64_t id);

  /// Serving-side counters of the async path (zeros until the first
  /// ExplainAsync call starts the service).
  ServiceStatsSnapshot service_stats() const;

  const EngineOptions& options() const { return options_; }

 private:
  friend class Dataset;
  friend class PendingExplanation;

  /// The one scoring pool (nullptr = serial).
  ThreadPool* scoring_pool() { return pool_.get(); }

  /// The async service, started on first use so sync-only engines spawn no
  /// worker threads.
  ExplanationService& service();

  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  mutable Mutex service_mu_;
  std::unique_ptr<ExplanationService> service_ SCORPION_GUARDED_BY(service_mu_);
};

/// \brief Handle over one executed query: owns the QueryResult and the
/// ExplainSessions its explains share. Movable; not for concurrent
/// mutation, but Explain()/ExplainAsync() are const and safe to call from
/// many threads (session lookup and the sessions themselves are internally
/// synchronized).
///
/// Sessions are keyed by annotation set: an ExplainSession is only valid
/// for one (problem-sans-c) instance, so requests differing in outliers,
/// hold-outs, lambda, weights, attributes or algorithm get distinct
/// sessions (LRU-bounded), while a c sweep over one annotation set shares
/// its session across the sync and async paths.
class Dataset {
 public:
  Dataset(Dataset&&) noexcept;
  Dataset& operator=(Dataset&&) noexcept;
  ~Dataset();

  const Table& table() const { return *pinned_.table; }
  const QueryResult& result() const { return *pinned_.result; }

  /// Resolves a request's keyed annotations against this dataset's query
  /// result (the one place keys become indices). Exposed for callers that
  /// need the engine-level ProblemSpec, e.g. for evaluation harnesses.
  Result<ProblemSpec> Resolve(const ExplainRequest& request) const;

  /// Runs the request synchronously. Deterministic by default: the response
  /// is byte-identical to a direct engine run of the resolved problem, and
  /// repeated explains at different c reuse this dataset's session cache.
  Result<ExplainResponse> Explain(const ExplainRequest& request) const;

  /// Submits the request to the engine's async service (priority, deadline
  /// and admission control apply) and returns a pending handle. The dataset
  /// must outlive the handle's resolution.
  Result<PendingExplanation> ExplainAsync(const ExplainRequest& request) const;

  /// Drops this dataset's cached partitions and merged results (every
  /// annotation set's session).
  void ClearCache();

 private:
  friend class Engine;
  // LiveDataset explains through the same helpers and session store.
  friend class LiveDataset;
  friend class PendingExplanation;

  /// What one explain runs over. The shared_ptrs keep the result (and a
  /// live table's generation) alive for in-flight async jobs and
  /// PendingExplanations even if the handle is moved, destroyed or
  /// refreshed first; `snapshot` is null for static tables.
  struct Pinned {
    const Table* table = nullptr;
    std::shared_ptr<const QueryResult> result;
    std::shared_ptr<const TableSnapshot> snapshot;
  };

  /// Keyed session store (see the class comment; defined in dataset.cc).
  struct SessionStore;

  Dataset(Engine* engine, const Table* table,
          std::shared_ptr<const QueryResult> result);

  /// The one explain run of both handles and both paths: builds the engine
  /// options from Engine::options() with the request's algorithm and top-k,
  /// runs Scorpion::Explain on the Engine's scoring pool, and feeds the
  /// run's ingest-plane counters to `stats` (nullable; see
  /// Engine::OpenLive).
  static Result<Explanation> Run(Engine& engine, const Pinned& pinned,
                                 const ProblemSpec& problem,
                                 Algorithm algorithm, size_t top_k,
                                 ExplainSession* session, ServiceStats* stats);

  /// The sync path of both handles: resolves the request and calls Run
  /// inline.
  static Result<ExplainResponse> ExplainPinned(Engine& engine,
                                               SessionStore& sessions,
                                               const Pinned& pinned,
                                               ServiceStats* stats,
                                               const ExplainRequest& request);

  /// The async path of both handles: resolves the request and queues Run
  /// on the engine's service. The job owns `pinned` and the session until
  /// it finishes, whether or not the caller redeems the result.
  static Result<PendingExplanation> SubmitPinned(
      Engine& engine, SessionStore& sessions, Pinned pinned,
      ServiceStats* stats, const ExplainRequest& request);

  Engine* engine_;
  Pinned pinned_;
  // Behind a pointer so the Dataset stays movable (the store holds a mutex).
  std::unique_ptr<SessionStore> sessions_;
};

/// \brief Handle over one query on a streaming LiveTable.
///
/// The Dataset counterpart for data that grows: explains run against the
/// generation pinned at OpenLive or the last Refresh(), so concurrent
/// appends to the LiveTable never shift results mid-call (no more
/// evaluate-after-append aborts — readers simply keep seeing their frozen
/// generation). Refresh() publishes the appended rows as a new generation,
/// extends the cached QueryResult by scanning only the delta rows, and
/// re-keys every explain session with a delta seed so the next explain per
/// annotation set extends its cached match Selections from the old
/// high-water mark instead of refiltering from row zero.
///
/// Thread-safe: Explain()/ExplainAsync() from any number of threads,
/// concurrently with appends and with one Refresh() at a time (concurrent
/// Refresh calls serialize internally). Every response is bit-identical to
/// a from-scratch Engine::Open + Explain over the pinned generation's
/// frozen table.
class LiveDataset {
 public:
  LiveDataset(LiveDataset&&) noexcept;
  LiveDataset& operator=(LiveDataset&&) noexcept;
  ~LiveDataset();

  /// The generation currently served (see TableSnapshot::generation).
  uint64_t generation() const;

  /// The pinned snapshot / its query result. Handles stay valid after
  /// Refresh() advances the dataset (refcounted).
  std::shared_ptr<const TableSnapshot> snapshot() const;
  std::shared_ptr<const QueryResult> result() const;

  /// Publishes the LiveTable's current contents and advances this dataset
  /// to the new generation: the query result is extended incrementally and
  /// every cached session is delta-refresh re-keyed. In-flight explains
  /// finish against the generation they pinned. Returns the now-served
  /// generation (unchanged if nothing was appended).
  Result<uint64_t> Refresh();

  /// Runs the request against the currently pinned generation. Same
  /// determinism contract as Dataset::Explain.
  Result<ExplainResponse> Explain(const ExplainRequest& request) const;

  /// Async counterpart; the submitted job pins the current snapshot, so
  /// the generation survives until the future is redeemed even if
  /// Refresh() advances the dataset first.
  Result<PendingExplanation> ExplainAsync(const ExplainRequest& request) const;

  /// Drops every annotation set's cached session state (including parked
  /// delta seeds).
  void ClearCache();

 private:
  friend class Engine;

  struct State;

  LiveDataset(Engine* engine, LiveTable* live, ServiceStats* service_stats,
              std::shared_ptr<const TableSnapshot> snap,
              std::shared_ptr<const QueryResult> result);

  /// The currently served generation and its query result.
  Dataset::Pinned Pin() const;

  Engine* engine_;
  LiveTable* live_;
  /// Optional ingest-plane counter sink (see Engine::OpenLive).
  ServiceStats* service_stats_;
  /// The served Pinned behind a pointer for movability; the State's
  /// reader/writer lock covers only the pointer swap, never a run.
  std::unique_ptr<State> state_;
  std::unique_ptr<Dataset::SessionStore> sessions_;
};

/// \brief Handle for one in-flight ExplainAsync request.
///
/// Get() blocks until the engine finishes (or the request is shed, expires,
/// or is cancelled — see the service error contract) and can be called
/// once. The handle shares ownership of the query result, so it stays
/// valid even if the Dataset that issued it is moved or destroyed; only
/// the table (borrowed) and the Engine must outlive it. The what-if view
/// is built in Get(), on the caller's thread.
class PendingExplanation {
 public:
  PendingExplanation(PendingExplanation&&) = default;
  PendingExplanation& operator=(PendingExplanation&&) = default;

  /// Service-unique id, usable with Engine::Cancel().
  uint64_t id() const { return response_.id; }

  /// True until Get() consumes the result.
  bool valid() const { return response_.future.valid(); }

  Result<ExplainResponse> Get();

 private:
  friend class Dataset;

  PendingExplanation(Engine* engine, Dataset::Pinned pinned,
                     ProblemSpec problem, bool with_what_if,
                     Response response);

  Engine* engine_;
  Dataset::Pinned pinned_;
  ProblemSpec problem_;
  bool with_what_if_ = true;
  Response response_;
};

}  // namespace scorpion
