// Scorpion facade: wires provenance, scoring, partitioning and merging into
// the end-to-end pipeline of Figure 2, and implements the cross-c result
// cache of Section 8.3.3 (DT partitions are c-agnostic; Merger runs can be
// warm-started from results computed at a higher c).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "common/atomic_counter.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "core/naive.h"
#include "core/options.h"
#include "core/problem.h"
#include "core/scored_predicate.h"
#include "core/scorer.h"
#include "query/groupby.h"
#include "table/table.h"

namespace scorpion {

/// \brief Result of one Scorpion run.
struct Explanation {
  /// Ranked predicates, most influential first (at most options.top_k).
  std::vector<ScoredPredicate> predicates;
  Algorithm algorithm = Algorithm::kDT;
  double runtime_seconds = 0.0;
  /// Scorer traffic during this run.
  ScorerStats scorer_stats;
  /// NAIVE convergence trace (empty for DT/MC).
  std::vector<NaiveCheckpoint> naive_checkpoints;
  /// True if NAIVE swept its whole space within the time budget.
  bool naive_exhausted = false;
  /// True when a session served this run's DT partitions from cache.
  bool cache_partitions_hit = false;
  /// True when a session served the whole merged result (exact-c hit); the
  /// run skipped partitioning and merging entirely.
  bool cache_result_hit = false;
  /// True when this run rebuilt a delta-refreshed session's match caches by
  /// extending the previous generation's cached matches (filtering only
  /// rows past the old high-water mark) instead of refiltering from row
  /// zero. See ExplainSession::BeginDeltaRefresh.
  bool session_delta_refreshed = false;

  /// The winning predicate. CHECK-fails (aborts with a message) when
  /// `predicates` is empty instead of silently dereferencing past the end;
  /// callers that can see an empty explanation must test predicates.empty()
  /// first. (Explain() itself never returns an empty Explanation: it reports
  /// Status::Internal instead.)
  const ScoredPredicate& best() const {
    SCORPION_CHECK(!predicates.empty(),
                   "Explanation::best() called on an empty explanation");
    return predicates.front();
  }
};

/// \brief Shareable Section 8.3.3 session cache.
///
/// Holds the c-agnostic DT partitions — each carrying its per-group match
/// Selections (PredicateMatchCache), so rescoring cached partitions at a new
/// c never re-filters the table — plus full merged result lists keyed by
/// the c they were computed at, for one (table, query result, problem-sans-c)
/// instance. Many threads may run Scorpion::Explain() against one session
/// concurrently: lookups take a shared lock, while computing the
/// partitioning or storing a merged result takes the exclusive lock — so a
/// burst of same-problem requests computes DT partitions exactly once and
/// every other request reuses them.
class ExplainSession {
 public:
  ExplainSession() = default;
  SCORPION_DISALLOW_COPY_AND_ASSIGN(ExplainSession);

  /// Drops cached partitions and merged results (and any delta seed). The
  /// data key stays: it only moves forward, so a run still pinned to an
  /// older generation cannot re-key the cleared session back to it.
  void Clear();

  /// Re-keys the session to a newer generation of the same live table
  /// instead of dropping it cold. Cached DT partitions and merged results
  /// are cleared — their influence scores depend on data-dependent splits
  /// that must recompute against the grown table — but the partitions'
  /// per-predicate match caches, the old row count, and each group key's
  /// old result index (from `old_result`, the query result the session was
  /// built against) are parked as a SessionDeltaSeed. The next cold run
  /// rebuilds match caches through Scorer::BuildMatchCacheExtended,
  /// filtering only rows past the old high-water mark. The seed is
  /// one-shot: consumed by the first run that stores fresh partitions.
  ///
  /// Also installs the (generation, row-count) data key, so an in-flight
  /// run still scoring the *old* generation can no longer store stale
  /// state into (or read refreshed state out of) this session.
  ///
  /// Returns true when a seed was installed; false when the session had
  /// nothing reusable (it is then simply cleared and re-keyed).
  bool BeginDeltaRefresh(uint64_t new_generation, size_t new_num_rows,
                         const QueryResult& old_result);

 private:
  friend class Scorpion;

  /// One cached merged result list with its recency stamp (atomic — and
  /// mutable, so exact-c hits can refresh it under the shared lock through
  /// the const lookup path).
  struct MergedEntry {
    std::vector<ScoredPredicate> merged;
    mutable RelaxedCounter stamp;
  };

  /// Cached c values kept per session; beyond this the least-recently-used
  /// entry is evicted, so a client sweeping c continuously cannot grow the
  /// session without bound.
  static constexpr size_t kMaxMergedEntries = 16;

  uint64_t NextStamp() const {
    return stamp_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Exact-c lookup: copies the merged list cached for `c` into *out,
  /// refreshing the entry's recency stamp (atomic, so a shared lock
  /// suffices), and reports whether an entry existed.
  bool LookupMergedLocked(double c, std::vector<ScoredPredicate>* out) const
      SCORPION_REQUIRES_SHARED(mu_);

  /// Warm-start lookup: the merged list cached at the smallest c' > c,
  /// copied out. Results merged at a higher c remain valid starting points
  /// when c decreases (lower c merges *more*, so prior merges are prefixes
  /// of the new merge sequence).
  std::vector<ScoredPredicate> WarmSeedsLocked(double c) const
      SCORPION_REQUIRES_SHARED(mu_);

  /// Inserts/overwrites the merged list for c and evicts the LRU entry when
  /// over kMaxMergedEntries.
  void StoreMergedLocked(double c, std::vector<ScoredPredicate> merged)
      SCORPION_REQUIRES(mu_);

  /// The (generation, row-count) the session's cached state was built
  /// against. Unset until the first run (plain static tables never
  /// conflict); once set, every cached read and every store must match it —
  /// the guard that keeps an in-flight run on an old generation from
  /// exchanging state with a session BeginDeltaRefresh re-keyed under it.
  /// The key only moves forward (see AdvanceKeyLocked).
  struct DataKey {
    uint64_t generation = 0;
    size_t num_rows = 0;
    bool set = false;
  };

  /// True when cached state keyed as (generation, num_rows) may be read or
  /// written by a run over a table with that identity.
  bool KeyUsableLocked(uint64_t generation, size_t num_rows) const
      SCORPION_REQUIRES_SHARED(mu_) {
    return !key_.set ||
           (key_.generation == generation && key_.num_rows == num_rows);
  }
  void SetKeyLocked(uint64_t generation, size_t num_rows)
      SCORPION_REQUIRES(mu_) {
    key_ = DataKey{generation, num_rows, /*set=*/true};
  }

  /// Forward-only re-key before a run reads or stores under the exclusive
  /// lock: a run over a newer generation than the key drops the session's
  /// state (as BeginDeltaRefresh does without a seed) and takes the key.
  /// Returns whether the run may use the session; a run over an older
  /// generation never may, so it never stores.
  bool AdvanceKeyLocked(uint64_t generation, size_t num_rows)
      SCORPION_REQUIRES(mu_);

  /// Drops partitions, merged results and the delta seed; keeps the key.
  void DropStateLocked() SCORPION_REQUIRES(mu_);

  mutable SharedMutex mu_;
  bool has_partitions_ SCORPION_GUARDED_BY(mu_) = false;
  std::vector<ScoredPredicate> partitions_ SCORPION_GUARDED_BY(mu_);
  // The stamp clock is lock-free (mutable so const lookups can tick it).
  mutable std::atomic<uint64_t> stamp_clock_{0};
  // Merged results keyed by c, descending so the nearest-above lookup for
  // warm starts walks prefix entries.
  std::map<double, MergedEntry, std::greater<double>> merged_by_c_
      SCORPION_GUARDED_BY(mu_);
  DataKey key_ SCORPION_GUARDED_BY(mu_);
  // One-shot carry-over from the previous generation, installed by
  // BeginDeltaRefresh and consumed by the next cold partition build.
  std::unique_ptr<SessionDeltaSeed> seed_ SCORPION_GUARDED_BY(mu_);
};

/// \brief End-to-end explanation engine.
///
/// One-shot use:
///   Scorpion scorpion(options);
///   auto explanation = scorpion.Explain(table, query_result, problem);
///
/// Session use (reusing work across c values, e.g. a UI slider, or across
/// concurrent requests over one problem):
///   ExplainSession session;
///   auto e1 = scorpion.Explain(table, qr, problem_at_c1, &session);
///   auto e2 = scorpion.Explain(table, qr, problem_at_c2, &session);
///
/// A Scorpion instance is not safe for concurrent calls (options and the
/// owned pool mutate between runs); concurrent callers each use their own
/// Scorpion and share work through an ExplainSession + set_thread_pool().
class Scorpion {
 public:
  explicit Scorpion(ScorpionOptions options = {});

  const ScorpionOptions& options() const { return options_; }
  ScorpionOptions& mutable_options() { return options_; }

  /// Runs the configured algorithm once. `table` and `result` must outlive
  /// the returned Explanation only for predicate printing convenience.
  ///
  /// `session` (optional, caller-owned, may be shared by concurrent callers)
  /// caches DT partitions and merged results for one problem-sans-c; other
  /// algorithms ignore it. By default only result-invariant state is reused
  /// (DT partitions and exact-c results), so every run is bit-identical to a
  /// sessionless one. Opting into `cross_c_warm_start` seeds the merge from
  /// results cached at a higher c (Section 8.3.3) — influence can only
  /// improve on a cold run, but the output then depends on which c values
  /// were cached first, so runs are no longer bit-reproducible under
  /// concurrency.
  Result<Explanation> Explain(const Table& table, const QueryResult& result,
                              const ProblemSpec& problem,
                              ExplainSession* session = nullptr,
                              bool cross_c_warm_start = false);

  /// Attaches an externally owned pool used instead of building one from
  /// options().num_threads; api::Engine runs every explain, sync or async,
  /// on its one scoring pool this way. Pass nullptr to revert to the owned
  /// pool.
  /// The pool must outlive this Scorpion's last Explain call.
  void set_thread_pool(ThreadPool* pool) { external_pool_ = pool; }

 private:
  /// The external pool if set; otherwise a lazily (re)built owned pool
  /// matching options_.num_threads, or nullptr when running serially.
  ThreadPool* EnsurePool();

  ScorpionOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  ThreadPool* external_pool_ = nullptr;
};

}  // namespace scorpion
