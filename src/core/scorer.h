// Scorer: computes predicate influence (Section 3.2 / Section 7).
//
// The Scorer is the hot loop of every search algorithm. Candidate match sets
// flow through it as columnar Selections: BoundPredicate's vectorized
// kernels produce them, the Selection algebra combines them, and only the
// value-gather for aggregate states touches the sorted row form. For
// incrementally removable aggregates it caches state(g) per input group once
// and evaluates Delta(p) by building state(p(g)) from only the matched
// tuples and calling remove/recover — never rereading the unmatched part of
// the group (Section 5.1). Black-box aggregates fall back to recomputation
// over the complement.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "aggregates/aggregate.h"
#include "common/atomic_counter.h"
#include "common/thread_pool.h"
#include "core/problem.h"
#include "core/scored_predicate.h"
#include "predicate/predicate.h"
#include "query/groupby.h"
#include "table/selection.h"
#include "table/table.h"

namespace scorpion {

struct CandidateBatch;

/// Full breakdown of a predicate's score, used by MC's pruning rules.
struct DetailedScore {
  /// inf(O, H, p, V).
  double full = 0.0;
  /// inf(O, {}, p, V) — the hold-out-free conservative bound.
  double outlier_only = 0.0;
  /// Rows of each outlier input group matched by the predicate, aligned
  /// with ProblemSpec::outliers.
  std::vector<Selection> matched_outlier;
};

/// Running counters, exposed so benchmarks can report scorer traffic.
/// The counters are atomic so they stay exact when scoring runs under
/// ScorpionOptions::num_threads > 1; copying snapshots the current values.
struct ScorerStats {
  RelaxedCounter predicate_scores;   // full inf(O,H,p,V) evaluations
  RelaxedCounter group_deltas;       // per-group Delta computations
  RelaxedCounter tuple_scores;       // single-tuple influence computations
  RelaxedCounter incremental_deltas; // Deltas served by the removable path
  // Data-plane kernel traffic (see the selection-vector data plane in the
  // README). rows_filtered counts input rows pushed through the vectorized
  // filter kernels; match_cache_hits counts group filters skipped because a
  // PredicateMatchCache supplied the match set; the conversion counters are
  // deltas of the process-wide Selection counters since Scorer::Make (exact
  // when one scorer is active, an upper bound otherwise).
  RelaxedCounter rows_filtered;
  RelaxedCounter filter_kernels;
  RelaxedCounter match_cache_hits;
  RelaxedCounter bitmap_to_vector;
  RelaxedCounter vector_to_bitmap;
  // Zone-map block pruning (src/table/block_stats.h): blocks classified
  // NONE (skipped), ALL (word-filled) or PARTIAL (kernels ran), and the
  // rows of NONE/ALL blocks whose column data was never read. Exact per
  // scorer (every bound predicate reports into a scorer-owned sink), so
  // they stay correct when many requests score concurrently.
  RelaxedCounter blocks_pruned_none;
  RelaxedCounter blocks_pruned_all;
  RelaxedCounter blocks_partial;
  RelaxedCounter rows_skipped_by_pruning;
  // Candidate-batched evaluation (predicate/candidate_batch.h): batches
  // dispatched (InfluenceAll runs plus DT one-pass split sweeps), and
  // column block loads saved because several candidates shared one loaded
  // block slice instead of each loading it.
  RelaxedCounter candidate_batches;
  RelaxedCounter blocks_shared_across_candidates;
  // Live-table delta refresh (src/storage/): rows past a session's old
  // high-water mark filtered by BuildMatchCacheExtended instead of
  // refiltering whole groups from row zero.
  RelaxedCounter tail_rows_scanned;
};

/// \brief Carry-over state for refreshing an ExplainSession onto a newer
/// generation of the same live table.
///
/// Holds the per-predicate match caches built at the old generation, the
/// old row count (the high-water mark: every row below it is byte-identical
/// across the two generations), and the old result index for each group
/// key (group indices can shift when appends create new groups).
/// Scorer::BuildMatchCacheExtended consumes this to extend cached per-group
/// match Selections by filtering only the appended suffix.
struct SessionDeltaSeed {
  size_t old_num_rows = 0;
  /// Predicate (exact identity: Predicate::Hash and operator==) → the match
  /// cache built for it at the old generation.
  std::unordered_map<Predicate, std::shared_ptr<const PredicateMatchCache>>
      matches;
  /// Never read. The former key, Predicate::ToString, prints bounds to 6
  /// significant digits, so distinct predicates could share one entry and
  /// reuse each other's matches; only `matches` seeds an extension now.
  /// Kept so existing callers that fill it still compile (they get cold
  /// filters); remove once none do.
  std::map<std::string, std::shared_ptr<const PredicateMatchCache>>
      matches_by_pred;
  /// Group key_string → result index at the old generation.
  std::map<std::string, int> old_index_by_key;
};

/// \brief Influence oracle bound to one (table, query result, problem).
class Scorer {
 public:
  /// Builds a scorer; caches per-group aggregate values/states.
  /// `result` and `table` must outlive the Scorer.
  static Result<Scorer> Make(const Table& table, const QueryResult& result,
                             const ProblemSpec& problem);

  /// inf(O, H, p, V): lambda-weighted mean outlier influence minus
  /// (1-lambda) * max hold-out |influence| (Section 3.2), with the
  /// cardinality exponent c applied per Section 7. Returns -infinity for
  /// predicates that annihilate a group whose aggregate is undefined on the
  /// empty bag (e.g. AVG): deleting a whole group explains nothing.
  Result<double> Influence(const Predicate& pred) const;

  /// inf(O, {}, p, V): hold-out-free influence, the conservative bound MC
  /// prunes with (Section 6.2, Figure 6 discussion). Still multiplied by
  /// lambda so it upper-bounds Influence().
  Result<double> InfluenceOutlierOnly(const Predicate& pred) const;

  /// Influence of a ScoredPredicate, serving the per-group match sets from
  /// sp.matches when attached (skipping bind + filter entirely) and falling
  /// back to Influence(sp.pred) otherwise. Bit-identical either way: both
  /// paths share one evaluation routine and reduction order.
  Result<double> InfluenceCached(const ScoredPredicate& sp) const;

  /// Influence of every predicate, in input order. With candidate batching
  /// enabled, consecutive predicates that differ in exactly one clause on
  /// one attribute are factored into CandidateBatches and scored through
  /// the one-pass-per-block FilterBatch plane; everything else (and the
  /// whole list when batching is off) goes through per-predicate Influence
  /// in a ParallelMapOver. Bit-identical
  /// either way: the batched filter and the batched reduction reproduce
  /// Influence's exact row sets and floating-point operation order.
  Result<std::vector<double>> InfluenceAll(
      const std::vector<Predicate>& preds) const;

  /// Filters every outlier/hold-out input group by `pred` into a shareable,
  /// fully materialized match cache (the c-agnostic half of a score; see
  /// PredicateMatchCache).
  Result<std::shared_ptr<const PredicateMatchCache>> BuildMatchCache(
      const Predicate& pred) const;

  /// BuildMatchCache with live-table delta refresh: when `seed` carries a
  /// cache for `pred` built at an older generation whose encoded rows are a
  /// prefix of this table's, each group's old match Selection is reused
  /// verbatim and only group rows past seed->old_num_rows are filtered.
  /// Bit-identical to a cold build — filtering is row-local and the shared
  /// prefix is byte-identical, so old matches ∪ filter(appended rows) is
  /// exactly filter(whole group). Groups the old cache never filled (only
  /// outlier/hold-out slots are built) and groups new at this generation
  /// fall back to a cold filter. `seed_hits`, when non-null, is incremented
  /// once per group served by extension. A null `seed` degrades to
  /// BuildMatchCache.
  Result<std::shared_ptr<const PredicateMatchCache>> BuildMatchCacheExtended(
      const Predicate& pred, const SessionDeltaSeed* seed,
      size_t* seed_hits) const;

  /// Full + hold-out-free influence and the matched outlier rows, in one
  /// pass over the input groups.
  Result<DetailedScore> ScoreDetailed(const Predicate& pred) const;

  /// Influence of the singleton predicate matching exactly `row`, which must
  /// belong to the input group of result `result_idx`. Uses the error vector
  /// if the result is an outlier, |Delta| if it is a hold-out. Cardinality
  /// exponent is irrelevant for singletons (1^c = 1).
  double TupleInfluence(int result_idx, RowId row) const;

  /// TupleInfluence of each of rows[0..n) (all in result `result_idx`'s
  /// input group) into out[0..n), with the same per-tuple arithmetic. The
  /// error vector is resolved once and the counters move once per call.
  void TupleInfluences(int result_idx, const RowId* rows, size_t n,
                       double* out) const;

  /// Influence of removing an explicit subset of result `result_idx`'s input
  /// group (rows must all belong to that group). Signed by the error vector
  /// for outliers.
  double RowSetInfluence(int result_idx, const Selection& rows) const;

  /// Aggregate value of group `result_idx` after removing `rows`.
  double UpdatedValue(int result_idx, const Selection& rows) const;

  // --- Accessors used by the partitioners ------------------------------------

  const Table& table() const { return *table_; }
  const QueryResult& query_result() const { return *result_; }
  const ProblemSpec& problem() const { return *problem_; }
  const Aggregate& aggregate() const { return *agg_; }
  const Column& agg_column() const { return *agg_col_; }

  /// Per-outlier-group cached states (only for removable aggregates);
  /// indexed like problem().outliers.
  const std::vector<AggState>& outlier_states() const { return outlier_states_; }

  /// Original aggregate value agg(g_i) for result i.
  double OriginalValue(int result_idx) const {
    return original_values_[result_idx];
  }

  /// True if the removable fast path is active.
  bool incremental() const { return incremental_; }

  /// Attaches a pool for per-group parallel scoring; nullptr (the default)
  /// scores serially. The pool must outlive the Scorer's last scoring call.
  /// Output is bit-identical with and without a pool: per-group influences
  /// land in per-index slots and the reduction stays serial in group order.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// Arms/disarms zone-map block pruning on every predicate this scorer
  /// binds (ScorpionOptions::enable_block_pruning; bit-identical output
  /// either way).
  void set_enable_block_pruning(bool enabled) {
    enable_block_pruning_ = enabled;
  }

  /// Arms/disarms candidate-batched evaluation (InfluenceAll batching and
  /// the DT one-pass split sweep; ScorpionOptions::enable_candidate_batching).
  /// Bit-identical output either way.
  void set_enable_candidate_batching(bool enabled) {
    enable_candidate_batching_ = enabled;
  }
  bool candidate_batching_enabled() const {
    return enable_candidate_batching_;
  }

  /// Counts one candidate batch dispatched outside InfluenceAll (the DT
  /// split sweep evaluates batches without filtering). Thread-safe.
  void NoteCandidateBatch() const { ++stats_.candidate_batches; }

  /// Counter snapshot accessor; refreshes the Selection-conversion deltas.
  ScorerStats& stats() const;

  /// Applies the scorer's data-plane configuration (pruning flag, thread
  /// pool, per-scorer pruning-counter sink) to a freshly bound predicate.
  /// Public so API-layer binds (e.g. the Dataset what-if view) follow the
  /// engine's configuration instead of the process-wide defaults.
  void ConfigureBound(BoundPredicate* bound) const;

 private:
  Scorer() = default;

  /// Filters `input` through `bound`, counting kernel traffic.
  /// FailedPrecondition if `bound`'s table moved on since Bind().
  Result<Selection> FilterGroup(const BoundPredicate& bound,
                                const Selection& input) const;

  /// Delta(result, matched rows) with sign = original - updated.
  double Delta(int result_idx, const Selection& matched) const;

  /// Delta's removable-aggregate path over the matched rows' values:
  /// state/remove/recover against the group's cached state. Callers count
  /// it in stats_.incremental_deltas.
  double RemovedDelta(int result_idx,
                      const std::vector<double>& removed_values) const;

  /// Influence contribution of one result given its matched rows.
  /// For outliers multiplies by the error vector; hold-outs return the raw
  /// signed influence (callers take |.|).
  double GroupInfluence(int result_idx, const Selection& matched,
                        bool is_outlier, double error_vector) const;

  /// Shared evaluation core. Match sets come from `matches` when non-null,
  /// else from binding and filtering `pred`; the reduction structure is
  /// identical for both, so a cached rescoring is bit-identical to a cold
  /// one.
  Result<double> InfluenceImpl(const Predicate* pred,
                               const PredicateMatchCache* matches,
                               bool with_holdouts) const;

  /// Scores every candidate of one batch: one FilterBatch per input group,
  /// then a per-candidate serial reduction identical to InfluenceImpl's.
  Result<std::vector<double>> InfluenceBatch(const CandidateBatch& batch) const;

  const Table* table_ = nullptr;
  const QueryResult* result_ = nullptr;
  const ProblemSpec* problem_ = nullptr;
  const Aggregate* agg_ = nullptr;
  const Column* agg_col_ = nullptr;
  ThreadPool* pool_ = nullptr;
  bool incremental_ = false;
  bool enable_block_pruning_ = true;
  bool enable_candidate_batching_ = true;

  // Cached per result index (whole result set, so holdouts too).
  std::vector<double> original_values_;   // agg(g_i)
  std::vector<double> group_means_;       // mean of A_agg over g_i
  std::vector<AggState> states_;          // state(g_i), removable only
  std::vector<AggState> outlier_states_;  // states_ restricted to outliers

  // Global Selection conversion counts at Make() time, for per-run deltas.
  uint64_t conv_b2v_at_make_ = 0;
  uint64_t conv_v2b_at_make_ = 0;

  // Scorer-local pruning sink installed on every bound predicate; exact
  // attribution regardless of concurrent scorers.
  mutable BlockPruningStats prune_stats_;

  mutable ScorerStats stats_;
};

}  // namespace scorpion
