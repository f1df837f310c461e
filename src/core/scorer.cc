#include "core/scorer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/macros.h"
#include "predicate/candidate_batch.h"
#include "table/block_stats.h"
#include "table/selection.h"

namespace scorpion {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Fills (*out)[i] = eval(i) for i in [0, n). The serial path (null pool)
/// stops at the first non-finite value — one annihilated group already
/// forces the whole score to -infinity, so filtering the remaining groups
/// would be wasted work; the parallel path computes every slot and checks
/// afterwards. Returns true iff every evaluated value is finite; the values
/// up to the first non-finite one are identical in both paths.
template <typename Eval>
bool FillGroupInfluences(ThreadPool* pool, size_t n, std::vector<double>* out,
                         const Eval& eval) {
  out->resize(n);
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      (*out)[i] = eval(i);
      if (!std::isfinite((*out)[i])) return false;
    }
    return true;
  }
  pool->ParallelFor(0, n, [&](size_t i) { (*out)[i] = eval(i); });
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite((*out)[i])) return false;
  }
  return true;
}

}  // namespace

Result<Scorer> Scorer::Make(const Table& table, const QueryResult& result,
                            const ProblemSpec& problem) {
  SCORPION_RETURN_NOT_OK(problem.Validate(result));
  Scorer scorer;
  scorer.table_ = &table;
  scorer.result_ = &result;
  scorer.problem_ = &problem;
  SCORPION_ASSIGN_OR_RETURN(scorer.agg_,
                            GetAggregate(result.query.aggregate));
  SCORPION_ASSIGN_OR_RETURN(scorer.agg_col_,
                            table.ColumnByName(result.query.agg_attr));
  if (scorer.agg_col_->type() != DataType::kDouble) {
    return Status::TypeError("aggregate attribute must be continuous");
  }
  for (const std::string& attr : problem.attributes) {
    SCORPION_RETURN_NOT_OK(table.ColumnByName(attr).status());
  }

  scorer.incremental_ = scorer.agg_->is_incrementally_removable();
  const int n = static_cast<int>(result.results.size());
  scorer.original_values_.resize(n);
  scorer.group_means_.resize(n);
  if (scorer.incremental_) scorer.states_.resize(n);
  for (int i = 0; i < n; ++i) {
    const std::vector<double> values =
        ExtractValues(*scorer.agg_col_, result.results[i].input_group);
    scorer.original_values_[i] = scorer.agg_->Compute(values);
    double sum = 0.0;
    for (double v : values) sum += v;
    scorer.group_means_[i] =
        values.empty() ? 0.0 : sum / static_cast<double>(values.size());
    if (scorer.incremental_) {
      SCORPION_ASSIGN_OR_RETURN(scorer.states_[i], scorer.agg_->State(values));
    }
  }
  if (scorer.incremental_) {
    for (int idx : problem.outliers) {
      scorer.outlier_states_.push_back(scorer.states_[idx]);
    }
  }
  const SelectionConversionStats& conv = GlobalSelectionConversionStats();
  scorer.conv_b2v_at_make_ = conv.bitmap_to_vector.load();
  scorer.conv_v2b_at_make_ = conv.vector_to_bitmap.load();
  return scorer;
}

ScorerStats& Scorer::stats() const {
  const SelectionConversionStats& conv = GlobalSelectionConversionStats();
  stats_.bitmap_to_vector = conv.bitmap_to_vector.load() - conv_b2v_at_make_;
  stats_.vector_to_bitmap = conv.vector_to_bitmap.load() - conv_v2b_at_make_;
  stats_.blocks_pruned_none = prune_stats_.blocks_pruned_none.load();
  stats_.blocks_pruned_all = prune_stats_.blocks_pruned_all.load();
  stats_.blocks_partial = prune_stats_.blocks_partial.load();
  stats_.rows_skipped_by_pruning =
      prune_stats_.rows_skipped_by_pruning.load();
  return stats_;
}

void Scorer::ConfigureBound(BoundPredicate* bound) const {
  bound->set_enable_pruning(enable_block_pruning_);
  // Exact per-scorer pruning attribution: the bound reports into this
  // scorer's sink instead of the process-wide counters.
  bound->set_pruning_stats(&prune_stats_);
  // Block-level parallelism composes with the per-group ParallelFor above
  // it: nested calls run inline, so only top-level large filters (e.g.
  // BuildMatchCache's serial group loop) fan out over blocks.
  bound->set_thread_pool(pool_);
}

Result<Selection> Scorer::FilterGroup(const BoundPredicate& bound,
                                      const Selection& input) const {
  ++stats_.filter_kernels;
  stats_.rows_filtered += input.size();
  SCORPION_ASSIGN_OR_RETURN(Selection matched, bound.Filter(input));
  // Keep the scoring plane in vector form. `matched` is bitmap-only when
  // `input` was all-rows (dense kernel); materializing here — on a
  // thread-local value — guarantees the downstream algebra (e.g. Delta's
  // input_group.AndNot(matched)) takes the vector-vector path and never
  // triggers a lazy conversion on the *shared* input-group Selection from
  // a scoring thread.
  matched.rows();
  return matched;
}

double Scorer::RemovedDelta(int result_idx,
                            const std::vector<double>& removed_values) const {
  // These cannot fail for removable aggregates with well-formed states.
  AggState removed = agg_->State(removed_values).ValueOrDie();
  AggState remaining = agg_->Remove(states_[result_idx], removed).ValueOrDie();
  if (problem_->influence_mode == InfluenceMode::kMeanShift) {
    // Re-insert |matched| copies of the group mean. Our removable states
    // are element-wise additive, so state(mean x n) = n * state([mean]).
    AggState mean_state = agg_->State({group_means_[result_idx]}).ValueOrDie();
    for (double& v : mean_state) {
      v *= static_cast<double>(removed_values.size());
    }
    remaining = agg_->Update({remaining, mean_state}).ValueOrDie();
  }
  // original - updated; NaN propagates to signal an annihilated group.
  return original_values_[result_idx] -
         agg_->Recover(remaining).ValueOrDie();
}

double Scorer::Delta(int result_idx, const Selection& matched) const {
  ++stats_.group_deltas;
  if (matched.empty()) return 0.0;
  if (incremental_) {
    ++stats_.incremental_deltas;
    return RemovedDelta(result_idx, ExtractValues(*agg_col_, matched));
  }
  const AggregateResult& res = result_->results[result_idx];
  double updated;
  if (problem_->influence_mode == InfluenceMode::kMeanShift) {
    const RowIdList& group_rows = res.input_group.rows();
    const RowIdList& matched_rows = matched.rows();
    std::vector<double> values = ExtractValues(*agg_col_, group_rows);
    size_t m = 0;
    for (size_t i = 0; i < group_rows.size(); ++i) {
      if (m < matched_rows.size() && group_rows[i] == matched_rows[m]) {
        values[i] = group_means_[result_idx];
        ++m;
      }
    }
    updated = agg_->Compute(values);
  } else {
    const Selection remaining_rows = res.input_group.AndNot(matched);
    updated = agg_->Compute(ExtractValues(*agg_col_, remaining_rows));
  }
  // original - updated; NaN propagates to signal an annihilated group.
  return original_values_[result_idx] - updated;
}

double Scorer::GroupInfluence(int result_idx, const Selection& matched,
                              bool is_outlier, double error_vector) const {
  if (matched.empty()) return 0.0;
  double delta = Delta(result_idx, matched);
  if (!std::isfinite(delta)) return delta;  // NaN: annihilated group
  double denom = std::pow(static_cast<double>(matched.size()), problem_->c);
  double inf = delta / denom;
  return is_outlier ? inf * error_vector : inf;
}

Result<double> Scorer::InfluenceImpl(const Predicate* pred,
                                     const PredicateMatchCache* matches,
                                     bool with_holdouts) const {
  ++stats_.predicate_scores;
  std::optional<BoundPredicate> bound;
  if (matches == nullptr) {
    SCORPION_ASSIGN_OR_RETURN(bound, pred->Bind(*table_));
    ConfigureBound(&*bound);
  }
  // On a filter error (stale bound predicate) the lambda parks the status
  // in its per-index slot and yields -inf so the fill loop stops cheaply;
  // the serial scans below give errors precedence over the -inf result.
  auto group_influence = [&](int idx, bool is_outlier, double ev,
                             Status* status) {
    if (matches != nullptr) {
      ++stats_.match_cache_hits;
      return GroupInfluence(idx, (*matches)[idx], is_outlier, ev);
    }
    Result<Selection> matched =
        FilterGroup(*bound, result_->results[idx].input_group);
    if (!matched.ok()) {
      *status = matched.status();
      return kNegInf;
    }
    return GroupInfluence(idx, *matched, is_outlier, ev);
  };

  // Per-group work runs in parallel into per-index slots; the reductions
  // below stay serial in group order, so the result is bit-identical to a
  // serial run.
  const size_t num_outliers = problem_->outliers.size();
  std::vector<double> outlier_inf;
  std::vector<Status> outlier_status(num_outliers);
  bool finite = FillGroupInfluences(pool_, num_outliers, &outlier_inf,
                                    [&](size_t i) {
                                      return group_influence(
                                          problem_->outliers[i],
                                          /*is_outlier=*/true,
                                          problem_->error_vectors[i],
                                          &outlier_status[i]);
                                    });
  for (const Status& st : outlier_status) {
    SCORPION_RETURN_NOT_OK(st);
  }
  if (!finite) return kNegInf;
  double outlier_sum = 0.0;
  for (double inf : outlier_inf) outlier_sum += inf;
  double score = problem_->lambda * outlier_sum /
                 static_cast<double>(num_outliers);

  if (with_holdouts && !problem_->holdouts.empty() && problem_->lambda < 1.0) {
    std::vector<double> holdout_inf;
    std::vector<Status> holdout_status(problem_->holdouts.size());
    finite = FillGroupInfluences(pool_, problem_->holdouts.size(), &holdout_inf,
                                 [&](size_t i) {
                                   return group_influence(
                                       problem_->holdouts[i],
                                       /*is_outlier=*/false, 0.0,
                                       &holdout_status[i]);
                                 });
    for (const Status& st : holdout_status) {
      SCORPION_RETURN_NOT_OK(st);
    }
    if (!finite) return kNegInf;
    double max_penalty = 0.0;
    for (double inf : holdout_inf) {
      max_penalty = std::max(max_penalty, std::fabs(inf));
    }
    score -= (1.0 - problem_->lambda) * max_penalty;
  }
  return score;
}

Result<DetailedScore> Scorer::ScoreDetailed(const Predicate& pred) const {
  ++stats_.predicate_scores;
  SCORPION_ASSIGN_OR_RETURN(BoundPredicate bound, pred.Bind(*table_));
  ConfigureBound(&bound);
  auto matched_for = [&](int idx) -> Result<Selection> {
    return FilterGroup(bound, result_->results[idx].input_group);
  };

  DetailedScore out;
  const size_t num_outliers = problem_->outliers.size();
  out.matched_outlier.resize(num_outliers);
  std::vector<double> outlier_inf(num_outliers);
  std::vector<Status> outlier_status(num_outliers);
  ParallelForOver(pool_, 0, num_outliers, [&](size_t i) {
    int idx = problem_->outliers[i];
    Result<Selection> matched = matched_for(idx);
    if (!matched.ok()) {
      outlier_status[i] = matched.status();
      return;
    }
    outlier_inf[i] = GroupInfluence(idx, *matched, /*is_outlier=*/true,
                                    problem_->error_vectors[i]);
    out.matched_outlier[i] = matched.MoveValueUnsafe();
  });
  for (const Status& st : outlier_status) {
    SCORPION_RETURN_NOT_OK(st);
  }
  double outlier_sum = 0.0;
  bool annihilated = false;
  for (double inf : outlier_inf) {
    if (!std::isfinite(inf)) {
      annihilated = true;
    } else {
      outlier_sum += inf;
    }
  }
  if (annihilated) {
    out.full = kNegInf;
    out.outlier_only = kNegInf;
    return out;
  }
  out.outlier_only = problem_->lambda * outlier_sum /
                     static_cast<double>(num_outliers);
  out.full = out.outlier_only;
  if (!problem_->holdouts.empty() && problem_->lambda < 1.0) {
    std::vector<double> holdout_inf;
    std::vector<Status> holdout_status(problem_->holdouts.size());
    bool finite =
        FillGroupInfluences(pool_, problem_->holdouts.size(), &holdout_inf,
                            [&](size_t i) {
                              int idx = problem_->holdouts[i];
                              Result<Selection> matched = matched_for(idx);
                              if (!matched.ok()) {
                                holdout_status[i] = matched.status();
                                return kNegInf;
                              }
                              return GroupInfluence(idx, *matched,
                                                    /*is_outlier=*/false, 0.0);
                            });
    for (const Status& st : holdout_status) {
      SCORPION_RETURN_NOT_OK(st);
    }
    if (!finite) {
      out.full = kNegInf;
      return out;
    }
    double max_penalty = 0.0;
    for (double inf : holdout_inf) {
      max_penalty = std::max(max_penalty, std::fabs(inf));
    }
    out.full -= (1.0 - problem_->lambda) * max_penalty;
  }
  return out;
}

Result<double> Scorer::Influence(const Predicate& pred) const {
  return InfluenceImpl(&pred, /*matches=*/nullptr, /*with_holdouts=*/true);
}

Result<double> Scorer::InfluenceOutlierOnly(const Predicate& pred) const {
  return InfluenceImpl(&pred, /*matches=*/nullptr, /*with_holdouts=*/false);
}

Result<std::vector<double>> Scorer::InfluenceAll(
    const std::vector<Predicate>& preds) const {
  const size_t n = preds.size();
  if (!enable_candidate_batching_ || n < 2) {
    return ParallelMapOver<double>(
        pool_, n, [&](size_t i) { return Influence(preds[i]); });
  }
  const std::vector<CandidateBatchPlan> plan = PlanCandidateBatches(preds);
  std::vector<double> out(n);
  std::vector<Status> statuses(plan.size());
  ParallelForOver(pool_, 0, plan.size(), [&](size_t gi) {
    const CandidateBatchPlan& group = plan[gi];
    if (group.batch.has_value()) {
      Result<std::vector<double>> scores = InfluenceBatch(*group.batch);
      if (scores.ok()) {
        std::copy(scores->begin(), scores->end(),
                  out.begin() + static_cast<ptrdiff_t>(group.begin));
      } else {
        statuses[gi] = scores.status();
      }
    } else {
      Result<double> score = Influence(preds[group.begin]);
      if (score.ok()) {
        out[group.begin] = *score;
      } else {
        statuses[gi] = score.status();
      }
    }
  });
  for (const Status& s : statuses) {
    SCORPION_RETURN_NOT_OK(s);
  }
  return out;
}

Result<std::vector<double>> Scorer::InfluenceBatch(
    const CandidateBatch& batch) const {
  const size_t k = batch.size();
  stats_.predicate_scores += k;
  ++stats_.candidate_batches;
  SCORPION_ASSIGN_OR_RETURN(BoundCandidateBatch bound, batch.Bind(*table_));
  // Same data-plane configuration as ConfigureBound, plus the batch-only
  // shared-slice accounting.
  bound.set_enable_pruning(enable_block_pruning_);
  bound.set_pruning_stats(&prune_stats_);
  bound.set_thread_pool(pool_);
  bound.set_shared_blocks_counter(&stats_.blocks_shared_across_candidates);

  const bool with_holdouts =
      !problem_->holdouts.empty() && problem_->lambda < 1.0;
  const size_t num_outliers = problem_->outliers.size();
  const size_t num_groups =
      num_outliers + (with_holdouts ? problem_->holdouts.size() : 0);

  // One FilterBatch per input group; per-(group, candidate) influences land
  // in per-group slots so the group loop can run in parallel.
  std::vector<std::vector<double>> group_inf(num_groups);
  ParallelForOver(pool_, 0, num_groups, [&](size_t gi) {
    const bool is_outlier = gi < num_outliers;
    const int idx = is_outlier
                        ? problem_->outliers[gi]
                        : problem_->holdouts[gi - num_outliers];
    const Selection& input = result_->results[idx].input_group;
    ++stats_.filter_kernels;
    stats_.rows_filtered += input.size();
    std::vector<Selection> matched = bound.FilterBatch(input);
    std::vector<double>& slot = group_inf[gi];
    slot.resize(k);
    for (size_t c = 0; c < k; ++c) {
      // Keep the scoring plane in vector form (see FilterGroup).
      matched[c].rows();
      slot[c] = GroupInfluence(
          static_cast<int>(idx), matched[c], is_outlier,
          is_outlier ? problem_->error_vectors[gi] : 0.0);
    }
  });

  // Per-candidate serial reduction in group order — the exact operation
  // sequence of InfluenceImpl, so batched scores are bit-identical to k
  // Influence() calls.
  std::vector<double> out(k);
  for (size_t c = 0; c < k; ++c) {
    bool finite = true;
    double outlier_sum = 0.0;
    for (size_t gi = 0; gi < num_outliers; ++gi) {
      const double inf = group_inf[gi][c];
      if (!std::isfinite(inf)) {
        finite = false;
        break;
      }
      outlier_sum += inf;
    }
    if (!finite) {
      out[c] = kNegInf;
      continue;
    }
    double score =
        problem_->lambda * outlier_sum / static_cast<double>(num_outliers);
    if (with_holdouts) {
      double max_penalty = 0.0;
      for (size_t gi = num_outliers; gi < num_groups && finite; ++gi) {
        const double inf = group_inf[gi][c];
        if (!std::isfinite(inf)) {
          finite = false;
          break;
        }
        max_penalty = std::max(max_penalty, std::fabs(inf));
      }
      if (!finite) {
        out[c] = kNegInf;
        continue;
      }
      score -= (1.0 - problem_->lambda) * max_penalty;
    }
    out[c] = score;
  }
  return out;
}

Result<double> Scorer::InfluenceCached(const ScoredPredicate& sp) const {
  if (sp.matches != nullptr) {
    return InfluenceImpl(/*pred=*/nullptr, sp.matches.get(),
                         /*with_holdouts=*/true);
  }
  return Influence(sp.pred);
}

Result<std::shared_ptr<const PredicateMatchCache>> Scorer::BuildMatchCache(
    const Predicate& pred) const {
  SCORPION_ASSIGN_OR_RETURN(BoundPredicate bound, pred.Bind(*table_));
  ConfigureBound(&bound);
  PredicateMatchCache cache(result_->results.size());
  auto fill = [&](int idx) -> Status {
    // FilterGroup returns vector form, which is the only form the cached
    // scoring path reads — so concurrent readers never trigger a lazy
    // conversion, and no full-universe bitmap is pinned in the long-lived
    // session cache.
    SCORPION_ASSIGN_OR_RETURN(
        cache[idx], FilterGroup(bound, result_->results[idx].input_group));
    return Status::OK();
  };
  for (int idx : problem_->outliers) SCORPION_RETURN_NOT_OK(fill(idx));
  for (int idx : problem_->holdouts) SCORPION_RETURN_NOT_OK(fill(idx));
  return std::make_shared<const PredicateMatchCache>(std::move(cache));
}

Result<std::shared_ptr<const PredicateMatchCache>>
Scorer::BuildMatchCacheExtended(const Predicate& pred,
                                const SessionDeltaSeed* seed,
                                size_t* seed_hits) const {
  if (seed == nullptr || seed->old_num_rows == 0) {
    return BuildMatchCache(pred);
  }
  auto seed_it = seed->matches.find(pred);
  if (seed_it == seed->matches.end() || seed_it->second == nullptr) {
    return BuildMatchCache(pred);
  }
  const PredicateMatchCache& old_cache = *seed_it->second;
  const size_t old_n = seed->old_num_rows;
  const size_t new_n = table_->num_rows();
  SCORPION_ASSIGN_OR_RETURN(BoundPredicate bound, pred.Bind(*table_));
  ConfigureBound(&bound);
  PredicateMatchCache cache(result_->results.size());
  auto fill = [&](int idx) -> Status {
    const AggregateResult& res = result_->results[idx];
    // Locate the group's slot in the old cache by its key (indices can
    // shift when appends create new groups). A slot the old build never
    // filled — only outlier/hold-out slots are — still has a default
    // (universe 0) Selection; the universe check tells them apart.
    const Selection* old_matches = nullptr;
    auto key_it = seed->old_index_by_key.find(res.key_string);
    if (key_it != seed->old_index_by_key.end() &&
        static_cast<size_t>(key_it->second) < old_cache.size()) {
      const Selection& candidate = old_cache[key_it->second];
      if (candidate.universe_size() == old_n) old_matches = &candidate;
    }
    if (old_matches == nullptr) {
      SCORPION_ASSIGN_OR_RETURN(cache[idx],
                                FilterGroup(bound, res.input_group));
      return Status::OK();
    }
    // Rows below old_n are byte-identical across the generations and group
    // membership over them is unchanged, so the old matches stand; only
    // the appended suffix of the group needs the kernels.
    const RowIdList& group_rows = res.input_group.rows();
    auto split = std::lower_bound(group_rows.begin(), group_rows.end(),
                                  static_cast<RowId>(old_n));
    RowIdList delta_rows(split, group_rows.end());
    stats_.tail_rows_scanned += delta_rows.size();
    SCORPION_ASSIGN_OR_RETURN(
        Selection delta_matched,
        FilterGroup(bound,
                    Selection::FromSorted(std::move(delta_rows), new_n)));
    // Old matches are all < old_n and delta matches all >= old_n, both
    // ascending — concatenation is already sorted.
    RowIdList combined = old_matches->rows();
    const RowIdList& delta_list = delta_matched.rows();
    combined.insert(combined.end(), delta_list.begin(), delta_list.end());
    cache[idx] = Selection::FromSorted(std::move(combined), new_n);
    if (seed_hits != nullptr) ++*seed_hits;
    return Status::OK();
  };
  for (int idx : problem_->outliers) SCORPION_RETURN_NOT_OK(fill(idx));
  for (int idx : problem_->holdouts) SCORPION_RETURN_NOT_OK(fill(idx));
  return std::make_shared<const PredicateMatchCache>(std::move(cache));
}

double Scorer::TupleInfluence(int result_idx, RowId row) const {
  double inf;
  TupleInfluences(result_idx, &row, 1, &inf);
  return inf;
}

void Scorer::TupleInfluences(int result_idx, const RowId* rows, size_t n,
                             double* out) const {
  stats_.tuple_scores += n;
  auto it = std::find(problem_->outliers.begin(), problem_->outliers.end(),
                      result_idx);
  const bool is_outlier = it != problem_->outliers.end();
  const double ev =
      is_outlier
          ? problem_->error_vectors[static_cast<size_t>(
                it - problem_->outliers.begin())]
          : 1.0;
  auto finish = [&](double delta) {
    if (!std::isfinite(delta)) return kNegInf;
    return is_outlier ? delta * ev : delta;
  };
  if (incremental_) {
    // Delta's removable path for one-row bags, read straight from the
    // column: no Selection, no gather, one value buffer for the whole call.
    stats_.group_deltas += n;
    stats_.incremental_deltas += n;
    const double* values = agg_col_->doubles().data();
    std::vector<double> one(1);
    for (size_t i = 0; i < n; ++i) {
      one[0] = values[rows[i]];
      out[i] = finish(RemovedDelta(result_idx, one));
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] =
        finish(Delta(result_idx, Selection::Single(rows[i], table_->num_rows())));
  }
}

double Scorer::RowSetInfluence(int result_idx, const Selection& rows) const {
  auto it = std::find(problem_->outliers.begin(), problem_->outliers.end(),
                      result_idx);
  bool is_outlier = it != problem_->outliers.end();
  double ev = 1.0;
  if (is_outlier) {
    size_t pos = static_cast<size_t>(it - problem_->outliers.begin());
    ev = problem_->error_vectors[pos];
  }
  double inf = GroupInfluence(result_idx, rows, is_outlier, ev);
  return std::isfinite(inf) ? inf : kNegInf;
}

double Scorer::UpdatedValue(int result_idx, const Selection& rows) const {
  double delta = Delta(result_idx, rows);
  return original_values_[result_idx] - delta;
}

}  // namespace scorpion
