#include "checks.h"

#include <algorithm>
#include <cmath>

#include "aggregates/aggregate.h"
#include "common/macros.h"
#include "eval/experiment.h"
#include "eval/metrics.h"

namespace perfbench {

using namespace scorpion;

namespace {

bool SameDouble(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

Status CheckResponse(const Table& table, const QueryResult& result,
                     const ProblemSpec& problem,
                     const ExplainResponse& response) {
  if (response.predicates.empty()) {
    return Status::Internal("response has no predicates");
  }
  for (size_t i = 0; i < response.predicates.size(); ++i) {
    const double inf = response.predicates[i].influence;
    if (!std::isfinite(inf) ||
        (i > 0 && inf > response.predicates[i - 1].influence)) {
      return Status::Internal("influences not finite and non-increasing");
    }
  }
  if (response.what_if.size() != result.results.size()) {
    return Status::Internal("what-if view does not cover every group");
  }
  SCORPION_ASSIGN_OR_RETURN(const Aggregate* agg,
                            GetAggregate(result.query.aggregate));
  SCORPION_ASSIGN_OR_RETURN(const Column* values,
                            table.ColumnByName(result.query.agg_attr));
  SCORPION_ASSIGN_OR_RETURN(BoundPredicate best,
                            response.best().pred.Bind(table));
  std::vector<double> kept;
  for (size_t i = 0; i < result.results.size(); ++i) {
    const AggregateResult& group = result.results[i];
    const WhatIfEntry& entry = response.what_if[i];
    kept.clear();
    uint64_t removed = 0;
    for (RowId row : group.input_group.rows()) {
      if (best.Matches(row)) {
        ++removed;
      } else {
        kept.push_back(values->GetDouble(row));
      }
    }
    const int idx = static_cast<int>(i);
    if (entry.key != group.key_string || !SameDouble(entry.original, group.value) ||
        entry.tuples_removed != removed ||
        entry.is_outlier != Contains(problem.outliers, idx) ||
        entry.is_holdout != Contains(problem.holdouts, idx)) {
      return Status::Internal("what-if entry disagrees for group " +
                              group.key_string);
    }
    // The engine updates aggregate states incrementally; recomputation may
    // differ in the last bits, never by more than rounding.
    const double expected = agg->Compute(kept);
    const double tolerance =
        1e-7 * (std::fabs(expected) + std::fabs(group.value) + 1.0);
    if (!SameDouble(entry.updated, expected) &&
        !(std::fabs(entry.updated - expected) <= tolerance)) {
      return Status::Internal("what-if updated value wrong for group " +
                              group.key_string);
    }
  }
  return Status::OK();
}

bool SameRanking(const std::vector<RankedPredicate>& a,
                 const std::vector<ScoredPredicate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].pred == b[i].pred) || !SameDouble(a[i].influence, b[i].influence)) {
      return false;
    }
  }
  return true;
}

bool SameAnswer(const ExplainResponse& a, const ExplainResponse& b) {
  if (a.predicates.size() != b.predicates.size() ||
      a.what_if.size() != b.what_if.size()) {
    return false;
  }
  for (size_t i = 0; i < a.predicates.size(); ++i) {
    if (!(a.predicates[i].pred == b.predicates[i].pred) ||
        !SameDouble(a.predicates[i].influence, b.predicates[i].influence)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.what_if.size(); ++i) {
    const WhatIfEntry& x = a.what_if[i];
    const WhatIfEntry& y = b.what_if[i];
    if (x.key != y.key || !SameDouble(x.original, y.original) ||
        !SameDouble(x.updated, y.updated) ||
        x.tuples_removed != y.tuples_removed) {
      return false;
    }
  }
  return true;
}

Result<double> FScore(const Table& table, const QueryResult& result,
                      const ProblemSpec& problem, const Predicate& pred,
                      const RowIdList& truth) {
  SCORPION_ASSIGN_OR_RETURN(RowIdList outlier_union,
                            OutlierUnion(result, problem));
  SCORPION_ASSIGN_OR_RETURN(AccuracyStats stats,
                            EvaluatePredicate(table, pred, outlier_union, truth));
  return stats.f_score;
}

}  // namespace perfbench
