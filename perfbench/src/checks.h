// Output checks the benchmark applies to every response, independent of
// the engine's own scoring path.
#pragma once

#include <vector>

#include "api/dataset.h"
#include "core/scored_predicate.h"

namespace perfbench {

/// Checks one response against oracles that do not share the engine's
/// scoring code: at least one ranked predicate, finite influences in
/// non-increasing order, and a what-if view whose tuple counts and updated
/// values match a row-at-a-time evaluation of the best predicate followed
/// by a from-scratch Aggregate::Compute over the remaining rows.
scorpion::Status CheckResponse(const scorpion::Table& table,
                               const scorpion::QueryResult& result,
                               const scorpion::ProblemSpec& problem,
                               const scorpion::ExplainResponse& response);

/// True when the ranked predicates and their influences agree bit for bit.
bool SameRanking(const std::vector<scorpion::RankedPredicate>& a,
                 const std::vector<scorpion::ScoredPredicate>& b);

/// True when two responses agree bit for bit on the ranked list and the
/// what-if view (stats such as runtime are not compared).
bool SameAnswer(const scorpion::ExplainResponse& a,
                const scorpion::ExplainResponse& b);

/// F-score of `pred` over the outlier input groups against `truth` (sorted
/// row ids), per Section 8.2.
scorpion::Result<double> FScore(const scorpion::Table& table,
                                const scorpion::QueryResult& result,
                                const scorpion::ProblemSpec& problem,
                                const scorpion::Predicate& pred,
                                const scorpion::RowIdList& truth);

}  // namespace perfbench
