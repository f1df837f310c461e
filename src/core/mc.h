// MC partitioner (Section 6.2): bottom-up subspace search for independent,
// anti-monotonic aggregates (COUNT, SUM over non-negative data, MAX).
//
// Modeled on CLIQUE subspace clustering: start from single-attribute units,
// repeatedly intersect same-dimensionality predicates sharing all but one
// attribute, prune, merge adjacent units, and keep iterating while the
// merged results improve on the best predicate so far.
//
// Pruning (the paper's PRUNE, adapted per the Figure 6 discussion): a
// predicate survives if either
//   (a) its hold-out-free influence >= inf(best) — a contained refinement
//       that avoids the hold-outs could match it (Figure 6a), or
//   (b) it contains a tuple whose individual influence > inf(best) — since
//       influence = Delta/n^c is not anti-monotone even when Delta is, a
//       small refinement around a high-influence tuple can still win.
// The paper's pseudocode applies the two tests sequentially; we OR them,
// which is strictly more conservative (prunes less) and avoids discarding a
// currently-bad predicate that encloses a high-influence region.
#pragma once

#include <vector>

#include "core/merger.h"
#include "core/options.h"
#include "core/scored_predicate.h"
#include "core/scorer.h"

namespace scorpion {

/// Counters for benchmark reporting.
struct MCStats {
  uint64_t units_generated = 0;
  uint64_t predicates_scored = 0;
  uint64_t predicates_pruned = 0;
  uint64_t iterations = 0;
};

/// \brief Bottom-up subspace partitioner.
class MCPartitioner {
 public:
  MCPartitioner(const Scorer& scorer, MCOptions options,
                MergerOptions merger_options);

  /// Returns ranked predicates, best first. InvalidArgument if the
  /// aggregate's Delta is not anti-monotone on the outlier data or the
  /// aggregate is not independent.
  Result<std::vector<ScoredPredicate>> Run();

  const MCStats& stats() const { return stats_; }

  /// Counters of the internal Merger after the last Run().
  const MergerStats& merger_stats() const { return merger_stats_; }

 private:
  struct MCCandidate {
    ScoredPredicate scored;
    double outlier_only = 0.0;
    double max_tuple_influence = 0.0;
  };

  /// Single-attribute unit predicates (initialize_predicates).
  Result<std::vector<Predicate>> InitialUnits() const;

  /// Scores a predicate and computes its max-tuple pruning bound.
  Result<MCCandidate> ScoreCandidate(const Predicate& pred) const;

  const Scorer& scorer_;
  MCOptions options_;
  MergerOptions merger_options_;
  MCStats stats_;
  MergerStats merger_stats_;

  /// Tuple influence per table row for rows in outlier input groups
  /// (NaN elsewhere); backs the max-tuple bound and high-cardinality
  /// attribute seeding.
  std::vector<double> row_influence_;
};

}  // namespace scorpion
