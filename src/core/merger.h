// Merger: greedy bounding-box expansion of candidate predicates
// (Section 4.3), with the Section 6.3 optimizations:
//  1. only seeds in the top influence quartile are expanded;
//  2. for incrementally removable aggregates, candidate merges are ranked by
//     a cached-tuple volume-overlap approximation instead of exact scoring;
//     accepted merges are re-scored exactly before being kept.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/atomic_counter.h"
#include "core/options.h"
#include "core/scored_predicate.h"
#include "core/scorer.h"

namespace scorpion {

/// Counters for benchmark reporting. Atomic so they stay exact while
/// candidates are scored/estimated in parallel; copying snapshots.
/// exact_scores and estimated_scores count kernel work actually run; the
/// two *_reuses counters count the merged boxes Run() served from its
/// per-run memo instead. A memo-free Merger would report
/// exact_scores + exact_score_reuses exact scores, and likewise for the
/// estimates.
struct MergerStats {
  RelaxedCounter exact_scores;      // Scorer influence calls
  RelaxedCounter estimated_scores;  // cached-tuple approximations
  RelaxedCounter exact_score_reuses;  // merged boxes already exactly scored
  RelaxedCounter estimate_reuses;     // merged boxes already estimated
  RelaxedCounter merges_accepted;
  RelaxedCounter match_cache_scores;  // exact scores served from cached match
                                      // Selections (no bind/filter pass)
};

/// \brief Greedy predicate merger.
///
/// Run() compiles the scored candidates once into an attribute-indexed box
/// table (merger.cc): every attribute gets a slot with its resolved domain,
/// every candidate a slot-ordered range/set list with slot masks and its
/// representative's aggregate state. The grow scan, the Section 6.3
/// estimate and the accept loop's no-op check all run on that table; a
/// merged box becomes a Predicate only when the accept loop scores it
/// exactly. Seeds that start next to each other keep reaching the same
/// merged boxes, so Run() memoizes each distinct box's estimate and exact
/// score for the rest of the call and computes neither twice. All of Run()
/// is read-only on shared state except the counters, so the estimate pass
/// runs in parallel under the scorer's pool.
class Merger {
 public:
  /// Compiled partitions; opaque outside merger.cc.
  struct BoxTable;

  /// Partitions compiled once for repeated Section 6.3 estimates; Run()
  /// estimates through the same table and kernel. Immutable after
  /// MakeEstimator(), so concurrent Estimate() calls are safe. Must not
  /// outlive its Merger or the partitions it was made from.
  class Estimator {
   public:
    Estimator(Estimator&&) noexcept;
    ~Estimator();

    /// EstimateMergedInfluence(a, b, partitions).
    double Estimate(const ScoredPredicate& a, const ScoredPredicate& b) const;

   private:
    friend class Merger;
    Estimator(const Merger& merger, std::unique_ptr<const BoxTable> table);

    const Merger* merger_;
    std::unique_ptr<const BoxTable> table_;
  };

  /// `scorer` must outlive the Merger. `domains` provides attribute extents
  /// for volume computations (cached-tuple estimate).
  Merger(const Scorer& scorer, DomainMap domains, MergerOptions options);

  /// Expands `candidates` and returns the union of inputs and accepted
  /// merges, deduplicated (exact predicate identity, first occurrence
  /// kept), exactly scored, sorted by descending influence.
  Result<std::vector<ScoredPredicate>> Run(
      std::vector<ScoredPredicate> candidates) const;

  /// Two predicates are adjacent if their clauses touch or overlap on every
  /// attribute constrained by both (unconstrained attributes always touch).
  /// Adjacent predicates are merge candidates.
  static bool Adjacent(const Predicate& a, const Predicate& b);

  /// Section 6.3 approximation: influence of the bounding box of `a` and
  /// `b`, estimated by apportioning each input partition's cached tuple by
  /// the volume fraction of the partition inside the box. `all` supplies the
  /// surrounding partitions (the p3's of Figure 7). Requires an
  /// incrementally removable aggregate and PartitionInfo on the inputs;
  /// callers must check CanEstimate() first. Compiles `all` per call; use
  /// MakeEstimator() to estimate many merges against one partition set.
  double EstimateMergedInfluence(const ScoredPredicate& a,
                                 const ScoredPredicate& b,
                                 const std::vector<ScoredPredicate>& all) const;

  /// Compiles `partitions` (in order) for Estimator::Estimate: slots cover
  /// every DomainMap and clause attribute, and representative states are
  /// resolved when the estimate is on.
  Estimator MakeEstimator(const std::vector<ScoredPredicate>& partitions) const;

  /// True if the cached-tuple estimate is usable for these inputs.
  bool CanEstimate(const ScoredPredicate& a, const ScoredPredicate& b) const;

  MergerStats& stats() const { return stats_; }

 private:
  /// Ensures `sp.influence` holds the exact score.
  Status EnsureScored(ScoredPredicate* sp) const;

  /// True when Run() resolves representative states and estimates merges.
  bool Estimating() const;

  const Scorer& scorer_;
  DomainMap domains_;
  MergerOptions options_;
  mutable MergerStats stats_;
};

}  // namespace scorpion
