// Reference Merger: the clause-walking form the Merger had before it
// compiled candidates into slot-indexed boxes. Each clause is looked up by
// attribute name, each domain in the DomainMap, each representative state
// is recomputed per partition, and the expansion loop works on Predicates
// throughout. The Merger must agree with it bit for bit
// (tests/test_merger.cc).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/merger.h"
#include "core/scored_predicate.h"
#include "core/scorer.h"
#include "predicate/predicate.h"

namespace scorpion {
namespace reference {

/// Volume of (q ∩ box) / Volume(q), computed clause-wise without
/// materializing the intersection predicate.
inline double OverlapFraction(const Predicate& q, const Predicate& box,
                              const DomainMap& domains) {
  // Attributes unconstrained in q contribute the box clause's own domain
  // share.
  double frac = 1.0;
  for (const RangeClause& rq : q.ranges()) {
    const RangeClause* rb = box.FindRange(rq.attr);
    if (rb == nullptr) continue;  // box spans q fully on this attribute
    double width = rq.hi - rq.lo;
    if (width <= 0.0) {
      // Degenerate point clause: in or out.
      if (!rb->Contains(rq.lo)) return 0.0;
      continue;
    }
    double lo = std::max(rq.lo, rb->lo);
    double hi = std::min(rq.hi, rb->hi);
    if (hi <= lo) return 0.0;
    frac *= (hi - lo) / width;
  }
  for (const RangeClause& rb : box.ranges()) {
    if (q.FindRange(rb.attr) != nullptr) continue;
    auto it = domains.find(rb.attr);
    if (it == domains.end()) continue;
    double width = it->second.hi - it->second.lo;
    if (width <= 0.0) continue;
    double lo = std::max(rb.lo, it->second.lo);
    double hi = std::min(rb.hi, it->second.hi);
    if (hi <= lo) return 0.0;
    frac *= (hi - lo) / width;
  }
  for (const SetClause& sq : q.sets()) {
    const SetClause* sb = box.FindSet(sq.attr);
    if (sb == nullptr) continue;
    size_t overlap = 0;
    for (int32_t code : sq.codes) {
      if (sb->Contains(code)) ++overlap;
    }
    if (overlap == 0) return 0.0;
    frac *= static_cast<double>(overlap) /
            static_cast<double>(sq.codes.size());
  }
  for (const SetClause& sb : box.sets()) {
    if (q.FindSet(sb.attr) != nullptr) continue;
    auto it = domains.find(sb.attr);
    if (it == domains.end() || it->second.cardinality <= 0) continue;
    frac *= static_cast<double>(sb.codes.size()) /
            static_cast<double>(it->second.cardinality);
  }
  return std::clamp(frac, 0.0, 1.0);
}

/// Influence of BoundingBox(a, b), apportioning each partition of `all`
/// with a representative to the box by volume overlap.
inline double EstimateMergedInfluence(const Scorer& scorer,
                                      const DomainMap& domains,
                                      const ScoredPredicate& a,
                                      const ScoredPredicate& b,
                                      const std::vector<ScoredPredicate>& all) {
  const Predicate box = Predicate::BoundingBox(a.pred, b.pred);
  const ProblemSpec& problem = scorer.problem();
  const Aggregate& agg = scorer.aggregate();
  const size_t num_groups = problem.outliers.size();
  std::vector<double> removed_counts(num_groups, 0.0);
  std::vector<AggState> removed_states(num_groups);
  for (const ScoredPredicate& q : all) {
    if (!q.info.has_representative ||
        q.info.outlier_counts.size() != num_groups) {
      continue;
    }
    double frac = OverlapFraction(q.pred, box, domains);
    if (frac <= 0.0) continue;
    const double rep_value =
        scorer.agg_column().GetDouble(q.info.representative);
    const AggState rep_state = agg.State({rep_value}).ValueOrDie();
    for (size_t g = 0; g < num_groups; ++g) {
      double contrib = frac * static_cast<double>(q.info.outlier_counts[g]);
      if (contrib <= 0.0) continue;
      removed_counts[g] += contrib;
      if (removed_states[g].empty()) {
        removed_states[g].assign(rep_state.size(), 0.0);
      }
      for (size_t k = 0; k < rep_state.size(); ++k) {
        removed_states[g][k] += contrib * rep_state[k];
      }
    }
  }
  double sum = 0.0;
  for (size_t g = 0; g < num_groups; ++g) {
    if (removed_counts[g] < 1.0) continue;
    int result_idx = problem.outliers[g];
    auto remaining = agg.Remove(scorer.outlier_states()[g], removed_states[g]);
    if (!remaining.ok()) return -std::numeric_limits<double>::infinity();
    auto updated = agg.Recover(*remaining);
    if (!updated.ok() || !std::isfinite(*updated)) {
      return -std::numeric_limits<double>::infinity();
    }
    double delta = scorer.OriginalValue(result_idx) - *updated;
    double denom = std::pow(removed_counts[g], problem.c);
    sum += problem.error_vectors[g] * delta / denom;
  }
  return problem.lambda * sum / static_cast<double>(num_groups);
}

/// Clauses touch or overlap on every attribute both predicates range over.
inline bool Adjacent(const Predicate& a, const Predicate& b) {
  for (const RangeClause& ra : a.ranges()) {
    const RangeClause* rb = b.FindRange(ra.attr);
    if (rb == nullptr) continue;
    if (ra.lo > rb->hi || rb->lo > ra.hi) return false;
  }
  return true;
}

/// Every merged box MergerRun estimated or exactly scored, in call order,
/// repeats included.
struct MergerTrace {
  std::vector<Predicate> estimated;
  std::vector<Predicate> scored;
};

/// Merger::Run with the sequential accept loop and no memo: every merged
/// box is estimated and scored each time the expansion reaches it. Counts
/// exact scores, estimates and accepted merges into `stats`, and logs the
/// merged boxes into `trace` when given.
inline Result<std::vector<ScoredPredicate>> MergerRun(
    const Scorer& scorer, const DomainMap& domains,
    const MergerOptions& options, std::vector<ScoredPredicate> candidates,
    MergerStats* stats, MergerTrace* trace = nullptr) {
  const size_t num_groups = scorer.problem().outliers.size();
  auto can_estimate = [&](const ScoredPredicate& a, const ScoredPredicate& b) {
    return options.use_cached_tuple_estimate && scorer.incremental() &&
           a.info.has_representative && b.info.has_representative &&
           a.info.outlier_counts.size() == num_groups &&
           b.info.outlier_counts.size() == num_groups;
  };
  auto score = [&](ScoredPredicate* sp) -> Status {
    if (std::isfinite(sp->influence)) return Status::OK();
    ++stats->exact_scores;
    SCORPION_ASSIGN_OR_RETURN(sp->influence, scorer.Influence(sp->pred));
    return Status::OK();
  };
  candidates = UniqueByPredicate(std::move(candidates));
  for (ScoredPredicate& sp : candidates) SCORPION_RETURN_NOT_OK(score(&sp));
  std::sort(candidates.begin(), candidates.end(), ByInfluenceDesc);
  size_t num_seeds = candidates.size();
  if (options.top_quartile_only && candidates.size() >= 4) {
    num_seeds = std::max<size_t>(1, candidates.size() / 4);
  }
  std::vector<ScoredPredicate> results = candidates;
  for (size_t s = 0; s < num_seeds; ++s) {
    ScoredPredicate cur = candidates[s];
    for (int expansion = 0; expansion < options.max_expansions_per_seed;
         ++expansion) {
      struct Grow {
        const ScoredPredicate* other;
        double estimate;
      };
      std::vector<Grow> grow;
      for (const ScoredPredicate& other : candidates) {
        if (options.same_attributes_only &&
            other.pred.Attributes() != cur.pred.Attributes()) {
          continue;
        }
        if (Predicate::SyntacticallyContains(cur.pred, other.pred)) continue;
        if (!Adjacent(cur.pred, other.pred)) continue;
        grow.push_back({&other, 0.0});
        if (grow.size() >= options.max_candidates_per_step) break;
      }
      if (grow.empty()) break;
      for (Grow& g : grow) {
        if (can_estimate(cur, *g.other)) {
          ++stats->estimated_scores;
          if (trace != nullptr) {
            trace->estimated.push_back(
                Predicate::BoundingBox(cur.pred, g.other->pred));
          }
          g.estimate =
              EstimateMergedInfluence(scorer, domains, cur, *g.other,
                                      candidates);
        } else {
          g.estimate = g.other->influence;
        }
      }
      std::sort(grow.begin(), grow.end(), [](const Grow& a, const Grow& b) {
        return a.estimate > b.estimate;
      });
      bool accepted = false;
      for (const Grow& g : grow) {
        ScoredPredicate merged;
        merged.pred = Predicate::BoundingBox(cur.pred, g.other->pred);
        if (merged.pred == cur.pred) continue;
        if (trace != nullptr) trace->scored.push_back(merged.pred);
        SCORPION_RETURN_NOT_OK(score(&merged));
        if (!(merged.influence > cur.influence + 1e-12)) continue;
        merged.info = cur.info;
        if (cur.info.outlier_counts.size() ==
            g.other->info.outlier_counts.size()) {
          for (size_t i = 0; i < merged.info.outlier_counts.size(); ++i) {
            merged.info.outlier_counts[i] += g.other->info.outlier_counts[i];
          }
        }
        merged.internal_score =
            std::max(cur.internal_score, g.other->internal_score);
        cur = std::move(merged);
        accepted = true;
        ++stats->merges_accepted;
        break;
      }
      if (!accepted) break;
    }
    results.push_back(std::move(cur));
  }
  std::vector<ScoredPredicate> unique = UniqueByPredicate(std::move(results));
  std::sort(unique.begin(), unique.end(), ByInfluenceDesc);
  return unique;
}

}  // namespace reference
}  // namespace scorpion
