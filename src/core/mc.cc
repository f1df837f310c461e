#include "core/mc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "aggregates/aggregate.h"
#include "common/macros.h"

namespace scorpion {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

MCPartitioner::MCPartitioner(const Scorer& scorer, MCOptions options,
                             MergerOptions merger_options)
    : scorer_(scorer), options_(options), merger_options_(merger_options) {
  // MC units carry no PartitionInfo, so the cached-tuple estimate never
  // applies; force it off to keep the merger on the exact path. Merging is
  // restricted to units of the same subspace (see MergerOptions).
  merger_options_.use_cached_tuple_estimate = false;
  merger_options_.top_quartile_only = false;
  merger_options_.same_attributes_only = true;
}

Result<std::vector<Predicate>> MCPartitioner::InitialUnits() const {
  const ProblemSpec& problem = scorer_.problem();
  std::vector<Predicate> units;
  for (const std::string& attr : problem.attributes) {
    SCORPION_ASSIGN_OR_RETURN(const Column* col,
                              scorer_.table().ColumnByName(attr));
    if (col->type() == DataType::kDouble) {
      const int n = options_.num_continuous_splits;
      SCORPION_ASSIGN_OR_RETURN(const double lo, col->Min());
      SCORPION_ASSIGN_OR_RETURN(const double hi, col->Max());
      if (hi <= lo) continue;
      double width = (hi - lo) / n;
      for (int i = 0; i < n; ++i) {
        Predicate p;
        RangeClause r;
        r.attr = attr;
        r.lo = lo + i * width;
        r.hi = (i == n - 1) ? hi : lo + (i + 1) * width;
        r.hi_inclusive = (i == n - 1);
        SCORPION_RETURN_NOT_OK(p.AddRange(r));
        units.push_back(std::move(p));
      }
    } else {
      // One unit per distinct value; for high-cardinality attributes keep
      // only the values with the largest summed outlier tuple influence.
      const int card = col->Cardinality();
      std::vector<int32_t> codes;
      if (card <= options_.max_discrete_values) {
        codes.resize(card);
        for (int32_t c = 0; c < card; ++c) codes[c] = c;
      } else {
        std::vector<double> mass(static_cast<size_t>(card), 0.0);
        for (int idx : scorer_.problem().outliers) {
          for (RowId r :
               scorer_.query_result().results[idx].input_group.rows()) {
            double inf = row_influence_[r];
            if (std::isfinite(inf) && inf > 0.0) {
              mass[static_cast<size_t>(col->GetCode(r))] += inf;
            }
          }
        }
        std::vector<int32_t> order(static_cast<size_t>(card));
        for (int32_t c = 0; c < card; ++c) order[c] = c;
        std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
          return mass[a] > mass[b] || (mass[a] == mass[b] && a < b);
        });
        order.resize(static_cast<size_t>(options_.max_discrete_values));
        codes = std::move(order);
      }
      for (int32_t c : codes) {
        Predicate p;
        SCORPION_RETURN_NOT_OK(p.AddSet({attr, {c}}));
        units.push_back(std::move(p));
      }
    }
  }
  return units;
}

Result<MCPartitioner::MCCandidate> MCPartitioner::ScoreCandidate(
    const Predicate& pred) const {
  SCORPION_ASSIGN_OR_RETURN(DetailedScore score, scorer_.ScoreDetailed(pred));
  MCCandidate cand;
  cand.scored.pred = pred;
  cand.scored.influence = score.full;
  cand.outlier_only = score.outlier_only;
  cand.max_tuple_influence = kNegInf;
  for (const Selection& matched : score.matched_outlier) {
    for (RowId r : matched.rows()) {
      double inf = row_influence_[r];
      if (std::isfinite(inf)) {
        cand.max_tuple_influence = std::max(cand.max_tuple_influence, inf);
      }
    }
  }
  return cand;
}

Result<std::vector<ScoredPredicate>> MCPartitioner::Run() {
  const ProblemSpec& problem = scorer_.problem();
  const Aggregate& agg = scorer_.aggregate();
  if (!agg.is_independent()) {
    return Status::InvalidArgument("MC requires an independent aggregate; " +
                                   agg.name() + " is not");
  }
  // The anti-monotonicity gate: check(D) over the union of outlier groups
  // (Section 5.3).
  {
    std::vector<double> values;
    for (int idx : problem.outliers) {
      const std::vector<double> group_values = ExtractValues(
          scorer_.agg_column(), scorer_.query_result().results[idx].input_group);
      values.insert(values.end(), group_values.begin(), group_values.end());
    }
    if (!agg.CheckAntiMonotone(values)) {
      return Status::InvalidArgument(
          agg.name() +
          ".check(D) failed: Delta is not anti-monotone on this data "
          "(e.g. SUM over negative values); use DT or NAIVE");
    }
  }

  // Precompute tuple influences over the outlier groups once; both pruning
  // rule (b) and high-cardinality unit seeding read from this.
  row_influence_.assign(scorer_.table().num_rows(), kNaN);
  for (size_t i = 0; i < problem.outliers.size(); ++i) {
    int idx = problem.outliers[i];
    for (RowId r : scorer_.query_result().results[idx].input_group.rows()) {
      row_influence_[r] = scorer_.TupleInfluence(idx, r);
    }
  }

  SCORPION_ASSIGN_OR_RETURN(DomainMap domains,
                            ComputeDomains(scorer_.table(),
                                           problem.attributes));
  Merger merger(scorer_, domains, merger_options_);

  ScoredPredicate best;
  best.influence = kNegInf;
  std::vector<ScoredPredicate> all_merged;

  // Current frontier of scored, surviving predicates.
  std::vector<MCCandidate> predicates;
  const int max_dims = std::min<int>(options_.max_iterations,
                                     static_cast<int>(problem.attributes.size()));

  for (int iteration = 0; iteration < max_dims; ++iteration) {
    ++stats_.iterations;
    // --- Candidate generation (initialize / intersect) ---------------------
    std::vector<Predicate> fresh;
    if (iteration == 0) {
      SCORPION_ASSIGN_OR_RETURN(fresh, InitialUnits());
    } else {
      std::unordered_set<Predicate> seen;
      for (size_t i = 0; i < predicates.size() && fresh.size() <
           options_.max_candidates_per_iteration; ++i) {
        for (size_t j = i + 1; j < predicates.size() && fresh.size() <
             options_.max_candidates_per_iteration; ++j) {
          const Predicate& a = predicates[i].scored.pred;
          const Predicate& b = predicates[j].scored.pred;
          // CLIQUE-style join: same dimensionality, sharing all but one
          // attribute, so the intersection gains exactly one dimension.
          if (a.num_clauses() != b.num_clauses()) continue;
          std::vector<std::string> attrs_a = a.Attributes();
          std::vector<std::string> attrs_b = b.Attributes();
          std::vector<std::string> all_attrs;
          std::set_union(attrs_a.begin(), attrs_a.end(), attrs_b.begin(),
                         attrs_b.end(), std::back_inserter(all_attrs));
          if (static_cast<int>(all_attrs.size()) != a.num_clauses() + 1) {
            continue;
          }
          auto inter = Predicate::Intersect(a, b);
          if (!inter.has_value()) continue;
          if (seen.insert(*inter).second) {
            fresh.push_back(std::move(*inter));
          }
        }
      }
    }
    if (fresh.empty()) break;
    stats_.units_generated += fresh.size();

    // --- Scoring (parallel across candidates) -------------------------------
    // Candidates score into per-index slots; the pruning pass below stays
    // serial in candidate order, so the output is bit-identical to a serial
    // run.
    SCORPION_ASSIGN_OR_RETURN(
        std::vector<MCCandidate> scored,
        ParallelMapOver<MCCandidate>(
            scorer_.thread_pool(), fresh.size(),
            [&](size_t i) { return ScoreCandidate(fresh[i]); }));
    stats_.predicates_scored += scored.size();

    // --- Pruning ------------------------------------------------------------
    // Per the paper's pseudocode (line 9), the pruning threshold is the best
    // *merged* predicate of the previous iteration — so the first round of
    // units is never pruned before its first merge.
    std::vector<MCCandidate> kept;
    for (MCCandidate& cand : scored) {
      bool keep = !std::isfinite(best.influence) ||
                  cand.outlier_only >= best.influence ||
                  cand.max_tuple_influence > best.influence;
      if (keep) {
        kept.push_back(std::move(cand));
      } else {
        ++stats_.predicates_pruned;
      }
    }
    if (kept.empty()) break;

    // --- Merge --------------------------------------------------------------
    std::vector<ScoredPredicate> merge_input;
    merge_input.reserve(kept.size());
    for (const MCCandidate& cand : kept) merge_input.push_back(cand.scored);
    SCORPION_ASSIGN_OR_RETURN(std::vector<ScoredPredicate> merged,
                              merger.Run(std::move(merge_input)));
    merger_stats_ = merger.stats();

    // Keep only merged predicates that beat the best so far (Line 12).
    std::vector<ScoredPredicate> improving;
    for (ScoredPredicate& m : merged) {
      if (m.influence > best.influence) improving.push_back(std::move(m));
    }
    if (improving.empty()) break;
    for (const ScoredPredicate& m : improving) {
      all_merged.push_back(m);
      if (m.influence > best.influence) best = m;
    }

    // Next frontier (Line 15): predicates contained in an improving merged
    // predicate. The merged predicates contain themselves, so they join the
    // frontier too — intersecting two merged strips is how CLIQUE composes
    // dense 1-D regions into the 2-D cluster.
    std::unordered_set<Predicate> in_next;
    std::vector<const ScoredPredicate*> rescore;
    for (const ScoredPredicate& m : improving) {
      if (in_next.insert(m.pred).second) rescore.push_back(&m);
    }
    SCORPION_ASSIGN_OR_RETURN(
        std::vector<MCCandidate> next,
        ParallelMapOver<MCCandidate>(
            scorer_.thread_pool(), rescore.size(),
            [&](size_t i) { return ScoreCandidate(rescore[i]->pred); }));
    for (MCCandidate& cand : kept) {
      if (in_next.contains(cand.scored.pred)) continue;
      for (const ScoredPredicate& m : improving) {
        if (Predicate::SyntacticallyContains(m.pred, cand.scored.pred)) {
          in_next.insert(cand.scored.pred);
          next.push_back(std::move(cand));
          break;
        }
      }
    }
    predicates = std::move(next);
    if (predicates.empty()) break;
  }

  // Rank: best + all improving merged predicates, deduplicated.
  std::vector<ScoredPredicate> out;
  if (std::isfinite(best.influence)) out.push_back(best);
  for (ScoredPredicate& m : all_merged) out.push_back(std::move(m));
  std::vector<ScoredPredicate> unique = UniqueByPredicate(std::move(out));
  std::sort(unique.begin(), unique.end(), ByInfluenceDesc);
  return unique;
}

}  // namespace scorpion
