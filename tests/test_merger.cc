// Merger behaviour: adjacency, expansion semantics, top-quartile and
// cached-tuple optimizations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "core/merger.h"
#include "eval/experiment.h"
#include "reference/merger.h"
#include "test_helpers.h"
#include "workload/sensor.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

Predicate Range1D(const std::string& attr, double lo, double hi,
                  bool inc = false) {
  Predicate p;
  EXPECT_TRUE(p.AddRange({attr, lo, hi, inc}).ok());
  return p;
}

TEST(MergerAdjacency, TouchingAndOverlappingRanges) {
  // Share a boundary: adjacent.
  EXPECT_TRUE(Merger::Adjacent(Range1D("x", 0, 5), Range1D("x", 5, 10)));
  // Overlap: adjacent.
  EXPECT_TRUE(Merger::Adjacent(Range1D("x", 0, 6), Range1D("x", 5, 10)));
  // Gap: not adjacent.
  EXPECT_FALSE(Merger::Adjacent(Range1D("x", 0, 4), Range1D("x", 5, 10)));
  // Different attributes: unconstrained side always touches.
  EXPECT_TRUE(Merger::Adjacent(Range1D("x", 0, 4), Range1D("y", 5, 10)));
  // Sets never block adjacency.
  Predicate sa, sb;
  ASSERT_TRUE(sa.AddSet({"s", {1}}).ok());
  ASSERT_TRUE(sb.AddSet({"s", {7}}).ok());
  EXPECT_TRUE(Merger::Adjacent(sa, sb));
}

class MergerOnSynth : public ::testing::Test {
 protected:
  void SetUp() override {
    SynthOptions opts = SynthPreset(2, /*easy=*/true, /*seed=*/13);
    opts.tuples_per_group = 500;
    auto ds = GenerateSynth(opts);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<SynthDataset>(std::move(*ds));
    auto qr = ExecuteGroupBy(dataset_->table, dataset_->query);
    ASSERT_TRUE(qr.ok());
    qr_ = std::make_unique<QueryResult>(std::move(*qr));
    auto problem =
        MakeProblem(*qr_, dataset_->outlier_keys, dataset_->holdout_keys,
                    1.0, 0.5, 0.2, dataset_->attributes);
    ASSERT_TRUE(problem.ok());
    problem_ = std::make_unique<ProblemSpec>(std::move(*problem));
    auto scorer = Scorer::Make(dataset_->table, *qr_, *problem_);
    ASSERT_TRUE(scorer.ok());
    scorer_ = std::make_unique<Scorer>(std::move(*scorer));
    auto domains = ComputeDomains(dataset_->table, problem_->attributes);
    ASSERT_TRUE(domains.ok());
    domains_ = *domains;
  }

  /// Quarter-tiles of the planted outer cube, as merge inputs.
  std::vector<ScoredPredicate> CubeQuarters() {
    const RangeClause* x = dataset_->outer_cube.FindRange("A1");
    const RangeClause* y = dataset_->outer_cube.FindRange("A2");
    double xm = (x->lo + x->hi) / 2, ym = (y->lo + y->hi) / 2;
    std::vector<ScoredPredicate> parts;
    for (int qx = 0; qx < 2; ++qx) {
      for (int qy = 0; qy < 2; ++qy) {
        ScoredPredicate sp;
        EXPECT_TRUE(sp.pred.AddRange({"A1", qx ? xm : x->lo,
                                      qx ? x->hi : xm, qx != 0}).ok());
        EXPECT_TRUE(sp.pred.AddRange({"A2", qy ? ym : y->lo,
                                      qy ? y->hi : ym, qy != 0}).ok());
        parts.push_back(std::move(sp));
      }
    }
    return parts;
  }

  std::unique_ptr<SynthDataset> dataset_;
  std::unique_ptr<QueryResult> qr_;
  std::unique_ptr<ProblemSpec> problem_;
  std::unique_ptr<Scorer> scorer_;
  DomainMap domains_;
};

TEST_F(MergerOnSynth, MergesQuartersBackIntoTheCube) {
  MergerOptions opts;
  opts.top_quartile_only = false;
  opts.use_cached_tuple_estimate = false;
  Merger merger(*scorer_, domains_, opts);
  auto merged = merger.Run(CubeQuarters());
  ASSERT_TRUE(merged.ok());
  // The full cube (hull of all four quarters) must be discovered and must
  // outrank every individual quarter.
  const ScoredPredicate& best = merged->front();
  EXPECT_TRUE(Predicate::SyntacticallyContains(best.pred,
                                               CubeQuarters()[0].pred));
  double cube_influence =
      scorer_->Influence(dataset_->outer_cube).ValueOrDie();
  EXPECT_GE(best.influence, cube_influence * 0.8);
  EXPECT_GT(merger.stats().merges_accepted, 0u);
}

TEST_F(MergerOnSynth, OutputContainsInputsAndIsSortedDescending) {
  MergerOptions opts;
  opts.top_quartile_only = false;
  Merger merger(*scorer_, domains_, opts);
  auto inputs = CubeQuarters();
  auto merged = merger.Run(inputs);
  ASSERT_TRUE(merged.ok());
  EXPECT_GE(merged->size(), inputs.size());
  for (size_t i = 1; i < merged->size(); ++i) {
    EXPECT_GE((*merged)[i - 1].influence, (*merged)[i].influence);
  }
}

TEST_F(MergerOnSynth, SameAttributesOnlyBlocksCrossSetHulls) {
  MergerOptions opts;
  opts.top_quartile_only = false;
  opts.same_attributes_only = true;
  Merger merger(*scorer_, domains_, opts);
  // One x-strip and one y-strip: with same_attributes_only their hull
  // (which would drop to TRUE) must never be produced.
  std::vector<ScoredPredicate> parts(2);
  parts[0].pred = Range1D("A1", 0, 50);
  parts[1].pred = Range1D("A2", 0, 50);
  auto merged = merger.Run(parts);
  ASSERT_TRUE(merged.ok());
  for (const ScoredPredicate& sp : *merged) {
    EXPECT_FALSE(sp.pred.IsTrue());
  }
}

TEST_F(MergerOnSynth, CachedTupleEstimateTracksExactScore) {
  // Build two half-cube partitions with full PartitionInfo and compare the
  // Section 6.3 estimate of their merge against the exact influence.
  const RangeClause* x = dataset_->outer_cube.FindRange("A1");
  const RangeClause* y = dataset_->outer_cube.FindRange("A2");
  double xm = (x->lo + x->hi) / 2;

  auto make_half = [&](bool right) {
    ScoredPredicate sp;
    EXPECT_TRUE(sp.pred.AddRange({"A1", right ? xm : x->lo,
                                  right ? x->hi : xm, right}).ok());
    EXPECT_TRUE(sp.pred.AddRange({"A2", y->lo, y->hi, true}).ok());
    auto bound = sp.pred.Bind(dataset_->table).ValueOrDie();
    double inf_sum = 0;
    size_t n = 0;
    for (size_t g = 0; g < problem_->outliers.size(); ++g) {
      int idx = problem_->outliers[g];
      Selection matched = *bound.Filter(qr_->results[idx].input_group);
      sp.info.outlier_counts.push_back(
          static_cast<uint32_t>(matched.size()));
      for (RowId r : matched.rows()) {
        inf_sum += scorer_->TupleInfluence(idx, r);
        ++n;
        if (!sp.info.has_representative) {
          sp.info.representative = r;
          sp.info.has_representative = true;
        }
      }
    }
    sp.info.mean_tuple_influence = n ? inf_sum / n : 0;
    return sp;
  };
  ScoredPredicate left = make_half(false);
  ScoredPredicate right = make_half(true);
  std::vector<ScoredPredicate> all = {left, right};

  MergerOptions opts;
  Merger merger(*scorer_, domains_, opts);
  ASSERT_TRUE(merger.CanEstimate(left, right));
  double estimate = merger.EstimateMergedInfluence(left, right, all);
  Predicate box = Predicate::BoundingBox(left.pred, right.pred);
  double exact = scorer_->InfluenceOutlierOnly(box).ValueOrDie();
  // The estimate replaces every tuple with the cached representative, so it
  // is approximate — but it must be the right sign and order of magnitude.
  EXPECT_GT(estimate, 0.0);
  EXPECT_GT(exact, 0.0);
  EXPECT_LT(std::fabs(estimate - exact) / std::max(1.0, std::fabs(exact)),
            1.0);
}

TEST_F(MergerOnSynth, TopQuartileExpandsFewerSeeds) {
  auto inputs = CubeQuarters();
  // Add several deliberately poor far-away boxes so quartiling matters.
  for (int i = 0; i < 8; ++i) {
    ScoredPredicate sp;
    sp.pred = Range1D("A1", i, i + 1.0);
    inputs.push_back(std::move(sp));
  }
  MergerOptions all_opts;
  all_opts.top_quartile_only = false;
  all_opts.use_cached_tuple_estimate = false;
  MergerOptions quartile_opts = all_opts;
  quartile_opts.top_quartile_only = true;

  Merger merge_all(*scorer_, domains_, all_opts);
  Merger merge_quartile(*scorer_, domains_, quartile_opts);
  auto r1 = merge_all.Run(inputs);
  auto r2 = merge_quartile.Run(inputs);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Fewer seeds -> no more exact scorer calls than the full expansion.
  EXPECT_LE(merge_quartile.stats().exact_scores,
            merge_all.stats().exact_scores);
  // And the top result should still be found (it lives in the top quartile).
  EXPECT_NEAR(r1->front().influence, r2->front().influence, 1e-9);
}

// --- Compiled estimate vs the clause-walking reference -----------------------

bool SameBits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  uint64_t x;
  uint64_t y;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

// Random candidate sets over the paper's sensors table: ranges on bounded,
// clamped, zero-width and domain-less attributes (point clauses and
// inverted ranges included), sets on categorical attributes with a small,
// a zero and no cardinality,
// one attribute used as a range by some predicates and a set by others,
// and partitions without a representative or with the wrong number of
// outlier counts.
TEST(MergerEstimateDifferential, CompiledKernelMatchesClauseWalkingReference) {
  Table table = testing_helpers::PaperSensorsTable();
  DomainMap domains;
  domains["voltage"] = {DataType::kDouble, 0.0, 10.0, 0};
  domains["humidity"] = {DataType::kDouble, 2.0, 8.0, 0};
  domains["flat"] = {DataType::kDouble, 5.0, 5.0, 0};  // zero width
  domains["mixed"] = {DataType::kDouble, 0.0, 10.0, 6};
  // Fewer values than codes in use, so a box-only set can cover "more than
  // all" of the domain and the fraction must clamp.
  domains["sensorid"] = {DataType::kCategorical, 0.0, 0.0, 4};
  domains["empty"] = {DataType::kCategorical, 0.0, 0.0, 0};  // cardinality 0
  const char* kRangeAttrs[] = {"voltage", "humidity", "flat", "mixed",
                               "unknown_range"};
  const char* kSetAttrs[] = {"sensorid", "empty", "mixed", "unknown_set"};

  std::mt19937_64 rng(20260501);
  auto uniform = [&](int n) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n));
  };
  auto random_pred = [&]() {
    Predicate p;
    for (const char* attr : kRangeAttrs) {
      if (uniform(2) == 0) continue;
      // A coarse grid makes touching, nested and identical bounds and
      // point clauses common; WithRange can even leave a range inverted.
      double lo = uniform(12) - 1.0;
      double hi = lo + 0.5 * uniform(6);
      bool inc = lo == hi || uniform(2) == 0;
      if (uniform(25) == 0) {
        p = p.WithRange({attr, hi + 1.0, lo, inc});
      } else {
        (void)p.AddRange({attr, lo, hi, inc});
      }
    }
    for (const char* attr : kSetAttrs) {
      if (uniform(3) != 0) continue;
      std::vector<int32_t> codes;
      for (int32_t c = 0; c < 6; ++c) {
        if (uniform(3) == 0) codes.push_back(c);
      }
      if (codes.empty()) codes.push_back(uniform(6));
      (void)p.AddSet({attr, codes});  // fails on a ranged "mixed": fine
    }
    return p;
  };

  for (const char* aggregate : {"SUM", "AVG", "STDDEV"}) {
    SCOPED_TRACE(aggregate);
    GroupByQuery query = testing_helpers::PaperQuery();
    query.aggregate = aggregate;
    QueryResult qr = ExecuteGroupBy(table, query).ValueOrDie();
    ProblemSpec problem = MakeProblem(qr, {"12PM", "1PM"}, {"11AM"}, 1.0, 0.5,
                                      0.5, {"sensorid", "voltage"})
                              .ValueOrDie();
    Scorer scorer = Scorer::Make(table, qr, problem).ValueOrDie();
    ASSERT_TRUE(scorer.incremental());
    Merger merger(scorer, domains, MergerOptions{});
    const size_t num_groups = problem.outliers.size();
    auto random_info = [&](ScoredPredicate* sp, bool estimable) {
      sp->info.has_representative = estimable || uniform(5) != 0;
      sp->info.representative = static_cast<RowId>(uniform(9));
      size_t n = num_groups;
      if (!estimable && uniform(6) == 0) n = num_groups + 1 - uniform(3);
      for (size_t g = 0; g < n; ++g) {
        sp->info.outlier_counts.push_back(static_cast<uint32_t>(uniform(21)));
      }
    };
    size_t nonzero = 0;
    for (int trial = 0; trial < 1500; ++trial) {
      std::vector<ScoredPredicate> all(1 + uniform(40));
      for (ScoredPredicate& sp : all) {
        sp.pred = random_pred();
        random_info(&sp, /*estimable=*/false);
      }
      ScoredPredicate a;
      ScoredPredicate b;
      a.pred = uniform(2) == 0 ? all[uniform(static_cast<int>(all.size()))].pred
                               : random_pred();
      b.pred = random_pred();
      random_info(&a, /*estimable=*/true);
      random_info(&b, /*estimable=*/true);
      ASSERT_TRUE(merger.CanEstimate(a, b));
      const double got = merger.EstimateMergedInfluence(a, b, all);
      const double want =
          reference::EstimateMergedInfluence(scorer, domains, a, b, all);
      ASSERT_TRUE(SameBits(got, want))
          << "trial " << trial << ": compiled " << got << " vs reference "
          << want << " for box "
          << Predicate::BoundingBox(a.pred, b.pred).ToString();
      if (got != 0.0) ++nonzero;
    }
    // Vacuity guard: most boxes overlap some partition.
    EXPECT_GT(nonzero, 500u);
  }
}

// Whole runs on random candidate sets over a sensor table (ranges with
// touching, nested and point bounds; sets on the categorical attribute;
// partitions with and without usable PartitionInfo): the compiled grow
// scan, estimate and accept loop must reproduce the clause-walking
// Merger's output and counters exactly, under every option that changes
// the expansion.
TEST(MergerRunDifferential, MatchesClauseWalkingReference) {
  SensorOptions sopts;
  sopts.num_sensors = 10;
  sopts.num_hours = 8;
  sopts.readings_per_sensor_per_hour = 5;
  sopts.failing_sensor = 3;
  sopts.failure_start_hour = 4;
  sopts.seed = 5;
  SensorDataset data = GenerateSensor(sopts).ValueOrDie();
  QueryResult qr = ExecuteGroupBy(data.table, data.query).ValueOrDie();
  ProblemSpec problem = MakeProblem(qr, data.outlier_keys, data.holdout_keys,
                                    1.0, 0.5, 0.5, data.attributes)
                            .ValueOrDie();
  DomainMap domains =
      ComputeDomains(data.table, problem.attributes).ValueOrDie();

  std::mt19937_64 rng(77);
  auto uniform = [&](int n) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n));
  };
  auto random_pred = [&]() {
    Predicate p;
    for (const auto& [attr, d] : domains) {
      if (uniform(2) == 0) continue;
      if (d.type == DataType::kDouble) {
        // An 8-cell grid over the domain: neighbours touch, some nest.
        const double w = (d.hi - d.lo) / 8;
        const int i = uniform(8);
        const int j = i + uniform(4);
        (void)p.AddRange({attr, d.lo + i * w, d.lo + j * w,
                          i == j || j >= 8 || uniform(2) == 0});
      } else {
        std::vector<int32_t> codes;
        for (int32_t c = 0; c < d.cardinality; ++c) {
          if (uniform(4) == 0) codes.push_back(c);
        }
        if (codes.empty()) codes.push_back(uniform(d.cardinality));
        (void)p.AddSet({attr, codes});
      }
    }
    return p;
  };
  const RowIdList& outlier_rows =
      qr.results[problem.outliers[0]].input_group.rows();

  MergerOptions variants[4];
  variants[1].same_attributes_only = true;
  variants[2].top_quartile_only = false;
  variants[3].use_cached_tuple_estimate = false;
  size_t accepted = 0;
  for (const MergerOptions& options : variants) {
    for (int trial = 0; trial < 25; ++trial) {
      SCOPED_TRACE(trial);
      std::vector<ScoredPredicate> candidates(10 + uniform(40));
      for (ScoredPredicate& sp : candidates) {
        sp.pred = random_pred();
        sp.info.has_representative = uniform(6) != 0;
        sp.info.representative = outlier_rows[uniform(
            static_cast<int>(outlier_rows.size()))];
        size_t n = problem.outliers.size();
        if (uniform(8) == 0) n = uniform(2) == 0 ? n + 1 : 0;
        for (size_t g = 0; g < n; ++g) {
          sp.info.outlier_counts.push_back(uniform(12));
        }
      }
      Scorer ref_scorer = Scorer::Make(data.table, qr, problem).ValueOrDie();
      MergerStats want_stats;
      auto want = reference::MergerRun(ref_scorer, domains, options,
                                       candidates, &want_stats);
      ASSERT_TRUE(want.ok());
      for (bool batching : {false, true}) {
        Scorer scorer = Scorer::Make(data.table, qr, problem).ValueOrDie();
        scorer.set_enable_candidate_batching(batching);
        Merger merger(scorer, domains, options);
        auto got = merger.Run(candidates);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->size(), want->size());
        for (size_t i = 0; i < got->size(); ++i) {
          EXPECT_TRUE((*got)[i].pred == (*want)[i].pred)
              << i << ": " << (*got)[i].pred.ToString() << " vs "
              << (*want)[i].pred.ToString();
          EXPECT_TRUE(SameBits((*got)[i].influence, (*want)[i].influence));
        }
        EXPECT_EQ(merger.stats().merges_accepted.load(),
                  want_stats.merges_accepted.load());
        EXPECT_EQ(merger.stats().estimated_scores.load(),
                  want_stats.estimated_scores.load());
        // The batched accept loop also scores past the accepted merge.
        if (!batching) {
          EXPECT_EQ(merger.stats().exact_scores.load(),
                    want_stats.exact_scores.load());
        }
      }
      accepted += want_stats.merges_accepted.load();
    }
  }
  EXPECT_GT(accepted, 50u);  // vacuity guard: runs really expand
}

// Dedupe is by exact identity: two predicates that print alike (bounds
// differ past the 6th significant digit) are both kept.
TEST(MergerDedupe, KeepsPredicatesThatOnlyPrintAlike) {
  Table table = testing_helpers::PaperSensorsTable();
  QueryResult qr =
      ExecuteGroupBy(table, testing_helpers::PaperQuery()).ValueOrDie();
  ProblemSpec problem = MakeProblem(qr, {"12PM", "1PM"}, {"11AM"}, 1.0, 0.5,
                                    0.5, {"sensorid", "voltage"})
                            .ValueOrDie();
  Scorer scorer = Scorer::Make(table, qr, problem).ValueOrDie();
  DomainMap domains = ComputeDomains(table, problem.attributes).ValueOrDie();
  std::vector<ScoredPredicate> inputs(3);
  inputs[0].pred = Range1D("voltage", 2.2000001, 2.5, true);
  inputs[1].pred = Range1D("voltage", 2.2000002, 2.5, true);
  inputs[2].pred = inputs[0].pred;  // a true duplicate still collapses
  ASSERT_EQ(inputs[0].pred.ToString(), inputs[1].pred.ToString());
  Merger merger(scorer, domains, MergerOptions{});
  auto merged = merger.Run(inputs);
  ASSERT_TRUE(merged.ok());
  size_t first = 0;
  size_t second = 0;
  for (const ScoredPredicate& sp : *merged) {
    if (sp.pred == inputs[0].pred) ++first;
    if (sp.pred == inputs[1].pred) ++second;
  }
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 1u);
}

}  // namespace
}  // namespace scorpion
