// Scorer tests anchored on the paper's worked example (Section 3.2):
// gets the exact influence values the paper derives for Tables 1-2, plus
// error-vector, hold-out, lambda and c semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/scorer.h"
#include "query/groupby.h"
#include "test_helpers.h"

namespace scorpion {
namespace {

using testing_helpers::PaperQuery;
using testing_helpers::PaperSensorsTable;

class ScorerPaperExample : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = PaperSensorsTable();
    auto result = ExecuteGroupBy(table_, PaperQuery());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    qr_ = *result;
    // Results are sorted by key: 11AM (idx 0), 12PM (idx 1), 1PM (idx 2).
    ASSERT_EQ(qr_.results[0].key_string, "11AM");
    ASSERT_EQ(qr_.results[1].key_string, "12PM");
    ASSERT_EQ(qr_.results[2].key_string, "1PM");
  }

  ProblemSpec PaperProblem(double error_direction = 1.0) {
    ProblemSpec problem;
    problem.outliers = {1, 2};   // 12PM, 1PM flagged as outliers
    problem.holdouts = {0};      // 11AM is the hold-out
    problem.SetUniformErrorVector(error_direction);
    problem.lambda = 1.0;        // isolate outlier influence first
    problem.c = 1.0;
    problem.attributes = {"sensorid", "voltage"};
    return problem;
  }

  Table table_{Schema{}};
  QueryResult qr_;
};

TEST_F(ScorerPaperExample, GroupAveragesMatchTable2) {
  EXPECT_NEAR(qr_.results[0].value, 34.6667, 1e-3);
  EXPECT_NEAR(qr_.results[1].value, 56.6667, 1e-3);
  EXPECT_NEAR(qr_.results[2].value, 50.0, 1e-9);
}

TEST_F(ScorerPaperExample, TupleInfluencesMatchPaper) {
  ProblemSpec problem = PaperProblem();
  auto scorer = Scorer::Make(table_, qr_, problem);
  ASSERT_TRUE(scorer.ok());
  // T4 and T5 are rows 3 and 4 (12PM sensors 1 and 2, temp 35):
  // removing T4 leaves avg(35,100)=67.5, so influence = 56.67-67.5 = -10.83.
  EXPECT_NEAR(scorer->TupleInfluence(1, 3), -10.8333, 1e-3);
  EXPECT_NEAR(scorer->TupleInfluence(1, 4), -10.8333, 1e-3);
  // T6 (row 5, temp 100): avg(35,35)=35, influence = 56.67-35 = 21.67.
  EXPECT_NEAR(scorer->TupleInfluence(1, 5), 21.6667, 1e-3);
}

// The batched form DT populates samples with: the same doubles as one
// TupleInfluence per row, for outliers (error vector applied) and hold-outs,
// on the removable path (AVG) and the recompute path (MEDIAN), with the
// counters moved once per tuple.
TEST_F(ScorerPaperExample, TupleInfluencesMatchPerTupleCalls) {
  for (const char* aggregate : {"AVG", "MEDIAN"}) {
    QueryResult qr = qr_;
    qr.query.aggregate = aggregate;
    ProblemSpec problem = PaperProblem(-1.0);
    auto scorer = Scorer::Make(table_, qr, problem);
    ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
    for (int idx = 0; idx < 3; ++idx) {
      const RowIdList& rows = qr.results[idx].input_group.rows();
      const uint64_t before = scorer->stats().tuple_scores.load();
      std::vector<double> batch(rows.size());
      scorer->TupleInfluences(idx, rows.data(), rows.size(), batch.data());
      EXPECT_EQ(scorer->stats().tuple_scores.load() - before, rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        const double single = scorer->TupleInfluence(idx, rows[i]);
        EXPECT_EQ(std::memcmp(&batch[i], &single, sizeof(double)), 0)
            << aggregate << " result " << idx << " row " << rows[i];
      }
    }
  }
}

TEST_F(ScorerPaperExample, ErrorVectorFlipsSign) {
  ProblemSpec problem = PaperProblem(-1.0);  // user says results are too LOW
  auto scorer = Scorer::Make(table_, qr_, problem);
  ASSERT_TRUE(scorer.ok());
  // With v = <-1>, T6's influence becomes -21.67 and T4's +10.83 — T4 is
  // now the more influential tuple, matching the paper's discussion.
  EXPECT_NEAR(scorer->TupleInfluence(1, 5), -21.6667, 1e-3);
  EXPECT_NEAR(scorer->TupleInfluence(1, 3), 10.8333, 1e-3);
}

TEST_F(ScorerPaperExample, PredicateInfluenceSelectsSensor3) {
  ProblemSpec problem = PaperProblem();
  auto scorer = Scorer::Make(table_, qr_, problem);
  ASSERT_TRUE(scorer.ok());

  auto make_sensor_pred = [&](const std::string& sensor) {
    Predicate p;
    auto col = table_.ColumnByName("sensorid");
    SetClause clause;
    clause.attr = "sensorid";
    clause.codes = {(*col)->CodeOf(sensor)};
    EXPECT_TRUE(p.AddSet(clause).ok());
    return p;
  };

  auto inf3 = scorer->Influence(make_sensor_pred("3"));
  auto inf1 = scorer->Influence(make_sensor_pred("1"));
  ASSERT_TRUE(inf3.ok());
  ASSERT_TRUE(inf1.ok());
  // sensorid=3 removes T6 (100C) and T9 (80C): mean(21.67, 15) = 18.33.
  // sensorid=1 removes normal readings: negative influence.
  EXPECT_NEAR(*inf3, 18.3333, 1e-3);
  EXPECT_LT(*inf1, 0.0);
}

TEST_F(ScorerPaperExample, HoldoutPenaltyReducesInfluence) {
  // sensorid=3 also matches T3 in the 11AM hold-out group, perturbing it.
  ProblemSpec no_holdout = PaperProblem();
  no_holdout.lambda = 1.0;
  ProblemSpec with_holdout = PaperProblem();
  with_holdout.lambda = 0.5;

  Predicate pred;
  auto col = table_.ColumnByName("sensorid");
  ASSERT_TRUE(pred.AddSet({"sensorid", {(*col)->CodeOf("3")}}).ok());

  auto s1 = Scorer::Make(table_, qr_, no_holdout);
  auto s2 = Scorer::Make(table_, qr_, with_holdout);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  auto i1 = s1->Influence(pred);
  auto i2 = s2->Influence(pred);
  ASSERT_TRUE(i1.ok());
  ASSERT_TRUE(i2.ok());
  // lambda=0.5 halves the outlier term and subtracts the hold-out penalty.
  EXPECT_LT(*i2, *i1 / 2.0 + 1e-9);
}

TEST_F(ScorerPaperExample, CParameterControlsDenominator) {
  Predicate pred;
  auto col = table_.ColumnByName("sensorid");
  ASSERT_TRUE(pred.AddSet({"sensorid", {(*col)->CodeOf("3")}}).ok());

  // c = 0: influence is the raw Delta (averaged over outliers).
  ProblemSpec c0 = PaperProblem();
  c0.c = 0.0;
  // c = 1: divided by |p(g_o)| = 1 per group — same here since the
  // predicate matches exactly one tuple per outlier group.
  ProblemSpec c1 = PaperProblem();
  c1.c = 1.0;
  auto s0 = Scorer::Make(table_, qr_, c0);
  auto s1 = Scorer::Make(table_, qr_, c1);
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  auto i0 = s0->Influence(pred);
  auto i1 = s1->Influence(pred);
  ASSERT_TRUE(i0.ok());
  ASSERT_TRUE(i1.ok());
  EXPECT_NEAR(*i0, *i1, 1e-9);  // singleton matches: n^c = 1 either way

  // A wider predicate (both sensors 2 and 3) matches 2 tuples per group;
  // c=1 halves its per-group influence relative to c=0.
  Predicate wide;
  ASSERT_TRUE(
      wide.AddSet({"sensorid", {(*col)->CodeOf("2"), (*col)->CodeOf("3")}})
          .ok());
  auto w0 = s0->Influence(wide);
  auto w1 = s1->Influence(wide);
  ASSERT_TRUE(w0.ok());
  ASSERT_TRUE(w1.ok());
  EXPECT_NEAR(*w0, 2.0 * *w1, 1e-9);
}

TEST_F(ScorerPaperExample, AnnihilatingPredicateDisqualified) {
  // A predicate matching every tuple leaves AVG undefined -> -infinity.
  ProblemSpec problem = PaperProblem();
  auto scorer = Scorer::Make(table_, qr_, problem);
  ASSERT_TRUE(scorer.ok());
  auto inf = scorer->Influence(Predicate::True());
  ASSERT_TRUE(inf.ok());
  EXPECT_TRUE(std::isinf(*inf));
  EXPECT_LT(*inf, 0.0);
}

TEST_F(ScorerPaperExample, DetailedScoreMatchesInfluence) {
  ProblemSpec problem = PaperProblem();
  problem.lambda = 0.4;
  auto scorer = Scorer::Make(table_, qr_, problem);
  ASSERT_TRUE(scorer.ok());
  Predicate pred;
  auto col = table_.ColumnByName("sensorid");
  ASSERT_TRUE(pred.AddSet({"sensorid", {(*col)->CodeOf("3")}}).ok());
  auto detailed = scorer->ScoreDetailed(pred);
  auto full = scorer->Influence(pred);
  auto outlier_only = scorer->InfluenceOutlierOnly(pred);
  ASSERT_TRUE(detailed.ok());
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(outlier_only.ok());
  EXPECT_NEAR(detailed->full, *full, 1e-12);
  EXPECT_NEAR(detailed->outlier_only, *outlier_only, 1e-12);
  ASSERT_EQ(detailed->matched_outlier.size(), 2u);
  EXPECT_EQ(detailed->matched_outlier[0].rows(), RowIdList{5});  // T6
  EXPECT_EQ(detailed->matched_outlier[1].rows(), RowIdList{8});  // T9
  // Outlier-only upper-bounds the full score.
  EXPECT_GE(detailed->outlier_only, detailed->full);
}

TEST_F(ScorerPaperExample, IncrementalMatchesBlackBoxPath) {
  // AVG through the removable fast path must equal MEDIAN-style recompute
  // semantics for the same deletions. Compare UpdatedValue against a
  // manually recomputed average.
  ProblemSpec problem = PaperProblem();
  auto scorer = Scorer::Make(table_, qr_, problem);
  ASSERT_TRUE(scorer.ok());
  EXPECT_TRUE(scorer->incremental());
  // Remove T6 from 12PM: avg(35,35) = 35.
  EXPECT_NEAR(scorer->UpdatedValue(1, Selection::Single(5, table_.num_rows())),
              35.0, 1e-9);
  // Remove T4,T5: avg(100) = 100.
  EXPECT_NEAR(scorer->UpdatedValue(1, Selection::FromSorted(
                                       {3, 4}, table_.num_rows())),
              100.0, 1e-9);
}

}  // namespace
}  // namespace scorpion
