// Scorpion facade behaviour: option plumbing, algorithm gating, top-k,
// and the shape of the returned Explanation.
#include <gtest/gtest.h>

#include "core/scorpion.h"
#include "eval/experiment.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

struct Fixture {
  SynthDataset dataset;
  QueryResult qr;
  ProblemSpec problem;
};

Fixture MakeFixture(const std::string& aggregate = "SUM") {
  SynthOptions opts = SynthPreset(2, /*easy=*/true, /*seed=*/41);
  opts.tuples_per_group = 300;
  Fixture f;
  f.dataset = GenerateSynth(opts).ValueOrDie();
  f.dataset.query.aggregate = aggregate;
  f.qr = ExecuteGroupBy(f.dataset.table, f.dataset.query).ValueOrDie();
  f.problem = MakeProblem(f.qr, f.dataset.outlier_keys,
                          f.dataset.holdout_keys, 1.0, 0.5, 0.2,
                          f.dataset.attributes)
                  .ValueOrDie();
  return f;
}

TEST(ScorpionFacade, TopKLimitsOutput) {
  Fixture f = MakeFixture();
  ScorpionOptions options;
  options.algorithm = Algorithm::kDT;
  options.top_k = 2;
  Scorpion scorpion(options);
  auto e = scorpion.Explain(f.dataset.table, f.qr, f.problem);
  ASSERT_TRUE(e.ok());
  EXPECT_LE(e->predicates.size(), 2u);
  EXPECT_GT(e->runtime_seconds, 0.0);
  EXPECT_GT(e->scorer_stats.predicate_scores, 0u);
}

TEST(ScorpionFacade, NaiveProducesCheckpointTrace) {
  Fixture f = MakeFixture();
  ScorpionOptions options;
  options.algorithm = Algorithm::kNaive;
  options.naive.num_continuous_splits = 6;
  options.naive.time_budget_seconds = 30.0;
  Scorpion scorpion(options);
  auto e = scorpion.Explain(f.dataset.table, f.qr, f.problem);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->algorithm, Algorithm::kNaive);
  EXPECT_TRUE(e->naive_exhausted);
  EXPECT_FALSE(e->naive_checkpoints.empty());
}

TEST(ScorpionFacade, MCGatedOnAggregateProperties) {
  Fixture f = MakeFixture("AVG");  // independent but not anti-monotone
  ScorpionOptions options;
  options.algorithm = Algorithm::kMC;
  Scorpion scorpion(options);
  EXPECT_TRUE(scorpion.Explain(f.dataset.table, f.qr, f.problem)
                  .status()
                  .IsInvalidArgument());
}

TEST(ScorpionFacade, DTGatedOnIndependence) {
  Fixture f = MakeFixture("MEDIAN");
  ScorpionOptions options;
  options.algorithm = Algorithm::kDT;
  Scorpion scorpion(options);
  EXPECT_TRUE(scorpion.Explain(f.dataset.table, f.qr, f.problem)
                  .status()
                  .IsInvalidArgument());
  // NAIVE handles black-box aggregates.
  options.algorithm = Algorithm::kNaive;
  options.naive.num_continuous_splits = 5;
  Scorpion naive(options);
  EXPECT_TRUE(naive.Explain(f.dataset.table, f.qr, f.problem).ok());
}

TEST(ScorpionFacade, AllAlgorithmsAgreeOnTheObviousExplanation) {
  // With one dominant planted region and an easy dataset, all three
  // algorithms should produce predicates overlapping the outer cube.
  Fixture f = MakeFixture();
  auto domains =
      ComputeDomains(f.dataset.table, f.problem.attributes).ValueOrDie();
  for (Algorithm algo :
       {Algorithm::kNaive, Algorithm::kDT, Algorithm::kMC}) {
    ScorpionOptions options;
    options.algorithm = algo;
    options.naive.time_budget_seconds = 20.0;
    Scorpion scorpion(options);
    auto e = scorpion.Explain(f.dataset.table, f.qr, f.problem);
    ASSERT_TRUE(e.ok()) << AlgorithmToString(algo);
    auto inter = Predicate::Intersect(e->best().pred, f.dataset.outer_cube);
    ASSERT_TRUE(inter.has_value()) << AlgorithmToString(algo);
    EXPECT_GT(inter->Volume(domains),
              0.3 * f.dataset.outer_cube.Volume(domains))
        << AlgorithmToString(algo) << " found "
        << e->best().pred.ToString(&f.dataset.table);
  }
}

using ExplanationDeathTest = ::testing::Test;

TEST(ExplanationDeathTest, BestOnEmptyExplanationCheckFails) {
  // best() on an empty Explanation is a contract violation; it must abort
  // with a diagnostic rather than dereference past the end.
  Explanation empty;
  ASSERT_TRUE(empty.predicates.empty());
  EXPECT_DEATH_IF_SUPPORTED(empty.best(), "empty explanation");
}

TEST(ExplanationDeathTest, BestOnNonEmptyExplanationReturnsFront) {
  Explanation e;
  ScoredPredicate sp;
  sp.influence = 1.5;
  e.predicates.push_back(sp);
  EXPECT_EQ(e.best().influence, 1.5);
}

}  // namespace
}  // namespace scorpion
