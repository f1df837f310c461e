// End-to-end tests through the public API: all three algorithms on the
// SYNTH workload must recover the planted cube via Engine::Open +
// ExplainRequest, and the internal session cache must not change results.
#include <gtest/gtest.h>

#include "api/dataset.h"
#include "core/scorpion.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

struct E2ECase {
  Algorithm algorithm;
  int dims;
  bool easy;
  double c;
  double min_f_score;
};

class SynthEndToEnd : public ::testing::TestWithParam<E2ECase> {};

TEST_P(SynthEndToEnd, RecoversPlantedCube) {
  const E2ECase& param = GetParam();
  SynthOptions opts = SynthPreset(param.dims, param.easy, /*seed=*/7);
  opts.tuples_per_group = 800;  // keep the exhaustive baseline fast
  auto dataset_gen = GenerateSynth(opts);
  ASSERT_TRUE(dataset_gen.ok()) << dataset_gen.status().ToString();

  EngineOptions options;
  options.engine.naive.time_budget_seconds = 30.0;
  options.engine.naive.max_clauses = param.dims;
  Engine engine(options);
  auto dataset = engine.Open(dataset_gen->table, dataset_gen->query);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  ExplainRequest request;
  for (const std::string& key : dataset_gen->outlier_keys) {
    request.FlagTooHigh(key);
  }
  request.Holdouts(dataset_gen->holdout_keys)
      .WithAttributes(dataset_gen->attributes)
      .WithAlgorithm(param.algorithm)
      .WithLambda(0.5)
      .WithC(param.c);

  auto response = dataset->Explain(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_FALSE(response->predicates.empty());

  auto problem = dataset->Resolve(request);
  ASSERT_TRUE(problem.ok());
  auto outlier_union = OutlierUnion(dataset->result(), *problem);
  ASSERT_TRUE(outlier_union.ok());
  auto accuracy =
      EvaluatePredicate(dataset_gen->table, response->best().pred,
                        *outlier_union, dataset_gen->outer_rows);
  ASSERT_TRUE(accuracy.ok());
  EXPECT_GE(accuracy->f_score, param.min_f_score)
      << AlgorithmToString(param.algorithm)
      << " found: " << response->best().display
      << " influence=" << response->best().influence
      << " P=" << accuracy->precision << " R=" << accuracy->recall;
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, SynthEndToEnd,
    ::testing::Values(
        // 2D Easy at moderate c: all three algorithms should do well.
        E2ECase{Algorithm::kNaive, 2, true, 0.1, 0.55},
        E2ECase{Algorithm::kDT, 2, true, 0.1, 0.55},
        E2ECase{Algorithm::kMC, 2, true, 0.1, 0.55},
        // Hard datasets: the signal is weaker; require a sane floor.
        E2ECase{Algorithm::kDT, 2, false, 0.1, 0.4},
        E2ECase{Algorithm::kMC, 2, false, 0.1, 0.4},
        // 3D Easy.
        E2ECase{Algorithm::kDT, 3, true, 0.1, 0.5},
        E2ECase{Algorithm::kMC, 3, true, 0.1, 0.5}),
    [](const ::testing::TestParamInfo<E2ECase>& info) {
      std::string name = AlgorithmToString(info.param.algorithm);
      name += '_';  // append-style: avoids GCC 12 -Wrestrict false positive
      name += std::to_string(info.param.dims);
      name += "D_";
      name += info.param.easy ? "Easy" : "Hard";
      return name;
    });

TEST(ScorpionSession, CachedRunsMatchUncachedRuns) {
  // Internal-engine invariant: a session with cross-c warm starts (the
  // Section 8.3.3 cache) must never make results worse than sessionless
  // runs.
  SynthOptions opts = SynthPreset(2, /*easy=*/true, /*seed=*/3);
  opts.tuples_per_group = 500;
  auto dataset = GenerateSynth(opts);
  ASSERT_TRUE(dataset.ok());
  auto qr = ExecuteGroupBy(dataset->table, dataset->query);
  ASSERT_TRUE(qr.ok());
  auto problem = MakeProblem(*qr, dataset->outlier_keys, dataset->holdout_keys,
                             1.0, 0.5, 0.5, dataset->attributes);
  ASSERT_TRUE(problem.ok());

  ScorpionOptions options;
  options.algorithm = Algorithm::kDT;

  // Cached session: descending c (the Figure 16 access pattern).
  Scorpion scorpion(options);
  ExplainSession session;
  for (double c : {0.5, 0.3, 0.1, 0.0}) {
    ProblemSpec at_c = *problem;
    at_c.c = c;
    auto with_cache = scorpion.Explain(dataset->table, *qr, at_c, &session,
                                       /*cross_c_warm_start=*/true);
    auto without_cache = scorpion.Explain(dataset->table, *qr, at_c);
    ASSERT_TRUE(with_cache.ok());
    ASSERT_TRUE(without_cache.ok());
    // The cached run sees extra warm-start seeds, so it can only do better
    // or equal in influence; it must never be worse.
    EXPECT_GE(with_cache->best().influence,
              without_cache->best().influence - 1e-9)
        << "c=" << c;
  }
}

TEST(ScorpionValidation, RejectsBadProblems) {
  SynthOptions opts = SynthPreset(2, true, 5);
  opts.tuples_per_group = 50;
  auto dataset_gen = GenerateSynth(opts);
  ASSERT_TRUE(dataset_gen.ok());

  Engine engine;
  auto dataset = engine.Open(dataset_gen->table, dataset_gen->query);
  ASSERT_TRUE(dataset.ok());

  // No outliers.
  EXPECT_TRUE(dataset
                  ->Explain(ExplainRequest().WithAttributes(
                      dataset_gen->attributes))
                  .status()
                  .IsInvalidArgument());

  // The same key flagged as outlier and hold-out.
  const std::string key = dataset->result().results[0].key_string;
  EXPECT_TRUE(dataset
                  ->Explain(ExplainRequest()
                                .FlagTooHigh(key)
                                .Holdout(key)
                                .WithAttributes(dataset_gen->attributes))
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace scorpion
