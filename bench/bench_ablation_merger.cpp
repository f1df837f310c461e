// Ablation: the two Section 6.3 Merger optimizations, toggled independently
// on a DT run over SYNTH-3D-Easy.
//
//   quartile  — expand only top-quartile seeds (fewer expansions)
//   estimate  — rank candidate merges by the cached-tuple volume
//               approximation instead of exact scoring
//
// Reported: wall time, exact Scorer calls, estimated calls, the merged
// boxes served from Merger::Run's per-run memo instead of being scored or
// estimated again, and the final best influence + F-score (to confirm the
// optimizations do not degrade quality). Expectation: both optimizations
// cut exact scorer traffic; the estimate replaces most candidate-ranking
// scores; quality stays flat.
#include <cstdio>

#include "bench_common.h"
#include "core/dt.h"
#include "core/merger.h"

using namespace scorpion;
using namespace scorpion::bench;

int main() {
  std::printf("=== Ablation: Merger optimizations (DT on SYNTH-3D-Easy) ===\n");
  SynthOptions opts = SynthPreset(3, /*easy=*/true);
  auto inst = MakeSynthInstance(opts);
  BENCH_CHECK_OK(inst);
  auto problem = MakeProblem(inst->qr, inst->dataset.outlier_keys,
                             inst->dataset.holdout_keys, 1.0, 0.5, 0.2,
                             inst->dataset.attributes);
  BENCH_CHECK_OK(problem);
  auto scorer = Scorer::Make(inst->dataset.table, inst->qr, *problem);
  BENCH_CHECK_OK(scorer);
  auto domains =
      ComputeDomains(inst->dataset.table, problem->attributes);
  BENCH_CHECK_OK(domains);

  // One fixed partitioning shared by all merger configurations.
  DTPartitioner dt(*scorer, DTOptions{});
  auto partitions = dt.Run();
  BENCH_CHECK_OK(partitions);
  std::printf("partitions: %zu\n\n", partitions->size());

  TablePrinter table({"quartile", "estimate", "time(s)", "exact scores",
                      "exact reuses", "estimates", "estimate reuses",
                      "best influence", "F(outer)"});
  for (bool quartile : {false, true}) {
    for (bool estimate : {false, true}) {
      MergerOptions mopts;
      mopts.top_quartile_only = quartile;
      mopts.use_cached_tuple_estimate = estimate;
      Merger merger(*scorer, *domains, mopts);
      std::vector<ScoredPredicate> inputs = *partitions;
      for (ScoredPredicate& sp : inputs) {
        sp.influence = -std::numeric_limits<double>::infinity();
      }
      WallTimer timer;
      auto merged = merger.Run(std::move(inputs));
      double seconds = timer.ElapsedSeconds();
      BENCH_CHECK_OK(merged);
      auto acc = EvaluatePredicate(inst->dataset.table,
                                   merged->front().pred,
                                   inst->outlier_union,
                                   inst->dataset.outer_rows);
      BENCH_CHECK_OK(acc);
      const MergerStats& stats = merger.stats();
      table.AddRow({quartile ? "on" : "off", estimate ? "on" : "off",
                    Fmt(seconds), std::to_string(stats.exact_scores),
                    std::to_string(stats.exact_score_reuses),
                    std::to_string(stats.estimated_scores),
                    std::to_string(stats.estimate_reuses),
                    Fmt(merged->front().influence, "%.4g"),
                    Fmt(acc->f_score)});
    }
  }
  table.Print();
  return 0;
}
