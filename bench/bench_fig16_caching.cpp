// Figure 16: cost of DT with and without the cross-c cache, executing a
// descending sequence of c values (0.5 -> 0) on the 3D and 4D datasets.
//
// Paper shape: caching helps most at low c (more merging happens there, so
// warm-started merges skip more work); at high c most predicates are never
// expanded and the cache saves little. The partitioning itself is computed
// once per session either way, which is the bulk of the saving.
#include <cstdio>

#include "bench_common.h"

using namespace scorpion;
using namespace scorpion::bench;

int main() {
  std::printf("=== Figure 16: DT cost with and without cross-c caching ===\n");
  const double kCs[] = {0.5, 0.4, 0.3, 0.2, 0.1, 0.0};
  for (bool easy : {true, false}) {
    for (int dims : {3, 4}) {
      SynthOptions opts = SynthPreset(dims, easy);
      auto inst = MakeSynthInstance(opts);
      BENCH_CHECK_OK(inst);
      auto problem = MakeProblem(inst->qr, inst->dataset.outlier_keys,
                                 inst->dataset.holdout_keys, 1.0, 0.5, 0.5,
                                 inst->dataset.attributes);
      BENCH_CHECK_OK(problem);

      ScorpionOptions options;
      options.algorithm = Algorithm::kDT;

      std::printf("\n--- SYNTH-%dD-%s (descending c) ---\n", dims,
                  easy ? "Easy" : "Hard");
      TablePrinter table({"c", "cache(s)", "no-cache(s)", "speedup"});
      Scorpion scorpion(options);
      ExplainSession session;

      double total_cached = 0.0, total_uncached = 0.0;
      for (double c : kCs) {
        ProblemSpec at_c = *problem;
        at_c.c = c;
        WallTimer t1;
        auto with_cache =
            scorpion.Explain(inst->dataset.table, inst->qr, at_c, &session,
                             /*cross_c_warm_start=*/true);
        double cached_s = t1.ElapsedSeconds();
        WallTimer t2;
        auto without_cache =
            scorpion.Explain(inst->dataset.table, inst->qr, at_c);
        double uncached_s = t2.ElapsedSeconds();
        BENCH_CHECK_OK(with_cache);
        BENCH_CHECK_OK(without_cache);
        total_cached += cached_s;
        total_uncached += uncached_s;
        table.AddRow({Fmt(c, "%.1f"), Fmt(cached_s), Fmt(uncached_s),
                      Fmt(uncached_s / std::max(cached_s, 1e-9), "%.1fx")});
      }
      table.Print();
      std::printf("sweep total: cache %.3fs vs no-cache %.3fs (%.1fx)\n",
                  total_cached, total_uncached,
                  total_uncached / std::max(total_cached, 1e-9));
    }
  }
  return 0;
}
