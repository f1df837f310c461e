// Micro-benchmarks (google-benchmark) for the Section 5 machinery:
//  * incrementally removable scoring vs. black-box recomputation
//    (the Section 5.1 claim: influence from cached state reads only the
//    matched tuples);
//  * predicate binding + filtering throughput, with and without zone-map
//    block pruning;
//  * the Merger's cached-tuple estimate vs. an exact score (Section 6.3);
//  * the DT split sweep, batched vs. per-candidate, on a clustered column
//    with many thresholds and on a DT node's shape;
//  * DT's range split candidates in sensor_live's shape, checked against
//    the full-sort rule;
//  * a whole Merger::Run over DT partitions, with its per-run memo's
//    counters.
//
// Usage: bench_scorer_microbench [--tiny] [--json <path>] [gbench flags]
//   --tiny         CI smoke configuration (short measurement time).
//   --json <path>  Also write every run (name, times, counters) as JSON
//                  (schema documented in README "Benchmarks").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "core/dt.h"
#include "core/merger.h"
#include "core/scorer.h"
#include "core/split_sweep.h"
#include "eval/experiment.h"
#include "table/block_stats.h"
#include "table/selection.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

struct Fixture {
  SynthDataset dataset;
  QueryResult qr;
  ProblemSpec problem;
  Predicate pred;  // a mid-size box over the planted cube

  static Fixture& Get(const std::string& aggregate) {
    static std::map<std::string, Fixture> cache;
    auto it = cache.find(aggregate);
    if (it != cache.end()) return it->second;
    Fixture f;
    SynthOptions opts = SynthPreset(2, /*easy=*/true);
    opts.tuples_per_group = 5000;
    f.dataset = GenerateSynth(opts).ValueOrDie();
    f.dataset.query.aggregate = aggregate;
    f.qr = ExecuteGroupBy(f.dataset.table, f.dataset.query).ValueOrDie();
    f.problem = MakeProblem(f.qr, f.dataset.outlier_keys,
                            f.dataset.holdout_keys, 1.0, 0.5, 0.5,
                            f.dataset.attributes)
                    .ValueOrDie();
    f.pred = f.dataset.outer_cube;
    return cache.emplace(aggregate, std::move(f)).first->second;
  }
};

// AVG is incrementally removable; MEDIAN forces the black-box recompute
// path. Identical workload shape, so the delta is the Section 5.1 saving.
void BM_ScoreRemovableAggregate(benchmark::State& state) {
  Fixture& f = Fixture::Get("AVG");
  Scorer scorer = Scorer::Make(f.dataset.table, f.qr, f.problem).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.Influence(f.pred).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScoreRemovableAggregate);

void BM_ScoreBlackBoxAggregate(benchmark::State& state) {
  Fixture& f = Fixture::Get("MEDIAN");
  Scorer scorer = Scorer::Make(f.dataset.table, f.qr, f.problem).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.Influence(f.pred).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScoreBlackBoxAggregate);

void BM_PredicateBindAndFilter(benchmark::State& state) {
  Fixture& f = Fixture::Get("AVG");
  RowIdList all = AllRows(f.dataset.table.num_rows());
  for (auto _ : state) {
    BoundPredicate bound = f.pred.Bind(f.dataset.table).ValueOrDie();
    benchmark::DoNotOptimize(bound.Filter(all));
  }
  state.SetItemsProcessed(state.iterations() * f.dataset.table.num_rows());
}
BENCHMARK(BM_PredicateBindAndFilter);

void BM_TupleInfluence(benchmark::State& state) {
  Fixture& f = Fixture::Get("AVG");
  Scorer scorer = Scorer::Make(f.dataset.table, f.qr, f.problem).ValueOrDie();
  int outlier = f.problem.outliers[0];
  const RowIdList& group = f.qr.results[outlier].input_group.rows();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scorer.TupleInfluence(outlier, group[i++ % group.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleInfluence);

// Data-plane traffic per full-influence score: how many rows a score pushes
// through the vectorized filter kernels, how many kernel invocations that
// takes, whether any bitmap<->vector representation conversions happen on
// the way (they should not: input groups and gather outputs both stay in
// vector form on this path), and how much of the work the zone maps
// answered from statistics alone.
void BM_ScorerDataPlaneStats(benchmark::State& state) {
  Fixture& f = Fixture::Get("AVG");
  Scorer scorer = Scorer::Make(f.dataset.table, f.qr, f.problem).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.Influence(f.pred).ValueOrDie());
  }
  const ScorerStats& stats = scorer.stats();
  const double per_iter = 1.0 / static_cast<double>(state.iterations());
  state.counters["rows_filtered"] =
      static_cast<double>(stats.rows_filtered.load()) * per_iter;
  state.counters["filter_kernels"] =
      static_cast<double>(stats.filter_kernels.load()) * per_iter;
  state.counters["bitmap_to_vector"] =
      static_cast<double>(stats.bitmap_to_vector.load()) * per_iter;
  state.counters["vector_to_bitmap"] =
      static_cast<double>(stats.vector_to_bitmap.load()) * per_iter;
  state.counters["match_cache_hits"] =
      static_cast<double>(stats.match_cache_hits.load()) * per_iter;
  state.counters["blocks_pruned_none"] =
      static_cast<double>(stats.blocks_pruned_none.load()) * per_iter;
  state.counters["blocks_pruned_all"] =
      static_cast<double>(stats.blocks_pruned_all.load()) * per_iter;
  state.counters["blocks_partial"] =
      static_cast<double>(stats.blocks_partial.load()) * per_iter;
  state.counters["rows_skipped_by_pruning"] =
      static_cast<double>(stats.rows_skipped_by_pruning.load()) * per_iter;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScorerDataPlaneStats);

// Zone-map A/B on a group-clustered table (values correlated with row
// position, the layout the block stats are built for): FilterAll with
// pruning off pushes every row through the SIMD kernels; with pruning on,
// NONE blocks are skipped and ALL blocks word-filled. Arg(1) = pruned.
void BM_FilterAllPruning(benchmark::State& state) {
  static Table* table = [] {
    constexpr size_t kRows = 1 << 18;
    Rng rng(7);
    auto* t = new Table(Schema({{"x", DataType::kDouble}}));
    for (size_t i = 0; i < kRows; ++i) {
      (void)t->column(0).AppendDouble(
          100.0 * static_cast<double>(i) / kRows + rng.Uniform(0.0, 0.05));
    }
    (void)t->FinalizeColumnwiseBuild();
    return t;
  }();
  Predicate pred;
  (void)pred.AddRange({"x", 0.0, 2.0, false});  // low selectivity, clustered
  BoundPredicate bound = pred.Bind(*table).ValueOrDie();
  const bool pruned = state.range(0) == 1;
  bound.set_enable_pruning(pruned);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bound.FilterAll()->size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table->num_rows()));
  state.SetLabel(pruned ? "pruned" : "unpruned");
}
BENCHMARK(BM_FilterAllPruning)->Arg(0)->Arg(1);

// Split-search A/B: the DT ChooseSplit hot loop evaluated one candidate
// threshold per pass over the groups (reference) vs. one pass that scores
// the whole threshold set (sweep) — the tentpole candidate-batched path.
// Clustered data, K thresholds, several interleaved groups. The counters
// carry checksums over the resulting split metrics and left-counts so CI
// can assert the two modes agree bit-for-bit; items/sec counts
// candidate-row evaluations (rows x thresholds) for both modes, so the
// throughput ratio reads directly as the batching speedup. Arg(1) = batched.
void BM_SplitSearch(benchmark::State& state) {
  constexpr size_t kRows = 1 << 18;
  constexpr size_t kThresholds = 32;
  constexpr size_t kGroups = 4;
  static Table* table = [] {
    Rng rng(13);
    auto* t = new Table(Schema({{"x", DataType::kDouble}}));
    for (size_t i = 0; i < kRows; ++i) {
      (void)t->column(0).AppendDouble(
          100.0 * static_cast<double>(i) / kRows + rng.Uniform(0.0, 0.5));
    }
    (void)t->FinalizeColumnwiseBuild();
    return t;
  }();
  static auto* rows = [] {
    auto* r = new std::vector<RowIdList>(kGroups);
    for (size_t i = 0; i < kRows; ++i) {
      (*r)[i % kGroups].push_back(static_cast<RowId>(i));
    }
    return r;
  }();
  static auto* infs = [] {
    Rng rng(29);
    auto* v = new std::vector<std::vector<double>>(kGroups);
    for (size_t g = 0; g < kGroups; ++g) {
      for (size_t i = 0; i < (*rows)[g].size(); ++i) {
        (*v)[g].push_back(rng.Uniform(-1.0, 1.0));
      }
    }
    return v;
  }();
  std::vector<SplitGroup> groups;
  for (size_t g = 0; g < kGroups; ++g) {
    groups.push_back({&(*rows)[g], &(*infs)[g]});
  }
  std::vector<double> thresholds;
  for (size_t j = 1; j <= kThresholds; ++j) {
    thresholds.push_back(100.0 * static_cast<double>(j) /
                         static_cast<double>(kThresholds + 1));
  }
  const Column& col = table->column(0);
  const bool batched = state.range(0) == 1;
  SplitEval eval;
  for (auto _ : state) {
    eval = batched ? RangeSplitSweep(col, groups, thresholds)
                   : RangeSplitReference(col, groups, thresholds);
    benchmark::DoNotOptimize(eval.metric.data());
  }
  double metric_sum = 0.0;
  double left_sum = 0.0;
  for (size_t j = 0; j < eval.metric.size(); ++j) {
    metric_sum += eval.metric[j];
    left_sum += static_cast<double>(eval.total_left[j]);
  }
  state.counters["metric_checksum"] = metric_sum;
  state.counters["left_checksum"] = left_sum;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRows * kThresholds));
  state.SetLabel(batched ? "batched" : "unbatched");
}
BENCHMARK(BM_SplitSearch)->Arg(0)->Arg(1);

// The same A/B in the shape a DT node hands the sweep: 48 groups of about
// 70 sampled rows each (row-id ordered, values uniformly random, so no
// clustering for a partition cache to exploit) and the k = 3 quantile
// candidates RangeSplitCandidates picks from them: unclustered rows at a
// small k, which BM_SplitSearch's K = 32 clustered case does not show.
// Same checksums and labels; Arg(1) = batched.
void BM_NodeSplitSearch(benchmark::State& state) {
  constexpr size_t kRows = 1 << 16;
  constexpr size_t kGroups = 48;
  constexpr uint32_t kSamplePerGroup = 70;
  constexpr int kCandidates = 3;
  static Table* table = [] {
    Rng rng(31);
    auto* t = new Table(Schema({{"x", DataType::kDouble}}));
    for (size_t i = 0; i < kRows; ++i) {
      (void)t->column(0).AppendDouble(rng.Uniform(0.0, 100.0));
    }
    (void)t->FinalizeColumnwiseBuild();
    return t;
  }();
  static auto* rows = [] {
    Rng rng(37);
    auto* r = new std::vector<RowIdList>(kGroups);
    for (size_t g = 0; g < kGroups; ++g) {
      std::vector<uint32_t> picks =
          rng.SampleWithoutReplacement(kRows, kSamplePerGroup);
      std::sort(picks.begin(), picks.end());
      (*r)[g].assign(picks.begin(), picks.end());
    }
    return r;
  }();
  static auto* infs = [] {
    Rng rng(41);
    auto* v = new std::vector<std::vector<double>>(kGroups);
    for (size_t g = 0; g < kGroups; ++g) {
      for (size_t i = 0; i < (*rows)[g].size(); ++i) {
        (*v)[g].push_back(rng.Uniform(-1.0, 1.0));
      }
    }
    return v;
  }();
  std::vector<SplitGroup> groups;
  size_t total_rows = 0;
  for (size_t g = 0; g < kGroups; ++g) {
    groups.push_back({&(*rows)[g], &(*infs)[g]});
    total_rows += (*rows)[g].size();
  }
  const Column& col = table->column(0);
  const std::vector<double> thresholds =
      RangeSplitCandidates(col, groups, kCandidates);
  const bool batched = state.range(0) == 1;
  SplitEval eval;
  for (auto _ : state) {
    eval = batched ? RangeSplitSweep(col, groups, thresholds)
                   : RangeSplitReference(col, groups, thresholds);
    benchmark::DoNotOptimize(eval.metric.data());
  }
  double metric_sum = 0.0;
  double left_sum = 0.0;
  for (size_t j = 0; j < eval.metric.size(); ++j) {
    metric_sum += eval.metric[j];
    left_sum += static_cast<double>(eval.total_left[j]);
  }
  state.counters["metric_checksum"] = metric_sum;
  state.counters["left_checksum"] = left_sum;
  state.counters["thresholds"] = static_cast<double>(thresholds.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(total_rows * thresholds.size()));
  state.SetLabel(batched ? "batched" : "unbatched");
}
BENCHMARK(BM_NodeSplitSearch)->Arg(0)->Arg(1);

// Range split candidates (RangeSplitCandidates' radix select) in the shape
// sensor_live's DT root hands them: 24 groups of about 1,440 row-id-ordered
// rows and K = 3, over sensor-like readings rounded to 1 decimal (heavy
// duplicates; Arg(0)) or 4 decimals (Arg(1)). The counters checksum the
// library's candidates and those of the full-sort rule computed here, so
// CI can assert they agree.
void BM_SplitCandidates(benchmark::State& state) {
  constexpr size_t kGroups = 24;
  constexpr size_t kRowsPerGroup = 1440;
  constexpr int kCandidates = 3;
  const double scale = state.range(0) == 0 ? 10.0 : 10000.0;
  Column col(DataType::kDouble);
  Rng rng(43);
  for (size_t i = 0; i < kGroups * kRowsPerGroup; ++i) {
    const double reading =
        20.0 + 5.0 * std::sin(static_cast<double>(i) * 1e-3) +
        rng.Uniform(-2.0, 2.0);
    (void)col.AppendDouble(std::round(reading * scale) / scale);
  }
  std::vector<RowIdList> rows(kGroups);
  std::vector<std::vector<double>> infs(kGroups);
  for (size_t i = 0; i < kGroups * kRowsPerGroup; ++i) {
    rows[i % kGroups].push_back(static_cast<RowId>(i));
    infs[i % kGroups].push_back(0.0);
  }
  std::vector<SplitGroup> groups;
  for (size_t g = 0; g < kGroups; ++g) groups.push_back({&rows[g], &infs[g]});
  std::vector<double> candidates;
  for (auto _ : state) {
    candidates = RangeSplitCandidates(col, groups, kCandidates);
    benchmark::DoNotOptimize(candidates.data());
  }
  // The full-sort rule: quantile positions read off the sorted pool.
  std::vector<double> pool;
  for (const RowIdList& r : rows) {
    for (RowId row : r) pool.push_back(col.GetDouble(row));
  }
  std::sort(pool.begin(), pool.end());
  std::vector<double> sorted_rule;
  for (int q = 1; q <= kCandidates; ++q) {
    const size_t pos = std::min(pool.size() * static_cast<size_t>(q) /
                                    static_cast<size_t>(kCandidates + 1),
                                pool.size() - 1);
    const double v = pool[pos];
    if (v > pool.front() && v <= pool.back() &&
        (sorted_rule.empty() || sorted_rule.back() != v)) {
      sorted_rule.push_back(v);
    }
  }
  auto checksum = [](const std::vector<double>& c) {
    double sum = 0.0;
    for (size_t i = 0; i < c.size(); ++i) {
      sum += static_cast<double>(i + 1) * c[i];
    }
    return sum;
  };
  state.counters["candidate_checksum"] = checksum(candidates);
  state.counters["sort_checksum"] = checksum(sorted_rule);
  state.counters["candidates"] = static_cast<double>(candidates.size());
  state.counters["sort_candidates"] = static_cast<double>(sorted_rule.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pool.size()));
  state.SetLabel(state.range(0) == 0 ? "1-decimal" : "4-decimal");
}
BENCHMARK(BM_SplitCandidates)->Arg(0)->Arg(1);

// Arg 0: estimate against a 2-partition `all`; arg 1: the exact score of the
// same box; arg 2: estimate against 150 DT-like partitions tiling three
// attributes (6 x 5 x 5 boxes), about the candidate count a SYNTH explain
// hands the Merger. `all` is compiled once outside the timed loop, as
// Merger::Run compiles its candidates once per call, so the estimate args
// time the per-merge kernel.
void BM_MergerEstimateVsExact(benchmark::State& state) {
  Fixture& f = Fixture::Get("AVG");
  Scorer scorer = Scorer::Make(f.dataset.table, f.qr, f.problem).ValueOrDie();
  DomainMap domains =
      ComputeDomains(f.dataset.table, f.problem.attributes).ValueOrDie();
  // The 2-D fixture has no A3 column; the estimate reads only its extent.
  domains["A3"] = {DataType::kDouble, 0.0, 100.0, 0};
  MergerOptions mopts;
  Merger merger(scorer, domains, mopts);
  const std::vector<RowId>& rows =
      f.qr.results[f.problem.outliers[0]].input_group.rows();

  auto make_part = [&](const std::vector<RangeClause>& clauses, size_t rep) {
    ScoredPredicate sp;
    for (const RangeClause& c : clauses) (void)sp.pred.AddRange(c);
    sp.info.has_representative = true;
    sp.info.representative = rows[rep % rows.size()];
    sp.info.outlier_counts.assign(f.problem.outliers.size(),
                                  static_cast<uint32_t>(20 + rep % 80));
    return sp;
  };
  ScoredPredicate a;
  ScoredPredicate b;
  std::vector<ScoredPredicate> all;
  if (state.range(0) == 2) {
    const int splits[3] = {6, 5, 5};
    auto edge = [](int i, int n) { return 100.0 * i / n; };
    for (int x = 0; x < splits[0]; ++x) {
      for (int y = 0; y < splits[1]; ++y) {
        for (int z = 0; z < splits[2]; ++z) {
          all.push_back(make_part(
              {{"A1", edge(x, 6), edge(x + 1, 6), x + 1 == 6},
               {"A2", edge(y, 5), edge(y + 1, 5), y + 1 == 5},
               {"A3", edge(z, 5), edge(z + 1, 5), z + 1 == 5}},
              all.size() * 7919));
        }
      }
    }
    a = all[2 * 25 + 2 * 5 + 2];  // (2, 2, 2) and its +x neighbour
    b = all[3 * 25 + 2 * 5 + 2];
  } else {
    a = make_part({{"A1", 10, 40, false}, {"A2", 10, 40, false}}, 0);
    b = make_part({{"A1", 40, 70, false}, {"A2", 40, 70, false}}, 0);
    all = {a, b};
  }

  if (state.range(0) == 1) {
    Predicate box = Predicate::BoundingBox(a.pred, b.pred);
    for (auto _ : state) {
      benchmark::DoNotOptimize(scorer.Influence(box).ValueOrDie());
    }
  } else {
    const Merger::Estimator estimator = merger.MakeEstimator(all);
    for (auto _ : state) {
      benchmark::DoNotOptimize(estimator.Estimate(a, b));
    }
  }
  state.counters["partitions"] = static_cast<double>(all.size());
  state.SetLabel(state.range(0) == 1 ? "exact" : "estimate");
}
BENCHMARK(BM_MergerEstimateVsExact)->Arg(0)->Arg(1)->Arg(2);

// A whole Merger::Run (Section 4.3 expansion with the Section 6.3 estimate)
// over the DT partitions of one seeded SYNTH-3D-Easy instance at c = 0.5,
// on a fresh Merger and a fresh copy of the partitions per iteration. The
// counters are one run's: Scorer calls, exact scores served from the
// per-run memo, estimates run and estimates reused, and merges accepted.
void BM_MergerRun(benchmark::State& state) {
  struct Instance {
    SynthDataset dataset;
    QueryResult qr;
    ProblemSpec problem;
    DomainMap domains;
    std::vector<ScoredPredicate> partitions;
  };
  static const Instance* inst = [] {
    auto* in = new Instance;
    SynthOptions opts = SynthPreset(3, /*easy=*/true, /*seed=*/1003);
    opts.tuples_per_group = 100;
    in->dataset = GenerateSynth(opts).ValueOrDie();
    in->qr = ExecuteGroupBy(in->dataset.table, in->dataset.query).ValueOrDie();
    in->problem = MakeProblem(in->qr, in->dataset.outlier_keys,
                              in->dataset.holdout_keys, 1.0, 0.5, 0.5,
                              in->dataset.attributes)
                      .ValueOrDie();
    in->domains =
        ComputeDomains(in->dataset.table, in->problem.attributes).ValueOrDie();
    Scorer scorer =
        Scorer::Make(in->dataset.table, in->qr, in->problem).ValueOrDie();
    in->partitions = DTPartitioner(scorer, DTOptions{}).Run().ValueOrDie();
    return in;
  }();
  Scorer scorer =
      Scorer::Make(inst->dataset.table, inst->qr, inst->problem).ValueOrDie();
  MergerStats stats;
  for (auto _ : state) {
    Merger merger(scorer, inst->domains, MergerOptions{});
    auto ranked = merger.Run(inst->partitions);
    benchmark::DoNotOptimize(ranked.ValueOrDie().data());
    stats = merger.stats();
  }
  state.counters["partitions"] = static_cast<double>(inst->partitions.size());
  state.counters["exact_scores"] = static_cast<double>(stats.exact_scores);
  state.counters["exact_score_reuses"] =
      static_cast<double>(stats.exact_score_reuses);
  state.counters["estimated_scores"] =
      static_cast<double>(stats.estimated_scores);
  state.counters["estimate_reuses"] =
      static_cast<double>(stats.estimate_reuses);
  state.counters["merges_accepted"] =
      static_cast<double>(stats.merges_accepted);
}
BENCHMARK(BM_MergerRun)->Unit(benchmark::kMillisecond);

// Console reporter that also captures every completed run so main() can
// serialize them with the deterministic JSON writer the wire format uses —
// the machine-readable perf trajectory CI archives.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (!run.error_occurred) captured_.push_back(run);
    }
    ConsoleReporter::ReportRuns(reports);
  }

  JsonValue ToJson(bool tiny) const {
    JsonValue root = JsonValue::Object();
    root.Add("bench", JsonValue::String("scorer_microbench"));
    root.Add("version", JsonValue::Number(1));
    root.Add("tiny", JsonValue::Bool(tiny));
    JsonValue runs = JsonValue::Array();
    for (const Run& run : captured_) {
      JsonValue r = JsonValue::Object();
      r.Add("name", JsonValue::String(run.benchmark_name()));
      if (!run.report_label.empty()) {
        r.Add("label", JsonValue::String(run.report_label));
      }
      r.Add("iterations",
            JsonValue::Number(static_cast<double>(run.iterations)));
      r.Add("real_time", JsonValue::Number(run.GetAdjustedRealTime()));
      r.Add("cpu_time", JsonValue::Number(run.GetAdjustedCPUTime()));
      r.Add("time_unit",
            JsonValue::String(benchmark::GetTimeUnitString(run.time_unit)));
      JsonValue counters = JsonValue::Object();
      for (const auto& [name, counter] : run.counters) {
        counters.Add(name, JsonValue::Number(counter.value));
      }
      r.Add("counters", std::move(counters));
      runs.Append(std::move(r));
    }
    root.Add("benchmarks", std::move(runs));
    return root;
  }

 private:
  std::vector<Run> captured_;
};

}  // namespace
}  // namespace scorpion

int main(int argc, char** argv) {
  std::string json_path;
  bool tiny = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  static char min_time_flag[] = "--benchmark_min_time=0.01";
  if (tiny) args.push_back(min_time_flag);
  int gbench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&gbench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc, args.data())) {
    return 1;
  }
  scorpion::JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    const std::string text = reporter.ToJson(tiny).Dump(2);
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
