// Candidate-batched evaluation equivalence suite: FilterBatch must be
// bit-identical to filtering each candidate separately (same rows, same
// pruning-counter trajectory), the one-pass DT split sweep must reproduce
// the candidate-at-a-time reference bit for bit (influences with signed
// zeros, denormals, overflowing sums, infinities and NaNs included, and a
// 100k-code dictionary for the discrete sweep's scratch), InfluenceAll must
// equal per-candidate Influence, and whole-engine Explain must not change
// with ScorpionOptions::enable_candidate_batching — across randomized
// block layouts (empty / single-row / block-aligned / block-straddling),
// NaN columns, clustered data, hashed categorical bitsets, pruning on/off,
// sparse and all-rows inputs, and concurrent producers sharing one pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/scorer.h"
#include "core/scorpion.h"
#include "core/split_sweep.h"
#include "eval/experiment.h"
#include "predicate/candidate_batch.h"
#include "predicate/predicate.h"
#include "query/groupby.h"
#include "table/block_stats.h"
#include "table/selection.h"
#include "table/table.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Schema BatchSchema() {
  return Schema({{"x", DataType::kDouble},
                 {"y", DataType::kDouble},
                 {"cat", DataType::kCategorical}});
}

/// Random table; `clustered` makes x ramp with the row position (so zone
/// maps produce NONE/ALL verdicts), `nan_frac` poisons x with NaNs.
Table BuildTable(Rng* rng, size_t n, bool clustered, double nan_frac,
                 int cat_cardinality) {
  Table t(BatchSchema());
  for (size_t i = 0; i < n; ++i) {
    double x = clustered
                   ? 100.0 * static_cast<double>(i) /
                         static_cast<double>(n > 0 ? n : 1)
                   : rng->Uniform(0.0, 100.0);
    if (nan_frac > 0.0 && rng->Bernoulli(nan_frac)) x = kNaN;
    (void)t.column(0).AppendDouble(x);
    (void)t.column(1).AppendDouble(rng->Uniform(0.0, 100.0));
    (void)t.column(2).AppendString(
        "v" + std::to_string(rng->UniformInt(0, cat_cardinality - 1)));
  }
  (void)t.FinalizeColumnwiseBuild();
  return t;
}

/// Random sparse subset of [0, n) that always includes the block-boundary
/// neighborhoods, so span edges are exercised.
RowIdList BoundaryHeavySubset(Rng* rng, size_t n, double density) {
  RowIdList out;
  for (size_t i = 0; i < n; ++i) {
    const size_t pos = i % kBlockSize;
    const bool boundary = pos == 0 || pos == kBlockSize - 1;
    if (boundary || rng->Bernoulli(density)) {
      out.push_back(static_cast<RowId>(i));
    }
  }
  return out;
}

/// Batch of random x-range variants over an optional random base on y/cat.
CandidateBatch RandomRangeBatch(Rng* rng, const Table& table) {
  CandidateBatch b;
  if (rng->Bernoulli(0.6)) {
    double a = rng->Uniform(0.0, 100.0);
    double c = rng->Uniform(0.0, 100.0);
    if (c < a) std::swap(a, c);
    if (c == a) c = a + 1.0;
    (void)b.base.AddRange({"y", a, c, rng->Bernoulli(0.5)});
  }
  if (rng->Bernoulli(0.3)) {
    const Column* cat = table.ColumnByName("cat").ValueOrDie();
    SetClause s;
    s.attr = "cat";
    const int draws = static_cast<int>(rng->UniformInt(1, 4));
    for (int i = 0; i < draws; ++i) {
      s.codes.push_back(static_cast<int32_t>(
          rng->UniformInt(0, std::max<int64_t>(cat->Cardinality() - 1, 0))));
    }
    (void)b.base.AddSet(std::move(s));
  }
  b.attr = "x";
  b.is_range = true;
  const int k = static_cast<int>(rng->UniformInt(1, 6));
  for (int i = 0; i < k; ++i) {
    double a = rng->Uniform(-10.0, 110.0);
    double c = rng->Uniform(-10.0, 110.0);
    if (c < a) std::swap(a, c);
    if (c == a) c = a + 1.0;
    b.range_variants.push_back({"x", a, c, rng->Bernoulli(0.5)});
  }
  return b;
}

/// Batch of random cat-set variants over an optional random base on x.
CandidateBatch RandomSetBatch(Rng* rng, const Table& table) {
  CandidateBatch b;
  if (rng->Bernoulli(0.6)) {
    double a = rng->Uniform(-10.0, 110.0);
    double c = rng->Uniform(-10.0, 110.0);
    if (c < a) std::swap(a, c);
    if (c == a) c = a + 1.0;
    (void)b.base.AddRange({"x", a, c, rng->Bernoulli(0.5)});
  }
  b.attr = "cat";
  b.is_range = false;
  const Column* cat = table.ColumnByName("cat").ValueOrDie();
  const int k = static_cast<int>(rng->UniformInt(1, 6));
  for (int i = 0; i < k; ++i) {
    SetClause s;
    s.attr = "cat";
    const int draws = static_cast<int>(rng->UniformInt(1, 4));
    for (int d = 0; d < draws; ++d) {
      s.codes.push_back(static_cast<int32_t>(
          rng->UniformInt(0, std::max<int64_t>(cat->Cardinality() - 1, 0))));
    }
    b.set_variants.push_back(std::move(s));
  }
  return b;
}

/// Asserts FilterBatch equals per-candidate BoundPredicate::Filter exactly
/// — rows AND the pruning-counter trajectory — for sparse and all-rows
/// inputs, pruning on and off.
void ExpectBatchEquivalent(const Table& table, const CandidateBatch& batch,
                           const RowIdList& sparse_rows,
                           ThreadPool* pool = nullptr) {
  const size_t n = table.num_rows();
  const Selection sparse = Selection::FromSorted(sparse_rows, n);
  const Selection all = Selection::All(n);
  for (bool pruned : {false, true}) {
    auto bound_or = batch.Bind(table);
    ASSERT_TRUE(bound_or.ok()) << bound_or.status().ToString();
    BoundCandidateBatch& bound = *bound_or;
    bound.set_enable_pruning(pruned);
    bound.set_thread_pool(pool);
    BlockPruningStats batch_sink;
    bound.set_pruning_stats(&batch_sink);

    const std::vector<Selection> got_sparse = bound.FilterBatch(sparse);
    const std::vector<Selection> got_all = bound.FilterBatch(all);
    ASSERT_EQ(got_sparse.size(), batch.size());
    ASSERT_EQ(got_all.size(), batch.size());

    BlockPruningStats single_sink;
    for (size_t i = 0; i < batch.size(); ++i) {
      auto single_or = batch.Candidate(i).Bind(table);
      ASSERT_TRUE(single_or.ok()) << single_or.status().ToString();
      BoundPredicate& single = *single_or;
      single.set_enable_pruning(pruned);
      single.set_pruning_stats(&single_sink);
      const Selection want_sparse = *single.Filter(sparse);
      const Selection want_all = *single.Filter(all);
      EXPECT_EQ(got_sparse[i].rows(), want_sparse.rows())
          << "candidate " << i << " pruned=" << pruned;
      EXPECT_EQ(got_sparse[i].size(), want_sparse.size());
      EXPECT_EQ(got_all[i].rows(), want_all.rows())
          << "candidate " << i << " pruned=" << pruned;
      EXPECT_EQ(got_all[i].size(), want_all.size());
    }
    // Verdict combination is lossless, so the batch advances the pruning
    // counters exactly as N separate filters over the same inputs do.
    EXPECT_EQ(batch_sink.blocks_pruned_none.load(),
              single_sink.blocks_pruned_none.load());
    EXPECT_EQ(batch_sink.blocks_pruned_all.load(),
              single_sink.blocks_pruned_all.load());
    EXPECT_EQ(batch_sink.blocks_partial.load(),
              single_sink.blocks_partial.load());
    EXPECT_EQ(batch_sink.rows_skipped_by_pruning.load(),
              single_sink.rows_skipped_by_pruning.load());
  }
}

class CandidateBatchProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CandidateBatchProperty, BatchedMatchesPerCandidateFilters) {
  Rng rng(GetParam());
  const size_t sizes[] = {1,
                          5,
                          kBlockSize - 1,
                          kBlockSize,
                          kBlockSize + 1,
                          2 * kBlockSize + 17,
                          3 * kBlockSize};
  for (size_t n : sizes) {
    for (bool clustered : {false, true}) {
      for (double nan_frac : {0.0, 0.3}) {
        Table table = BuildTable(&rng, n, clustered, nan_frac,
                                 /*cat_cardinality=*/12);
        const RowIdList sparse = BoundaryHeavySubset(&rng, n, 0.25);
        for (int rep = 0; rep < 2; ++rep) {
          ExpectBatchEquivalent(table, RandomRangeBatch(&rng, table), sparse);
        }
        ExpectBatchEquivalent(table, RandomSetBatch(&rng, table), sparse);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateBatchProperty,
                         ::testing::Values(7u, 19u, 83u));

TEST(CandidateBatch, HashedCategoricalBitsets) {
  // Cardinality 300 > kBlockCodeBits forces the hashed code bitsets, where
  // collisions make ALL verdicts unsound — the batch must agree with the
  // per-candidate filters anyway.
  Rng rng(51);
  Table table = BuildTable(&rng, 2 * kBlockSize + 7, /*clustered=*/true,
                           /*nan_frac=*/0.0, /*cat_cardinality=*/300);
  ASSERT_GT(table.ColumnByName("cat").ValueOrDie()->Cardinality(),
            static_cast<int32_t>(kBlockCodeBits));
  const RowIdList sparse = BoundaryHeavySubset(&rng, table.num_rows(), 0.2);
  for (int rep = 0; rep < 4; ++rep) {
    ExpectBatchEquivalent(table, RandomSetBatch(&rng, table), sparse);
  }
}

TEST(CandidateBatch, BlockParallelBatchesAreIdentical) {
  Rng rng(57);
  const size_t n = 8 * kBlockSize + 9;
  Table table = BuildTable(&rng, n, /*clustered=*/true, /*nan_frac=*/0.1,
                           /*cat_cardinality=*/12);
  ThreadPool pool(4);
  const RowIdList sparse = BoundaryHeavySubset(&rng, n, 0.2);
  for (int rep = 0; rep < 3; ++rep) {
    CandidateBatch range_batch = RandomRangeBatch(&rng, table);
    ExpectBatchEquivalent(table, range_batch, sparse, /*pool=*/nullptr);
    ExpectBatchEquivalent(table, range_batch, sparse, &pool);
    CandidateBatch set_batch = RandomSetBatch(&rng, table);
    ExpectBatchEquivalent(table, set_batch, sparse, /*pool=*/nullptr);
    ExpectBatchEquivalent(table, set_batch, sparse, &pool);
  }
}

TEST(CandidateBatch, ConcurrentProducersSharingOnePool) {
  // The PR 5 scratch discipline under help-first stealing: while a
  // block-parallel FilterBatch blocks in ThreadPool::ParallelFor, its
  // thread executes other producers' queued tasks — which may run whole
  // FilterBatch calls of their own. The batch kernels keep every slice and
  // mask buffer on the stack of the per-span lambda, so stolen work cannot
  // clobber an in-flight call. Four producer threads drive batched filters
  // (including scorer-style nested batches) through one shared pool; every
  // result is checked against per-candidate references computed up front.
  Rng rng(61);
  const size_t n = 16 * kBlockSize + 9;
  Table table = BuildTable(&rng, n, /*clustered=*/true, /*nan_frac=*/0.1,
                           /*cat_cardinality=*/12);
  const RowIdList sparse_rows = BoundaryHeavySubset(&rng, n, 0.3);
  const Selection sparse = Selection::FromSorted(sparse_rows, n);
  const Selection all = Selection::All(n);

  struct Case {
    CandidateBatch batch;
    std::vector<RowIdList> expect_sparse;
    std::vector<RowIdList> expect_all;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 4; ++i) {
    Case c;
    c.batch = (i % 2 == 0) ? RandomRangeBatch(&rng, table)
                           : RandomSetBatch(&rng, table);
    for (size_t j = 0; j < c.batch.size(); ++j) {
      auto single = c.batch.Candidate(j).Bind(table).ValueOrDie();
      c.expect_sparse.push_back(single.Filter(sparse)->rows());
      c.expect_all.push_back(single.Filter(all)->rows());
    }
    cases.push_back(std::move(c));
  }

  auto check = [&](const std::vector<Selection>& got,
                   const std::vector<RowIdList>& want) {
    if (got.size() != want.size()) return false;
    for (size_t j = 0; j < got.size(); ++j) {
      if (got[j].rows() != want[j]) return false;
    }
    return true;
  };

  ThreadPool pool(4);
  constexpr int kProducers = 4;
  constexpr int kRepsPerProducer = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int rep = 0; rep < kRepsPerProducer; ++rep) {
        const Case& c = cases[static_cast<size_t>(p + rep) % cases.size()];
        auto bound = c.batch.Bind(table).ValueOrDie();
        bound.set_thread_pool(&pool);
        if (!check(bound.FilterBatch(sparse), c.expect_sparse)) ++failures;
        if (!check(bound.FilterBatch(all), c.expect_all)) ++failures;
        // Scorer-style nesting: queued tasks that each run a whole batched
        // filter, so a producer blocked in its own ParallelFor can steal a
        // task that evaluates another batch on its thread.
        pool.ParallelFor(0, 4, [&](size_t) {
          auto inner = c.batch.Bind(table).ValueOrDie();
          inner.set_thread_pool(&pool);
          if (!check(inner.FilterBatch(sparse), c.expect_sparse)) {
            ++failures;
          }
        });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- Split sweep --------------------------------------------------------------

/// Influence mixes for the sweep differentials. Beyond uniform draws, the
/// masked accumulation must survive values whose masked-off lanes would
/// not vanish under x * 0 (inf, NaN), signed zeros, sums that overflow,
/// and denormals. Infinities and NaNs go in separate mixes: inf - inf
/// makes a NaN of the other sign, and which of two different NaN operands
/// an addition returns depends on the operand order the compiler picks.
enum class InfMix { kUniform, kZerosAndDenormals, kHuge, kInfinities, kNaNs };

double DrawInfluence(Rng* rng, InfMix mix) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  switch (mix) {
    case InfMix::kUniform:
      break;
    case InfMix::kZerosAndDenormals:
      if (rng->Bernoulli(0.4)) {
        const double pool[] = {0.0, -0.0, kDenorm, -kDenorm, 3 * kDenorm,
                               -2.5e-310};
        return pool[rng->UniformInt(0, 5)];
      }
      break;
    case InfMix::kHuge:
      if (rng->Bernoulli(0.05)) return rng->Bernoulli(0.5) ? 1e308 : -1e308;
      break;
    case InfMix::kInfinities:
      if (rng->Bernoulli(0.01)) return rng->Bernoulli(0.5) ? kInf : -kInf;
      break;
    case InfMix::kNaNs:
      if (rng->Bernoulli(0.01)) return kNaN;
      break;
  }
  return rng->Uniform(-5.0, 5.0);
}

constexpr InfMix kInfMixes[] = {InfMix::kUniform, InfMix::kZerosAndDenormals,
                                InfMix::kHuge, InfMix::kInfinities,
                                InfMix::kNaNs};

/// Metric bit patterns compared with memcmp (NaN metrics included), totals
/// exactly.
void ExpectSameEval(const SplitEval& got, const SplitEval& want,
                    const std::string& where) {
  ASSERT_EQ(got.metric.size(), want.metric.size()) << where;
  EXPECT_EQ(std::memcmp(got.metric.data(), want.metric.data(),
                        want.metric.size() * sizeof(double)),
            0)
      << where;
  EXPECT_EQ(got.total_left, want.total_left) << where;
  EXPECT_EQ(got.total_right, want.total_right) << where;
}

TEST(SplitSweep, RangeSweepMatchesReference) {
  Rng rng(67);
  for (size_t n : {size_t{64}, kBlockSize + 33, 3 * kBlockSize}) {
    for (double nan_frac : {0.0, 0.2}) {
      Table table = BuildTable(&rng, n, /*clustered=*/true, nan_frac,
                               /*cat_cardinality=*/8);
      const Column& col = *table.ColumnByName("x").ValueOrDie();
      for (InfMix mix : kInfMixes) {
        // Interleaved groups with per-row influences, plus one empty group.
        std::vector<RowIdList> rows(3);
        std::vector<std::vector<double>> inf(3);
        for (size_t i = 0; i < n; ++i) {
          const size_t g = static_cast<size_t>(rng.UniformInt(0, 2));
          rows[g].push_back(static_cast<RowId>(i));
          inf[g].push_back(DrawInfluence(&rng, mix));
        }
        std::vector<SplitGroup> groups;
        for (size_t g = 0; g < 3; ++g) groups.push_back({&rows[g], &inf[g]});
        static const RowIdList kEmptyRows;
        static const std::vector<double> kEmptyInf;
        groups.push_back({&kEmptyRows, &kEmptyInf});

        for (size_t k : {size_t{1}, size_t{3}, size_t{7}, size_t{32}}) {
          std::vector<double> thresholds;
          for (size_t j = 0; j < k; ++j) {
            thresholds.push_back(rng.Uniform(-5.0, 105.0));
          }
          std::sort(thresholds.begin(), thresholds.end());
          thresholds.erase(
              std::unique(thresholds.begin(), thresholds.end()),
              thresholds.end());
          ExpectSameEval(RangeSplitSweep(col, groups, thresholds),
                         RangeSplitReference(col, groups, thresholds),
                         "n=" + std::to_string(n) +
                             " k=" + std::to_string(k) +
                             " mix=" + std::to_string(static_cast<int>(mix)));
        }
      }
    }
  }
}

TEST(SplitSweep, DiscreteSweepMatchesReference) {
  Rng rng(71);
  // One scratch across every call, as DT keeps one per attribute.
  std::vector<uint32_t> scratch;
  for (size_t n : {size_t{64}, kBlockSize + 33, 2 * kBlockSize}) {
    Table table = BuildTable(&rng, n, /*clustered=*/false, /*nan_frac=*/0.0,
                             /*cat_cardinality=*/12);
    const Column& col = *table.ColumnByName("cat").ValueOrDie();
    for (InfMix mix : kInfMixes) {
      std::vector<RowIdList> rows(3);
      std::vector<std::vector<double>> inf(3);
      for (size_t i = 0; i < n; ++i) {
        const size_t g = static_cast<size_t>(rng.UniformInt(0, 2));
        rows[g].push_back(static_cast<RowId>(i));
        inf[g].push_back(DrawInfluence(&rng, mix));
      }
      std::vector<SplitGroup> groups;
      for (size_t g = 0; g < 3; ++g) groups.push_back({&rows[g], &inf[g]});

      const int32_t card = col.Cardinality();
      // Distinct codes in frequency-style (unsorted) order, including one
      // code that may not appear in any sampled group; k = 6 spans two
      // lane tiles.
      std::vector<int32_t> codes;
      for (int32_t c = card - 1; c >= 0; c -= 2) codes.push_back(c);
      ExpectSameEval(DiscreteSplitSweep(col, groups, codes, &scratch),
                     DiscreteSplitReference(col, groups, codes),
                     "n=" + std::to_string(n) +
                         " mix=" + std::to_string(static_cast<int>(mix)));
      EXPECT_TRUE(std::all_of(scratch.begin(), scratch.end(),
                              [](uint32_t v) { return v == 0; }));
    }
  }
}

// A 100k-code dictionary with 50-row samples: the sweep's per-code scratch
// is sized once and touched only at the candidates' codes, and comes back
// all zero after every call.
TEST(SplitSweep, DiscreteSweepOnLargeDictionary) {
  constexpr int32_t kCodes = 100000;
  constexpr uint32_t kHotRows = 200;
  Column col(DataType::kCategorical);
  // Row c < kCodes carries code c; the kHotRows rows after them carry
  // codes 0..3, so samples drawn there repeat codes.
  for (int32_t c = 0; c < kCodes; ++c) {
    ASSERT_TRUE(col.AppendString("c" + std::to_string(c)).ok());
  }
  for (uint32_t i = 0; i < kHotRows; ++i) {
    ASSERT_TRUE(col.AppendString("c" + std::to_string(i % 4)).ok());
  }
  Rng rng(73);
  std::vector<uint32_t> scratch;
  for (int trial = 0; trial < 200; ++trial) {
    // 50 distinct rows: 10 hot, 40 from the whole dictionary.
    std::vector<RowId> picks;
    for (uint32_t r : rng.SampleWithoutReplacement(kHotRows, 10)) {
      picks.push_back(static_cast<RowId>(kCodes) + r);
    }
    for (uint32_t r : rng.SampleWithoutReplacement(kCodes, 40)) {
      picks.push_back(r);
    }
    std::sort(picks.begin(), picks.end());
    std::vector<RowIdList> rows(2);
    std::vector<std::vector<double>> inf(2);
    for (RowId r : picks) {
      const size_t g = static_cast<size_t>(rng.UniformInt(0, 1));
      rows[g].push_back(r);
      inf[g].push_back(DrawInfluence(&rng, kInfMixes[trial % 5]));
    }
    std::vector<SplitGroup> groups;
    for (size_t g = 0; g < 2; ++g) groups.push_back({&rows[g], &inf[g]});
    std::vector<int32_t> codes =
        DiscreteSplitCandidates(col, groups, 5, &scratch);
    // Plus one more distinct code, which the sample almost never carries.
    const int32_t extra = kCodes - 1 - trial;
    if (std::find(codes.begin(), codes.end(), extra) == codes.end()) {
      codes.push_back(extra);
    }
    ExpectSameEval(DiscreteSplitSweep(col, groups, codes, &scratch),
                   DiscreteSplitReference(col, groups, codes),
                   "trial=" + std::to_string(trial));
    ASSERT_EQ(scratch.size(), static_cast<size_t>(kCodes));
    EXPECT_TRUE(std::all_of(scratch.begin(), scratch.end(),
                            [](uint32_t v) { return v == 0; }))
        << "trial=" << trial;
  }
}

// --- Planning -----------------------------------------------------------------

TEST(CandidateBatch, PlanFactorsConsecutiveSingleClauseRuns) {
  std::vector<Predicate> preds;
  // A run of four x-thresholds over a fixed y clause...
  for (double t : {10.0, 20.0, 30.0, 40.0}) {
    Predicate p;
    (void)p.AddRange({"y", 0.0, 50.0, false});
    (void)p.AddRange({"x", t, 100.0, false});
    preds.push_back(std::move(p));
  }
  // ...an unbatchable singleton (different clause count)...
  {
    Predicate p;
    (void)p.AddRange({"x", 5.0, 95.0, true});
    preds.push_back(std::move(p));
  }
  // ...a run of three cat-set variants over a fixed x clause...
  for (int32_t code : {2, 7, 9}) {
    Predicate p;
    (void)p.AddRange({"x", 0.0, 50.0, false});
    (void)p.AddSet({"cat", {code}});
    preds.push_back(std::move(p));
  }
  // ...and a factorable pair, below kMinProfitableBatch: planned as two
  // singletons because a 2-run's shared gather costs more than it saves.
  for (double t : {60.0, 80.0}) {
    Predicate p;
    (void)p.AddRange({"y", t, 100.0, false});
    preds.push_back(std::move(p));
  }

  const std::vector<CandidateBatchPlan> plan = PlanCandidateBatches(preds);
  ASSERT_EQ(plan.size(), 5u);

  EXPECT_EQ(plan[0].begin, 0u);
  EXPECT_EQ(plan[0].count, 4u);
  ASSERT_TRUE(plan[0].batch.has_value());
  EXPECT_TRUE(plan[0].batch->is_range);
  EXPECT_EQ(plan[0].batch->attr, "x");

  EXPECT_EQ(plan[1].begin, 4u);
  EXPECT_EQ(plan[1].count, 1u);
  EXPECT_FALSE(plan[1].batch.has_value());

  EXPECT_EQ(plan[2].begin, 5u);
  EXPECT_EQ(plan[2].count, 3u);
  ASSERT_TRUE(plan[2].batch.has_value());
  EXPECT_FALSE(plan[2].batch->is_range);
  EXPECT_EQ(plan[2].batch->attr, "cat");

  for (size_t g = 3; g < 5; ++g) {
    EXPECT_EQ(plan[g].begin, 5u + g);
    EXPECT_EQ(plan[g].count, 1u);
    EXPECT_FALSE(plan[g].batch.has_value());
  }

  // Lossless: group g's Candidate(i - begin) reproduces the input exactly.
  for (const CandidateBatchPlan& group : plan) {
    if (!group.batch.has_value()) continue;
    ASSERT_EQ(group.batch->size(), group.count);
    for (size_t j = 0; j < group.count; ++j) {
      EXPECT_EQ(group.batch->Candidate(j), preds[group.begin + j])
          << "group at " << group.begin << " candidate " << j;
    }
  }
}

// --- Scorer and whole-engine equivalence --------------------------------------

struct SynthFixture {
  SynthDataset dataset;
  QueryResult qr;
  ProblemSpec problem;
};

SynthFixture MakeFixture() {
  SynthOptions opts = SynthPreset(2, /*easy=*/true, /*seed=*/17);
  opts.num_groups = 8;
  opts.tuples_per_group = 400;
  SynthFixture f;
  f.dataset = GenerateSynth(opts).ValueOrDie();
  f.qr = ExecuteGroupBy(f.dataset.table, f.dataset.query).ValueOrDie();
  f.problem = MakeProblem(f.qr, f.dataset.outlier_keys,
                          f.dataset.holdout_keys, /*error_direction=*/1.0,
                          /*lambda=*/0.5, /*c=*/0.2, f.dataset.attributes)
                  .ValueOrDie();
  return f;
}

TEST(CandidateBatch, InfluenceAllMatchesPerCandidateInfluence) {
  SynthFixture f = MakeFixture();
  const std::string& a0 = f.dataset.attributes[0];
  const std::string& a1 = f.dataset.attributes[1];

  std::vector<Predicate> preds;
  // Batchable run: fixed a1 clause, sweeping a0 thresholds.
  for (double t : {10.0, 25.0, 40.0, 55.0, 70.0, 85.0}) {
    Predicate p;
    (void)p.AddRange({a1, 20.0, 80.0, false});
    (void)p.AddRange({a0, t, 100.0, true});
    preds.push_back(std::move(p));
  }
  // Singleton breaking the run.
  {
    Predicate p;
    (void)p.AddRange({a0, 30.0, 60.0, false});
    preds.push_back(std::move(p));
  }
  // Second batchable run on the other attribute.
  for (double t : {15.0, 45.0, 75.0}) {
    Predicate p;
    (void)p.AddRange({a0, 10.0, 90.0, false});
    (void)p.AddRange({a1, 0.0, t, false});
    preds.push_back(std::move(p));
  }

  Scorer batched =
      Scorer::Make(f.dataset.table, f.qr, f.problem).ValueOrDie();
  Scorer reference =
      Scorer::Make(f.dataset.table, f.qr, f.problem).ValueOrDie();
  reference.set_enable_candidate_batching(false);

  const auto scores = batched.InfluenceAll(preds);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ASSERT_EQ(scores->size(), preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    const auto want = reference.Influence(preds[i]);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ((*scores)[i], *want) << "candidate " << i;
  }

  // The batched scorer actually batched, and both paths paid for the same
  // number of predicate scores.
  EXPECT_GE(batched.stats().candidate_batches.load(), 2u);
  EXPECT_EQ(batched.stats().predicate_scores.load(),
            reference.stats().predicate_scores.load());

  // The disabled path falls back to per-candidate scoring with identical
  // results and no batch accounting.
  const auto fallback = reference.InfluenceAll(preds);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(*fallback, *scores);
  EXPECT_EQ(reference.stats().candidate_batches.load(), 0u);
}

class BatchingAlgorithmEquivalence
    : public ::testing::TestWithParam<Algorithm> {};

TEST_P(BatchingAlgorithmEquivalence, ExplainMatchesUnbatchedBitForBit) {
  SynthFixture f = MakeFixture();

  ScorpionOptions options;
  options.algorithm = GetParam();
  options.naive.time_budget_seconds = 300.0;
  options.naive.max_clauses = 2;

  options.enable_candidate_batching = false;
  Scorpion unbatched_engine(options);
  auto unbatched = unbatched_engine.Explain(f.dataset.table, f.qr, f.problem);
  ASSERT_TRUE(unbatched.ok()) << unbatched.status().ToString();

  options.enable_candidate_batching = true;
  Scorpion batched_engine(options);
  auto batched = batched_engine.Explain(f.dataset.table, f.qr, f.problem);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  ASSERT_EQ(unbatched->predicates.size(), batched->predicates.size());
  for (size_t i = 0; i < unbatched->predicates.size(); ++i) {
    EXPECT_EQ(unbatched->predicates[i].pred.ToString(&f.dataset.table),
              batched->predicates[i].pred.ToString(&f.dataset.table))
        << "rank " << i;
    EXPECT_EQ(unbatched->predicates[i].influence,
              batched->predicates[i].influence)
        << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, BatchingAlgorithmEquivalence,
                         ::testing::Values(Algorithm::kDT, Algorithm::kMC,
                                           Algorithm::kNaive),
                         [](const auto& info) {
                           return std::string(AlgorithmToString(info.param));
                         });

}  // namespace
}  // namespace scorpion
