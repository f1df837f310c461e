// DT split-candidate selection (core/split_sweep.h) against the sort-based
// rules it replaced (tests/reference/split_candidates.h), and the range
// sweep's partition step on thresholds that coincide with sampled values.
//
// The range candidates are order statistics of the sample, so they must
// equal the values a full sort reads off at the same positions — including
// when positions repeat (samples of 2..K+1 values), under heavy
// duplication, for all-equal samples (no candidates) and with signed zeros,
// which a sort may place in either order and which are therefore compared
// with ==. The shapes also cover what radix selection over order-preserving
// keys must get right: ±inf and denormals, values spanning the sign and
// many binades, narrow 4-decimal and duplicate-heavy 1-decimal ranges, and
// keys that differ only in their lowest bits. The discrete candidates must
// equal the full (frequency descending, code ascending) ranking's prefix,
// ties included.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/split_sweep.h"
#include "reference/split_candidates.h"
#include "table/column.h"

namespace scorpion {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Rows [0, n) dealt into `num_groups` ascending groups; influences are
/// irrelevant to candidate selection but aligned for the sweep.
struct Groups {
  std::vector<RowIdList> rows;
  std::vector<std::vector<double>> inf;
  std::vector<SplitGroup> views;

  Groups(Rng* rng, size_t n, size_t num_groups)
      : rows(num_groups), inf(num_groups) {
    for (size_t i = 0; i < n; ++i) {
      const size_t g = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(num_groups) - 1));
      rows[g].push_back(static_cast<RowId>(i));
      inf[g].push_back(rng->Uniform(-5.0, 5.0));
    }
    for (size_t g = 0; g < num_groups; ++g) {
      views.push_back({&rows[g], &inf[g]});
    }
  }
};

Column DoubleColumn(const std::vector<double>& values) {
  Column col(DataType::kDouble);
  for (double v : values) EXPECT_TRUE(col.AppendDouble(v).ok());
  return col;
}

enum class Shape {
  kContinuous,
  kDuplicates,
  kAllEqual,
  kSignedZeros,
  kInfAndDenormals,  // ±inf, denormals and zeros among ordinary values
  kSpansSign,        // both signs, magnitudes from 1e-30 to 1e30
  kFourDecimals,     // a narrow range at 4 decimals
  kOneDecimal,       // 1-decimal readings, heavy duplicates
  kLowBits,          // keys that differ only in their lowest bits
};

double Draw(Rng* rng, Shape shape) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  switch (shape) {
    case Shape::kContinuous:
      return rng->Uniform(-50.0, 50.0);
    case Shape::kDuplicates:
      return static_cast<double>(rng->UniformInt(0, 3));
    case Shape::kAllEqual:
      return 7.5;
    case Shape::kSignedZeros: {
      const double pool[] = {-0.0, 0.0, -0.0, 0.0, 1.0, -1.0};
      return pool[rng->UniformInt(0, 5)];
    }
    case Shape::kInfAndDenormals: {
      const double pool[] = {kInf,     -kInf, kDenorm, -kDenorm,
                             3 * kDenorm, std::numeric_limits<double>::min(),
                             0.0,      -0.0,  rng->Uniform(-1.0, 1.0)};
      return pool[rng->UniformInt(0, 8)];
    }
    case Shape::kSpansSign:
      return (rng->Bernoulli(0.5) ? -1.0 : 1.0) *
             std::pow(10.0, rng->Uniform(-30.0, 30.0));
    case Shape::kFourDecimals:
      return std::round(rng->Uniform(20.0, 20.05) * 1e4) / 1e4;
    case Shape::kOneDecimal:
      return std::round(rng->Uniform(15.0, 17.0) * 10.0) / 10.0;
    case Shape::kLowBits: {
      const uint64_t base = std::bit_cast<uint64_t>(
          rng->Bernoulli(0.5) ? 1.5 : -1.5);
      return std::bit_cast<double>(
          base + static_cast<uint64_t>(rng->UniformInt(0, 40)));
    }
  }
  return 0.0;
}

/// Element-wise ==, so -0.0 and +0.0 count as the same candidate.
void ExpectSameCandidates(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << where << " i=" << i << " got=" << got[i]
                                   << " want=" << want[i];
    if (i > 0) {
      EXPECT_LT(got[i - 1], got[i]) << where;
    }
  }
}

TEST(SplitCandidates, RangeMatchesSortReference) {
  Rng rng(101);
  const Shape shapes[] = {Shape::kContinuous,      Shape::kDuplicates,
                          Shape::kAllEqual,        Shape::kSignedZeros,
                          Shape::kInfAndDenormals, Shape::kSpansSign,
                          Shape::kFourDecimals,    Shape::kOneDecimal,
                          Shape::kLowBits};
  constexpr int kShapes = static_cast<int>(std::size(shapes));
  for (int trial = 0; trial < 9000; ++trial) {
    const int k = static_cast<int>(rng.UniformInt(1, 9));
    const Shape shape = shapes[trial % kShapes];
    // The size class is drawn from the round (trial / kShapes), so every
    // shape meets every class: one round in 50 reaches past 2048 values,
    // where the first radix level has more values than buckets; a third of
    // the rest stay at 0..K+1 values, where several quantile positions land
    // on the same index; the others hold 0..400 values.
    const int round = trial / kShapes;
    const size_t n =
        round % 50 == 1  ? static_cast<size_t>(rng.UniformInt(2048, 6000))
        : round % 3 == 0 ? static_cast<size_t>(rng.UniformInt(0, k + 1))
                         : static_cast<size_t>(rng.UniformInt(0, 400));
    const double nan_frac = trial % 4 == 0 ? 0.25 : 0.0;
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) {
      values.push_back(rng.Bernoulli(nan_frac) ? kNaN : Draw(&rng, shape));
    }
    const Column col = DoubleColumn(values);
    Groups groups(&rng, n, static_cast<size_t>(rng.UniformInt(1, 4)));
    const std::vector<double> got =
        RangeSplitCandidates(col, groups.views, k);
    const std::vector<double> want =
        reference::RangeSplitCandidates(col, groups.views, k);
    ExpectSameCandidates(got, want,
                         "trial=" + std::to_string(trial) +
                             " n=" + std::to_string(n) +
                             " k=" + std::to_string(k));
    if (shape == Shape::kAllEqual) {
      EXPECT_TRUE(got.empty());
    }
  }
}

TEST(SplitCandidates, RangeEdgeCases) {
  Rng rng(103);
  auto candidates = [&](const std::vector<double>& values, int k) {
    const Column col = DoubleColumn(values);
    Groups groups(&rng, values.size(), 2);
    return RangeSplitCandidates(col, groups.views, k);
  };
  EXPECT_TRUE(candidates({}, 3).empty());
  EXPECT_TRUE(candidates({4.0}, 3).empty());
  EXPECT_TRUE(candidates({4.0, 4.0, 4.0, 4.0, 4.0}, 3).empty());
  EXPECT_TRUE(candidates({-0.0, 0.0, 0.0, -0.0}, 3).empty());
  // Only one non-NaN value: fewer than two in the pool.
  EXPECT_TRUE(candidates({kNaN, 2.0, kNaN}, 3).empty());
  EXPECT_TRUE(candidates({1.0, 2.0, 3.0}, 0).empty());
  // Two values, K = 3: positions 0, 1, 1 -> only the maximum survives.
  const std::vector<double> two = candidates({5.0, 1.0}, 3);
  ASSERT_EQ(two.size(), 1u);
  EXPECT_EQ(two[0], 5.0);
  // Quartiles of 0..7 at positions 2, 4, 6.
  EXPECT_EQ(candidates({7, 3, 5, 1, 0, 6, 2, 4}, 3),
            (std::vector<double>{2.0, 4.0, 6.0}));
  // A signed-zero sample whose minimum is -1: the zero quantile is one
  // candidate, whatever its sign.
  const std::vector<double> zeros =
      candidates({0.0, -1.0, -0.0, 1.0, 0.0, -0.0, 1.0, 1.0}, 3);
  ASSERT_EQ(zeros.size(), 2u);
  EXPECT_TRUE(zeros[0] == 0.0);
  EXPECT_EQ(zeros[1], 1.0);
}

TEST(SplitCandidates, NaNsNeverEnterThePool) {
  Rng rng(107);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 300));
    std::vector<double> with_nan, without_nan;
    for (size_t i = 0; i < n; ++i) {
      const double v = rng.Uniform(0.0, 100.0);
      without_nan.push_back(v);
      with_nan.push_back(v);
      if (rng.Bernoulli(0.3)) with_nan.push_back(kNaN);
    }
    const Column col_nan = DoubleColumn(with_nan);
    const Column col = DoubleColumn(without_nan);
    Groups g_nan(&rng, with_nan.size(), 1);
    Groups g(&rng, without_nan.size(), 1);
    const std::vector<double> got =
        RangeSplitCandidates(col_nan, g_nan.views, 3);
    for (double v : got) EXPECT_FALSE(std::isnan(v));
    EXPECT_EQ(got, RangeSplitCandidates(col, g.views, 3));
  }
}

TEST(SplitCandidates, DiscreteMatchesSortReference) {
  Rng rng(109);
  const int limits[] = {0, 1, 3, 10, 100};
  // One count scratch across every trial, as DT keeps one per attribute
  // across nodes: each call must hand it back all zero.
  std::vector<uint32_t> counts;
  for (int trial = 0; trial < 2000; ++trial) {
    const int32_t card = static_cast<int32_t>(rng.UniformInt(1, 40));
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 500));
    Column col(DataType::kCategorical);
    // Intern every code first so the dictionary (and Cardinality) covers
    // codes the sample never draws.
    for (int32_t c = 0; c < card; ++c) {
      ASSERT_TRUE(col.AppendString("c" + std::to_string(c)).ok());
    }
    // Skewed draws (heavy duplicates on low codes) or uniform draws (many
    // frequency ties), alternating.
    for (size_t i = 0; i < n; ++i) {
      int64_t c = rng.UniformInt(0, card - 1);
      if (trial % 2 == 0) c = std::min(c, rng.UniformInt(0, card - 1));
      ASSERT_TRUE(col.AppendString("c" + std::to_string(c)).ok());
    }
    // Sample only the appended rows, not the interning prefix.
    std::vector<RowIdList> rows(3);
    std::vector<std::vector<double>> inf(3);
    for (size_t i = 0; i < n; ++i) {
      const size_t g = static_cast<size_t>(rng.UniformInt(0, 2));
      rows[g].push_back(static_cast<RowId>(static_cast<size_t>(card) + i));
      inf[g].push_back(0.0);
    }
    std::vector<SplitGroup> views;
    for (size_t g = 0; g < 3; ++g) views.push_back({&rows[g], &inf[g]});
    const int max_values = limits[trial % 5];
    EXPECT_EQ(DiscreteSplitCandidates(col, views, max_values, &counts),
              reference::DiscreteSplitCandidates(col, views, max_values))
        << "trial=" << trial << " card=" << card << " n=" << n;
    EXPECT_TRUE(std::all_of(counts.begin(), counts.end(),
                            [](uint32_t c) { return c == 0; }))
        << "trial=" << trial;
  }
}

TEST(SplitCandidates, DiscreteTieBreaksOnCode) {
  Column col(DataType::kCategorical);
  // Codes by first appearance: a=0, b=1, c=2, d=3. Frequencies: a 2, b 3,
  // c 3, d 1.
  for (const char* v : {"a", "b", "c", "d", "c", "b", "a", "b", "c"}) {
    ASSERT_TRUE(col.AppendString(v).ok());
  }
  RowIdList rows;
  std::vector<double> inf;
  for (RowId r = 0; r < 9; ++r) {
    rows.push_back(r);
    inf.push_back(0.0);
  }
  const std::vector<SplitGroup> views = {{&rows, &inf}};
  std::vector<uint32_t> counts;
  EXPECT_EQ(DiscreteSplitCandidates(col, views, 10, &counts),
            (std::vector<int32_t>{1, 2, 0, 3}));
  EXPECT_EQ(DiscreteSplitCandidates(col, views, 2, &counts),
            (std::vector<int32_t>{1, 2}));
  // One distinct code: no binary split.
  const RowIdList only_a = {0, 6};
  const std::vector<double> two_inf = {0.0, 0.0};
  EXPECT_TRUE(
      DiscreteSplitCandidates(col, {{&only_a, &two_inf}}, 10, &counts)
          .empty());
  EXPECT_EQ(counts, std::vector<uint32_t>(4, 0));
}

// The sweep's branch-free partition must give the same p as upper_bound
// when sampled values sit exactly on thresholds (DT's thresholds are
// sampled values), and must send NaN right of every threshold.
TEST(SplitCandidates, SweepOnCandidateThresholdsMatchesReference) {
  Rng rng(113);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 600));
    const Shape shape = trial % 2 == 0 ? Shape::kDuplicates
                                       : Shape::kContinuous;
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) {
      values.push_back(rng.Bernoulli(0.1) ? kNaN : Draw(&rng, shape));
    }
    const Column col = DoubleColumn(values);
    Groups groups(&rng, n, static_cast<size_t>(rng.UniformInt(1, 5)));
    const int k = static_cast<int>(rng.UniformInt(1, 8));
    const std::vector<double> thresholds =
        RangeSplitCandidates(col, groups.views, k);
    if (thresholds.empty()) continue;
    const SplitEval sweep = RangeSplitSweep(col, groups.views, thresholds);
    const SplitEval ref = RangeSplitReference(col, groups.views, thresholds);
    EXPECT_EQ(sweep.metric, ref.metric) << "trial=" << trial;
    EXPECT_EQ(sweep.total_left, ref.total_left) << "trial=" << trial;
    EXPECT_EQ(sweep.total_right, ref.total_right) << "trial=" << trial;
  }
}

}  // namespace
}  // namespace scorpion
