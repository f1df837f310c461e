// Aggregate operator tests: values, property declarations, and the
// state/update/remove/recover laws of Section 5.1, checked both on
// hand-picked cases and property-style over randomized data.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "aggregates/aggregate.h"
#include "aggregates/standard_aggregates.h"
#include "common/random.h"
#include "reference/aggregates.h"

namespace scorpion {
namespace {

TEST(AggregateRegistry, LooksUpAllRegisteredNames) {
  for (const std::string& name : RegisteredAggregates()) {
    auto agg = GetAggregate(name);
    ASSERT_TRUE(agg.ok()) << name;
    EXPECT_EQ((*agg)->name(), name);
  }
}

TEST(AggregateRegistry, IsCaseInsensitiveAndHasAliases) {
  EXPECT_TRUE(GetAggregate("avg").ok());
  EXPECT_TRUE(GetAggregate("Stddev").ok());
  EXPECT_TRUE(GetAggregate("std").ok());
  EXPECT_TRUE(GetAggregate("var").ok());
  EXPECT_TRUE(GetAggregate("bogus").status().IsKeyError());
}

TEST(AggregateValues, HandPickedCases) {
  std::vector<double> v = {1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(GetAggregate("COUNT").ValueOrDie()->Compute(v), 5.0);
  EXPECT_DOUBLE_EQ(GetAggregate("SUM").ValueOrDie()->Compute(v), 110.0);
  EXPECT_DOUBLE_EQ(GetAggregate("AVG").ValueOrDie()->Compute(v), 22.0);
  EXPECT_DOUBLE_EQ(GetAggregate("MIN").ValueOrDie()->Compute(v), 1.0);
  EXPECT_DOUBLE_EQ(GetAggregate("MAX").ValueOrDie()->Compute(v), 100.0);
  EXPECT_DOUBLE_EQ(GetAggregate("MEDIAN").ValueOrDie()->Compute(v), 3.0);
}

TEST(AggregateValues, MedianEvenCountAveragesMiddlePair) {
  MedianAggregate median;
  EXPECT_DOUBLE_EQ(median.Compute({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median.Compute({7}), 7.0);
  EXPECT_TRUE(std::isnan(median.Compute({})));
}

TEST(AggregateValues, VarianceAndStddevArePopulationStatistics) {
  VarianceAggregate var;
  StddevAggregate std_agg;
  std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};  // classic example
  EXPECT_DOUBLE_EQ(var.Compute(v), 4.0);
  EXPECT_DOUBLE_EQ(std_agg.Compute(v), 2.0);
}

TEST(AggregateValues, EmptyInputs) {
  EXPECT_DOUBLE_EQ(CountAggregate().Compute({}), 0.0);
  EXPECT_DOUBLE_EQ(SumAggregate().Compute({}), 0.0);
  EXPECT_TRUE(std::isnan(AvgAggregate().Compute({})));
  EXPECT_TRUE(std::isnan(StddevAggregate().Compute({})));
  EXPECT_TRUE(std::isnan(MinAggregate().Compute({})));
}

TEST(AggregateProperties, DeclarationsMatchSection5) {
  auto props = [](const std::string& name) {
    const Aggregate* agg = GetAggregate(name).ValueOrDie();
    return std::make_pair(agg->is_incrementally_removable(),
                          agg->is_independent());
  };
  EXPECT_EQ(props("COUNT"), std::make_pair(true, true));
  EXPECT_EQ(props("SUM"), std::make_pair(true, true));
  EXPECT_EQ(props("AVG"), std::make_pair(true, true));
  EXPECT_EQ(props("STDDEV"), std::make_pair(true, true));
  EXPECT_EQ(props("VARIANCE"), std::make_pair(true, true));
  EXPECT_EQ(props("MIN"), std::make_pair(false, false));
  EXPECT_EQ(props("MAX"), std::make_pair(false, false));
  EXPECT_EQ(props("MEDIAN"), std::make_pair(false, false));
}

TEST(AggregateProperties, AntiMonotoneChecks) {
  const Aggregate* count = GetAggregate("COUNT").ValueOrDie();
  const Aggregate* sum = GetAggregate("SUM").ValueOrDie();
  const Aggregate* max = GetAggregate("MAX").ValueOrDie();
  const Aggregate* avg = GetAggregate("AVG").ValueOrDie();
  EXPECT_TRUE(count->CheckAntiMonotone({-5, 0, 5}));
  EXPECT_TRUE(max->CheckAntiMonotone({-5, 0, 5}));
  EXPECT_TRUE(sum->CheckAntiMonotone({0, 1, 2}));
  EXPECT_FALSE(sum->CheckAntiMonotone({1, -1}));  // negative value
  EXPECT_FALSE(avg->CheckAntiMonotone({1, 2}));   // AVG never declares it
}

TEST(AggregateProperties, NonRemovableAggregatesRejectStateCalls) {
  const Aggregate* median = GetAggregate("MEDIAN").ValueOrDie();
  EXPECT_TRUE(median->State({1, 2}).status().IsNotImplemented());
  EXPECT_TRUE(median->Recover({1}).status().IsNotImplemented());
}

TEST(AggregateState, AvgDecompositionMatchesPaperExample) {
  // AVG.state(D) = [SUM(D), |D|] (Section 5.1's worked augmentation).
  AvgAggregate avg;
  auto state = avg.State({35, 35, 100});
  ASSERT_TRUE(state.ok());
  EXPECT_DOUBLE_EQ((*state)[0], 170.0);
  EXPECT_DOUBLE_EQ((*state)[1], 3.0);
  auto removed = avg.Remove(*state, avg.State({100}).ValueOrDie());
  ASSERT_TRUE(removed.ok());
  EXPECT_DOUBLE_EQ(avg.Recover(*removed).ValueOrDie(), 35.0);
}

TEST(AggregateState, ArityMismatchIsInvalidArgument) {
  AvgAggregate avg;
  EXPECT_TRUE(avg.Recover({1.0}).status().IsInvalidArgument());
  EXPECT_TRUE(avg.Remove({1.0, 2.0}, {1.0}).status().IsInvalidArgument());
}

// --- Property-style sweep: remove() must agree with recomputation ----------

struct RemovalCase {
  std::string agg_name;
  uint64_t seed;
};

class IncrementalRemovalLaw : public ::testing::TestWithParam<RemovalCase> {};

TEST_P(IncrementalRemovalLaw, RemoveMatchesRecompute) {
  const RemovalCase& param = GetParam();
  const Aggregate* agg = GetAggregate(param.agg_name).ValueOrDie();
  ASSERT_TRUE(agg->is_incrementally_removable());

  Rng rng(param.seed);
  const int n = 200;
  std::vector<double> all(n);
  for (double& v : all) v = rng.Uniform(-50.0, 150.0);

  // Random subset to remove (leave at least 2 behind).
  std::vector<double> removed, remaining;
  for (int i = 0; i < n; ++i) {
    if (i >= 2 && rng.Bernoulli(0.3)) {
      removed.push_back(all[i]);
    } else {
      remaining.push_back(all[i]);
    }
  }

  AggState total = agg->State(all).ValueOrDie();
  AggState sub = agg->State(removed).ValueOrDie();
  AggState rest = agg->Remove(total, sub).ValueOrDie();
  double incremental = agg->Recover(rest).ValueOrDie();
  double recomputed = agg->Compute(remaining);
  EXPECT_NEAR(incremental, recomputed, 1e-7 * (1.0 + std::fabs(recomputed)))
      << param.agg_name << " seed " << param.seed;
}

TEST_P(IncrementalRemovalLaw, UpdateOfDisjointPartsMatchesWhole) {
  const RemovalCase& param = GetParam();
  const Aggregate* agg = GetAggregate(param.agg_name).ValueOrDie();
  Rng rng(param.seed);
  std::vector<double> a(50), b(70), c(30);
  for (double& v : a) v = rng.Uniform(0.0, 10.0);
  for (double& v : b) v = rng.Uniform(-10.0, 10.0);
  for (double& v : c) v = rng.Uniform(100.0, 200.0);
  std::vector<double> whole = a;
  whole.insert(whole.end(), b.begin(), b.end());
  whole.insert(whole.end(), c.begin(), c.end());

  AggState combined = agg->Update({agg->State(a).ValueOrDie(),
                                   agg->State(b).ValueOrDie(),
                                   agg->State(c).ValueOrDie()})
                          .ValueOrDie();
  double from_parts = agg->Recover(combined).ValueOrDie();
  double direct = agg->Compute(whole);
  EXPECT_NEAR(from_parts, direct, 1e-7 * (1.0 + std::fabs(direct)));
}

std::vector<RemovalCase> RemovalCases() {
  std::vector<RemovalCase> cases;
  for (const std::string name :
       {"COUNT", "SUM", "AVG", "VARIANCE", "STDDEV"}) {
    for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
      cases.push_back({name, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllRemovableAggregates, IncrementalRemovalLaw,
    ::testing::ValuesIn(RemovalCases()),
    [](const ::testing::TestParamInfo<RemovalCase>& info) {
      return info.param.agg_name + "_seed" +
             std::to_string(info.param.seed);
    });

// --- Inline AggState against the std::vector arithmetic ----------------------

/// Uniform values, with some of the edge cases a state can carry mixed in.
/// A call mixes in NaN or the infinities, not both: inf - inf makes a NaN
/// of the other sign, and which of two different NaN operands an addition
/// returns depends on the operand order the compiler picks.
std::vector<double> EdgeMixValues(Rng* rng, size_t n, bool with_nan) {
  const double finite[] = {0.0,
                           -0.0,
                           1e308,
                           -1e308,
                           std::numeric_limits<double>::denorm_min(),
                           -4.9e-320};
  const double non_finite[] = {std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  std::vector<double> values(n);
  for (double& v : values) {
    if (!rng->Bernoulli(0.1)) {
      v = rng->Uniform(-50.0, 150.0);
    } else if (rng->Bernoulli(0.7)) {
      v = finite[rng->UniformInt(0, 5)];
    } else {
      v = with_nan ? std::numeric_limits<double>::quiet_NaN()
                   : non_finite[rng->UniformInt(0, 1)];
    }
  }
  return values;
}

::testing::AssertionResult SameBits(const AggState& got,
                                    const reference::VecState& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  if (std::memcmp(got.begin(), want.data(), want.size() * sizeof(double)) !=
      0) {
    return ::testing::AssertionFailure() << "state bits differ";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameBits(double got, double want) {
  if (std::memcmp(&got, &want, sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << got << " vs " << want;
  }
  return ::testing::AssertionSuccess();
}

TEST(AggregateState, InlineStateMatchesVectorReference) {
  Rng rng(2024);
  for (const std::string name : {"COUNT", "SUM", "AVG", "VARIANCE", "STDDEV"}) {
    const Aggregate* agg = GetAggregate(name).ValueOrDie();
    for (int trial = 0; trial < 200; ++trial) {
      const size_t sizes[] = {0, 1, 2, 50};
      const bool with_nan = trial % 2 == 1;
      const std::vector<double> all =
          EdgeMixValues(&rng, sizes[trial % 4], with_nan);
      std::vector<double> part;
      for (double v : all) {
        if (rng.Bernoulli(0.4)) part.push_back(v);
      }
      const std::vector<double> extra =
          EdgeMixValues(&rng, static_cast<size_t>(rng.UniformInt(0, 5)),
                        with_nan);
      const std::string where = name + " trial " + std::to_string(trial);

      const AggState total = agg->State(all).ValueOrDie();
      const AggState removed = agg->State(part).ValueOrDie();
      const AggState more = agg->State(extra).ValueOrDie();
      const reference::VecState ref_total = reference::State(name, all);
      const reference::VecState ref_removed = reference::State(name, part);
      const reference::VecState ref_more = reference::State(name, extra);
      EXPECT_TRUE(SameBits(total, ref_total)) << where;
      EXPECT_TRUE(SameBits(removed, ref_removed)) << where;

      const AggState updated =
          agg->Update({total, removed, more}).ValueOrDie();
      const reference::VecState ref_updated =
          reference::Update({ref_total, ref_removed, ref_more});
      EXPECT_TRUE(SameBits(updated, ref_updated)) << where;

      const AggState rest = agg->Remove(total, removed).ValueOrDie();
      const reference::VecState ref_rest =
          reference::Remove(ref_total, ref_removed);
      EXPECT_TRUE(SameBits(rest, ref_rest)) << where;

      EXPECT_TRUE(SameBits(agg->Recover(rest).ValueOrDie(),
                           reference::Recover(name, ref_rest)))
          << where;
      EXPECT_TRUE(SameBits(agg->Recover(updated).ValueOrDie(),
                           reference::Recover(name, ref_updated)))
          << where;
    }
  }
}

TEST(AggregateState, VectorSurface) {
  AggState s{1.0, 2.0, 3.0};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s[1], 2.0);
  double sum = 0.0;
  for (double v : s) sum += v;
  EXPECT_EQ(sum, 6.0);
  s.assign(2, 0.5);
  EXPECT_EQ(s, (AggState{0.5, 0.5}));
  EXPECT_FALSE(s == (AggState{0.5, 0.5, 0.0}));
  EXPECT_TRUE(AggState().empty());
  EXPECT_EQ(AggState{}, AggState());
}

/// A removable aggregate whose state is one entry wider than AggState
/// holds: it builds its state with AggState::FromValues.
class WideStateAggregate : public SumAggregate {
 public:
  std::string name() const override { return "WIDE"; }
  Result<AggState> State(const std::vector<double>& values) const override {
    double wide[AggState::kCapacity + 1] = {};
    for (double v : values) wide[0] += v;
    return AggState::FromValues(wide, AggState::kCapacity + 1);
  }
};

TEST(AggregateState, OverCapacityStateIsACleanStatus) {
  const WideStateAggregate wide;
  const Result<AggState> state = wide.State({1.0, 2.0});
  ASSERT_FALSE(state.ok());
  EXPECT_TRUE(state.status().IsInvalidArgument()) << state.status().ToString();
  const double four[] = {1.0, 2.0, 3.0, 4.0};
  const Result<AggState> fits = AggState::FromValues(four, 4);
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ(*fits, (AggState{1.0, 2.0, 3.0, 4.0}));
}

TEST(AggregateStateDeathTest, OverCapacityBracesAbort) {
  EXPECT_DEATH(AggState({1.0, 2.0, 3.0, 4.0, 5.0}), "capacity");
  AggState s;
  EXPECT_DEATH(s.assign(AggState::kCapacity + 1, 0.0), "capacity");
}

// SUM's Delta anti-monotonicity on non-negative data: Delta(subset) <=
// Delta(set) for any nested pair.
TEST(AntiMonotonicity, SumDeltaOnNonNegativeData) {
  Rng rng(99);
  SumAggregate sum;
  std::vector<double> data(100);
  for (double& v : data) v = rng.Uniform(0.0, 10.0);
  ASSERT_TRUE(sum.CheckAntiMonotone(data));
  // Delta of removing a set = SUM(set); subsets have smaller sums.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> s, sub;
    for (double v : data) {
      if (rng.Bernoulli(0.4)) {
        s.push_back(v);
        if (rng.Bernoulli(0.5)) sub.push_back(v);
      }
    }
    EXPECT_LE(sum.Compute(sub), sum.Compute(s) + 1e-12);
  }
}

}  // namespace
}  // namespace scorpion
