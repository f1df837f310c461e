// Reference state arithmetic for the removable aggregates, over plain
// std::vector<double> states: the decomposition the library computed while
// AggState was a heap-allocated vector. The inline AggState
// (aggregates/aggregate.h) must give the same doubles, bit for bit
// (tests/test_aggregates.cc).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace scorpion {
namespace reference {

using VecState = std::vector<double>;

/// state(D) of `agg` (COUNT, SUM, AVG, VARIANCE or STDDEV).
inline VecState State(const std::string& agg,
                      const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  if (agg == "COUNT") return {n};
  double sum = 0.0, sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (agg == "SUM") return {sum};
  if (agg == "AVG") return {sum, n};
  return {sum, sum_sq, n};  // VARIANCE, STDDEV
}

/// update(m1..mn): element-wise sums, starting from 0.0.
inline VecState Update(const std::vector<VecState>& states) {
  VecState out(states.empty() ? 0 : states[0].size(), 0.0);
  for (const VecState& s : states) {
    for (size_t k = 0; k < out.size(); ++k) out[k] += s[k];
  }
  return out;
}

/// remove(mD, mS): element-wise differences.
inline VecState Remove(const VecState& total, const VecState& removed) {
  VecState out(total.size());
  for (size_t k = 0; k < total.size(); ++k) out[k] = total[k] - removed[k];
  return out;
}

/// recover(m).
inline double Recover(const std::string& agg, const VecState& s) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  if (agg == "COUNT" || agg == "SUM") return s[0];
  if (agg == "AVG") return s[1] <= 0.0 ? kNaN : s[0] / s[1];
  if (s[2] <= 0.0) return kNaN;
  const double mean = s[0] / s[2];
  const double var = std::max(0.0, s[1] / s[2] - mean * mean);
  return agg == "STDDEV" ? std::sqrt(var) : var;
}

}  // namespace reference
}  // namespace scorpion
