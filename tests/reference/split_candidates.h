// Reference split-candidate rules: the sort-based forms the DT partitioner
// used before RangeSplitCandidates / DiscreteSplitCandidates
// (core/split_sweep.h) picked candidates by selection. The range rule
// sorts the node's whole sample and reads the quantile positions off it;
// the discrete rule counts codes in a hash map and sorts every distinct
// code by (frequency descending, code ascending). Both selection forms
// must agree with these (tests/test_split_candidates.cc).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/split_sweep.h"
#include "table/column.h"

namespace scorpion {
namespace reference {

/// Quantile candidates read off a full sort of the groups' sampled
/// values. NaNs are left out of the pool first: the sort needs a strict
/// weak order, which NaN breaks.
inline std::vector<double> RangeSplitCandidates(
    const Column& col, const std::vector<SplitGroup>& groups,
    int num_candidates) {
  std::vector<double> values;
  for (const SplitGroup& g : groups) {
    for (RowId r : *g.rows) {
      const double v = col.GetDouble(r);
      if (!std::isnan(v)) values.push_back(v);
    }
  }
  std::vector<double> candidates;
  if (values.size() < 2) return candidates;
  std::sort(values.begin(), values.end());
  for (int q = 1; q <= num_candidates; ++q) {
    size_t pos = values.size() * static_cast<size_t>(q) /
                 (static_cast<size_t>(num_candidates) + 1);
    pos = std::min(pos, values.size() - 1);
    const double v = values[pos];
    if (v > values.front() && v <= values.back() &&
        (candidates.empty() || candidates.back() != v)) {
      candidates.push_back(v);
    }
  }
  return candidates;
}

/// The most frequent codes by a full sort of every distinct code.
inline std::vector<int32_t> DiscreteSplitCandidates(
    const Column& col, const std::vector<SplitGroup>& groups,
    int max_values) {
  std::unordered_map<int32_t, size_t> freq;
  for (const SplitGroup& g : groups) {
    for (RowId r : *g.rows) ++freq[col.GetCode(r)];
  }
  if (freq.size() < 2) return {};
  std::vector<std::pair<int32_t, size_t>> by_freq(freq.begin(), freq.end());
  std::sort(by_freq.begin(), by_freq.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  const size_t limit =
      std::min<size_t>(by_freq.size(), static_cast<size_t>(max_values));
  std::vector<int32_t> codes;
  codes.reserve(limit);
  for (size_t i = 0; i < limit; ++i) codes.push_back(by_freq[i].first);
  return codes;
}

}  // namespace reference
}  // namespace scorpion
