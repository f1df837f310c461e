// One-pass candidate-batched split evaluation for the DT partitioner's
// ChooseSplit (Section 6.1.3 metric: max over groups of the weighted child
// standard deviation).
//
// The reference path scores each candidate split with its own full pass
// over the node's sampled rows — K candidates pull the attribute column
// through memory K times. The sweep path loads each row's attribute value
// once and updates every candidate's accumulators from it: for a range
// split, a row with value v goes LEFT of exactly the ascending thresholds
// greater than v (a suffix, found with one branch-free upper bound); for a
// discrete split, it goes LEFT of exactly the candidate whose code it
// carries. The accumulate passes visit every candidate for every row and
// add the row's value or +0.0, picked by an integer bit mask, so they
// neither branch on the data nor vary their trip count.
//
// Bit-identity contract (differential-tested in test_candidate_batch.cc):
// the sweep produces, for every candidate, the exact same doubles as the
// reference. This holds because every floating-point accumulator receives
// the reference's additions in the reference's order, interleaved only
// with masked-off additions of +0.0. Those leave any value but -0.0
// unchanged bit for bit, and no accumulator ever holds -0.0: each starts
// at +0.0, and a round-to-nearest sum is -0.0 only when both operands are —
// per-candidate sums and squared-deviation sums accumulate in row order
// within each group (the outer row loop preserves it), counts are exact
// integers, and the cross-group max is taken in group order (std::max of
// two doubles is exact, and the comparison sequence matches the
// reference's group-inner loop). Shortcuts that would change the
// association (bucket histograms + suffix sums) are deliberately NOT used.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "table/column.h"
#include "table/types.h"

namespace scorpion {

/// Mean and standard deviation of a vector (population std; 0 for n < 2).
/// Shared by the DT partitioner's node statistics and the reference split
/// evaluation below; one definition so parent and child metrics can never
/// drift apart numerically.
void MeanStd(const std::vector<double>& v, double* mean, double* std_dev);

/// Weighted child deviation for one group: (nl*sl + nr*sr) / (nl+nr).
double WeightedChildStd(const std::vector<double>& left,
                        const std::vector<double>& right);

/// One group of a DT node, as the split search sees it: the sampled row
/// ids and the influence value aligned with each sampled row.
struct SplitGroup {
  const RowIdList* rows;            // sampled row ids, ascending
  const std::vector<double>* inf;   // influence per sampled row
};

/// Per-candidate results of one split evaluation, aligned with the
/// candidate list passed in.
struct SplitEval {
  /// max over groups of WeightedChildStd(left, right).
  std::vector<double> metric;
  /// Sampled rows going left / right, summed over groups.
  std::vector<size_t> total_left, total_right;
};

/// Range split candidates (Section 6.1.1): the values at quantile positions
/// n*q/(K+1), q = 1..K, of the groups' sampled non-NaN values. A value is
/// kept only when it is above the sample minimum, at most the maximum, and
/// different (==) from the previous candidate, so the result is strictly
/// ascending — the order RangeSplitSweep requires. NaNs never enter the
/// pool: the sweep already sends NaN rows right of every threshold. Fewer
/// than two non-NaN values give no candidates.
///
/// Linear in the sample, by radix select: the gather pass maps each value
/// to an order-preserving 64-bit key (-0.0 folded onto +0.0) and finds the
/// minimum and maximum keys; one 11-bit histogram (fewer bits for pools
/// under 1,024 values) over the highest bits where those two differ places
/// every quantile position in a bucket, and further levels inside that
/// bucket's keys pin down the key of the position's rank. Order statistics do not depend on how the pool is
/// arranged, so the candidates equal those read off a full sort
/// (tests/reference/split_candidates.h), compared with == — a candidate
/// that falls on zero comes back as +0.0.
std::vector<double> RangeSplitCandidates(const Column& col,
                                         const std::vector<SplitGroup>& groups,
                                         int num_candidates);

/// Discrete split candidates: the (up to) `max_values` most frequent codes
/// in the groups' sampled rows, in (frequency descending, code ascending)
/// order. Fewer than two distinct codes give no candidates. Counts live in
/// a dense per-code array and only the top `max_values` are ordered.
///
/// `counts` is that array, owned by the caller: all zero on entry (empty is
/// fine) and handed back all zero, with only the codes the sample carries
/// touched. It grows to the column's cardinality on first use, so a caller
/// that keeps it across nodes pays O(cardinality) once and O(sample) per
/// call.
std::vector<int32_t> DiscreteSplitCandidates(
    const Column& col, const std::vector<SplitGroup>& groups, int max_values,
    std::vector<uint32_t>* counts);

/// Reference range evaluation: per candidate threshold t, rows with
/// value < t go left. One full pass over every group per candidate —
/// the exact loop the DT partitioner ran before batching, kept as the
/// differential-test ground truth and the enable_candidate_batching=false
/// path.
SplitEval RangeSplitReference(const Column& col,
                              const std::vector<SplitGroup>& groups,
                              const std::vector<double>& thresholds);

/// One-pass range evaluation, bit-identical to RangeSplitReference.
/// `thresholds` must be ascending (DT's quantile candidates are by
/// construction; checked in debug builds).
SplitEval RangeSplitSweep(const Column& col,
                          const std::vector<SplitGroup>& groups,
                          const std::vector<double>& thresholds);

/// Reference discrete evaluation: per candidate code c, rows carrying c go
/// left ({v} vs rest binary split). `codes` need not be sorted (DT orders
/// them by frequency).
SplitEval DiscreteSplitReference(const Column& col,
                                 const std::vector<SplitGroup>& groups,
                                 const std::vector<int32_t>& codes);

/// One-pass discrete evaluation, bit-identical to DiscreteSplitReference.
/// Candidate codes must be distinct.
///
/// `scratch` is a per-code array owned by the caller, under the same
/// contract as DiscreteSplitCandidates' `counts` (and it may be the same
/// array): all zero on entry, handed back all zero, grown to the column's
/// cardinality on first use. Only the candidates' codes are touched, so a
/// call costs O(sample + k).
SplitEval DiscreteSplitSweep(const Column& col,
                             const std::vector<SplitGroup>& groups,
                             const std::vector<int32_t>& codes,
                             std::vector<uint32_t>* scratch);

}  // namespace scorpion
