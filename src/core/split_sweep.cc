#include "core/split_sweep.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "common/macros.h"

namespace scorpion {

void MeanStd(const std::vector<double>& v, double* mean, double* std_dev) {
  if (v.empty()) {
    *mean = 0.0;
    *std_dev = 0.0;
    return;
  }
  double sum = 0.0;
  for (double x : v) sum += x;
  *mean = sum / static_cast<double>(v.size());
  if (v.size() < 2) {
    *std_dev = 0.0;
    return;
  }
  double ss = 0.0;
  for (double x : v) ss += (x - *mean) * (x - *mean);
  *std_dev = std::sqrt(ss / static_cast<double>(v.size()));
}

double WeightedChildStd(const std::vector<double>& left,
                        const std::vector<double>& right) {
  double ml, sl, mr, sr;
  MeanStd(left, &ml, &sl);
  MeanStd(right, &mr, &sr);
  double n = static_cast<double>(left.size() + right.size());
  if (n == 0.0) return 0.0;
  return (static_cast<double>(left.size()) * sl +
          static_cast<double>(right.size()) * sr) /
         n;
}

namespace {

/// Shared reference loop: `goes_left(row)` decides the partition for one
/// candidate. Exactly the per-(candidate, group) structure the DT
/// partitioner ran before batching: clear + refill the two influence
/// partitions, then WeightedChildStd.
template <typename GoesLeft>
SplitEval ReferenceEval(const std::vector<SplitGroup>& groups,
                        size_t num_candidates, const GoesLeft& goes_left) {
  SplitEval eval;
  eval.metric.assign(num_candidates, 0.0);
  eval.total_left.assign(num_candidates, 0);
  eval.total_right.assign(num_candidates, 0);
  std::vector<double> left, right;
  for (size_t ci = 0; ci < num_candidates; ++ci) {
    double combined = 0.0;
    size_t total_left = 0, total_right = 0;
    for (const SplitGroup& g : groups) {
      left.clear();
      right.clear();
      const RowIdList& rows = *g.rows;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (goes_left(ci, rows[i])) {
          left.push_back((*g.inf)[i]);
        } else {
          right.push_back((*g.inf)[i]);
        }
      }
      total_left += left.size();
      total_right += right.size();
      combined = std::max(combined, WeightedChildStd(left, right));
    }
    eval.metric[ci] = combined;
    eval.total_left[ci] = total_left;
    eval.total_right[ci] = total_right;
  }
  return eval;
}

// The per-row accumulate passes are the sweep's hot loops; like the filter
// kernels they get target_clones so the loader picks AVX2 / AVX-512 code
// on machines that have it (same guard as filter_kernels.cc: gcc-only,
// x86-64 ELF, clones disabled under sanitizers whose runtimes IFUNC
// resolvers would crash). Unlike the byte-mask kernels these accumulate
// DOUBLES, so the clones must additionally pin fp-contract=off: an AVX2/
// AVX-512 clone would otherwise fuse `d * d + ss` into an FMA with
// different rounding than the baseline-ISA reference loop, breaking the
// bit-identity contract.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) &&   \
    defined(__ELF__) && !defined(__SANITIZE_THREAD__) &&                 \
    !defined(__SANITIZE_ADDRESS__)
#define SCORPION_SWEEP_CLONES                                  \
  __attribute__((target_clones("default", "avx2", "avx512f"), \
                 optimize("fp-contract=off")))
#else
#define SCORPION_SWEEP_CLONES
#endif

/// Range pass 1: row-order left/right influence sums per candidate. A row
/// with partition p is left of the threshold suffix j >= p.
SCORPION_SWEEP_CLONES
void RangeSumPass(const double* __restrict__ xs,
                  const uint32_t* __restrict__ part, size_t n, size_t k,
                  double* __restrict__ lsum, double* __restrict__ rsum,
                  size_t* __restrict__ ln) {
  for (size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    const size_t p = part[i];
    for (size_t j = p; j < k; ++j) lsum[j] += x;
    for (size_t j = 0; j < p; ++j) rsum[j] += x;
    if (p < k) ++ln[p];
  }
}

/// Range pass 2: row-order squared deviations against the fixed means.
SCORPION_SWEEP_CLONES
void RangeDevPass(const double* __restrict__ xs,
                  const uint32_t* __restrict__ part, size_t n, size_t k,
                  const double* __restrict__ lmean,
                  const double* __restrict__ rmean,
                  double* __restrict__ lss, double* __restrict__ rss) {
  for (size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    const size_t p = part[i];
    for (size_t j = p; j < k; ++j) {
      const double d = x - lmean[j];
      lss[j] += d * d;
    }
    for (size_t j = 0; j < p; ++j) {
      const double d = x - rmean[j];
      rss[j] += d * d;
    }
  }
}

/// Discrete pass 1: a row is left of exactly the candidate m carrying its
/// code. The j loop split around m keeps every accumulator's addition
/// order identical to the branchy j == m form while letting the rsum runs
/// vectorize.
SCORPION_SWEEP_CLONES
void DiscreteSumPass(const double* __restrict__ xs,
                     const uint32_t* __restrict__ part, size_t n, size_t k,
                     double* __restrict__ lsum, double* __restrict__ rsum,
                     size_t* __restrict__ ln) {
  for (size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    const size_t m = part[i];
    const size_t m1 = std::min(m, k);
    for (size_t j = 0; j < m1; ++j) rsum[j] += x;
    if (m < k) {
      lsum[m] += x;
      ++ln[m];
      for (size_t j = m + 1; j < k; ++j) rsum[j] += x;
    }
  }
}

/// Discrete pass 2: squared deviations, same split around m.
SCORPION_SWEEP_CLONES
void DiscreteDevPass(const double* __restrict__ xs,
                     const uint32_t* __restrict__ part, size_t n, size_t k,
                     const double* __restrict__ lmean,
                     const double* __restrict__ rmean,
                     double* __restrict__ lss, double* __restrict__ rss) {
  for (size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    const size_t m = part[i];
    const size_t m1 = std::min(m, k);
    for (size_t j = 0; j < m1; ++j) {
      const double d = x - rmean[j];
      rss[j] += d * d;
    }
    if (m < k) {
      const double d = x - lmean[m];
      lss[m] += d * d;
      for (size_t j = m + 1; j < k; ++j) {
        const double dr = x - rmean[j];
        rss[j] += dr * dr;
      }
    }
  }
}

/// Per-group accumulator block for the sweep paths, reused across groups.
/// All function-local (no thread_local scratch: the DT split search calls
/// these from inside a per-attribute ParallelFor body).
struct SweepScratch {
  std::vector<uint32_t> part;    // per row: partition index (see callers)
  std::vector<size_t> ln;        // rows left of candidate j, this group
  std::vector<double> lsum, rsum;
  std::vector<double> lmean, rmean;
  std::vector<double> lss, rss;

  void Reset(size_t k) {
    ln.assign(k, 0);
    lsum.assign(k, 0.0);
    rsum.assign(k, 0.0);
    lmean.assign(k, 0.0);
    rmean.assign(k, 0.0);
    lss.assign(k, 0.0);
    rss.assign(k, 0.0);
  }
};

/// Folds one group's accumulators into the eval. The per-candidate math
/// reproduces MeanStd + WeightedChildStd exactly: mean = sum/n (0 when
/// empty), std = 0 for n < 2 else sqrt(ss/n), weighted combine, then the
/// cross-group max in group order.
void FoldGroup(const SweepScratch& s, size_t n, SplitEval* eval) {
  const size_t k = s.ln.size();
  for (size_t j = 0; j < k; ++j) {
    const size_t ln = s.ln[j];
    const size_t rn = n - ln;
    const double sl = ln < 2 ? 0.0
                             : std::sqrt(s.lss[j] / static_cast<double>(ln));
    const double sr = rn < 2 ? 0.0
                             : std::sqrt(s.rss[j] / static_cast<double>(rn));
    double wcs = 0.0;
    if (n != 0) {
      wcs = (static_cast<double>(ln) * sl + static_cast<double>(rn) * sr) /
            static_cast<double>(n);
    }
    eval->metric[j] = std::max(eval->metric[j], wcs);
    eval->total_left[j] += ln;
    eval->total_right[j] += rn;
  }
}

/// Computes the group's per-candidate means from the accumulated sums.
void ComputeMeans(SweepScratch* s, size_t n) {
  const size_t k = s->ln.size();
  for (size_t j = 0; j < k; ++j) {
    const size_t ln = s->ln[j];
    const size_t rn = n - ln;
    s->lmean[j] =
        ln > 0 ? s->lsum[j] / static_cast<double>(ln) : 0.0;
    s->rmean[j] =
        rn > 0 ? s->rsum[j] / static_cast<double>(rn) : 0.0;
  }
}

/// Upper bound of `v` in the ascending `t[0..k)`, k >= 1: the index of the
/// first threshold greater than v (k when none is). The trip count depends
/// on k only and each step is a select, not a branch, so the per-row cost
/// is flat whatever the data's order. A NaN compares false against every
/// threshold, so every step advances and the result is k, as with
/// std::upper_bound.
inline uint32_t UpperBoundBranchFree(const double* t, size_t k, double v) {
  size_t lo = 0;
  for (size_t len = k; len > 1;) {
    const size_t half = len / 2;
    lo = v < t[lo + half] ? lo : lo + half;
    len -= half;
  }
  return static_cast<uint32_t>(lo + static_cast<size_t>(!(v < t[lo])));
}

}  // namespace

std::vector<double> RangeSplitCandidates(const Column& col,
                                         const std::vector<SplitGroup>& groups,
                                         int num_candidates) {
  size_t total = 0;
  for (const SplitGroup& g : groups) total += g.rows->size();
  std::vector<double> pool(total);
  const double* values = col.doubles().data();
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  size_t n = 0;
  for (const SplitGroup& g : groups) {
    for (RowId r : *g.rows) {
      const double v = values[r];
      // Branch-free compaction: a NaN is written, then overwritten by the
      // next value. min/max ignore it (every comparison is false).
      pool[n] = v;
      n += static_cast<size_t>(!std::isnan(v));
      lo = v < lo ? v : lo;
      hi = v > hi ? v : hi;
    }
  }
  std::vector<double> candidates;
  if (n < 2 || num_candidates < 1) return candidates;
  pool.resize(n);
  const size_t buckets = static_cast<size_t>(num_candidates) + 1;
  // [unsorted, n) holds exactly the ranks after the last placed position.
  size_t unsorted = 0;
  for (size_t q = 1; q < buckets; ++q) {
    const size_t pos = std::min(n * q / buckets, n - 1);
    if (pos >= unsorted) {
      std::nth_element(pool.begin() + static_cast<ptrdiff_t>(unsorted),
                       pool.begin() + static_cast<ptrdiff_t>(pos), pool.end());
      unsorted = pos + 1;
    }
    const double v = pool[pos];
    if (v > lo && v <= hi && (candidates.empty() || candidates.back() != v)) {
      candidates.push_back(v);
    }
  }
  return candidates;
}

std::vector<int32_t> DiscreteSplitCandidates(
    const Column& col, const std::vector<SplitGroup>& groups, int max_values,
    std::vector<uint32_t>* counts) {
  const int32_t* codes = col.codes().data();
  std::vector<uint32_t>& freq = *counts;
  const size_t card = static_cast<size_t>(col.Cardinality());
  if (freq.size() < card) freq.resize(card, 0);
  std::vector<int32_t> present;  // distinct codes, first-seen order
  for (const SplitGroup& g : groups) {
    for (RowId r : *g.rows) {
      const int32_t c = codes[r];
      if (freq[static_cast<size_t>(c)]++ == 0) present.push_back(c);
    }
  }
  size_t limit = 0;
  if (present.size() >= 2) {
    limit = std::min(present.size(), static_cast<size_t>(max_values));
    // A total order (codes are distinct), so the top `limit` and their
    // order do not depend on the first-seen order of `present`.
    std::partial_sort(present.begin(),
                      present.begin() + static_cast<ptrdiff_t>(limit),
                      present.end(), [&](int32_t a, int32_t b) {
                        const uint32_t fa = freq[static_cast<size_t>(a)];
                        const uint32_t fb = freq[static_cast<size_t>(b)];
                        return fa > fb || (fa == fb && a < b);
                      });
  }
  // Hand the scratch back all zero, touching only the codes this call set.
  for (int32_t c : present) freq[static_cast<size_t>(c)] = 0;
  present.resize(limit);
  return present;
}

SplitEval RangeSplitReference(const Column& col,
                              const std::vector<SplitGroup>& groups,
                              const std::vector<double>& thresholds) {
  return ReferenceEval(groups, thresholds.size(), [&](size_t ci, RowId r) {
    return col.GetDouble(r) < thresholds[ci];
  });
}

SplitEval RangeSplitSweep(const Column& col,
                          const std::vector<SplitGroup>& groups,
                          const std::vector<double>& thresholds) {
  const size_t k = thresholds.size();
  SCORPION_DCHECK(std::is_sorted(thresholds.begin(), thresholds.end()),
                  "RangeSplitSweep requires ascending thresholds");
  SplitEval eval;
  eval.metric.assign(k, 0.0);
  eval.total_left.assign(k, 0);
  eval.total_right.assign(k, 0);
  if (k == 0) return eval;
  SweepScratch s;
  for (const SplitGroup& g : groups) {
    const RowIdList& rows = *g.rows;
    const std::vector<double>& inf = *g.inf;
    const size_t n = rows.size();
    s.Reset(k);
    s.part.resize(n);
    // Raw __restrict__ views: the per-candidate accumulator loops below
    // are independent across j, and telling the compiler the arrays don't
    // alias lets it vectorize them. Purely a codegen hint — every
    // accumulator still receives the exact same additions in the exact
    // same order.
    const double* __restrict__ values = col.doubles().data();
    const double* __restrict__ xs = inf.data();
    uint32_t* __restrict__ part = s.part.data();
    const double* t = thresholds.data();
    // One gather pass: a row with value v goes LEFT of candidate j iff
    // v < thresholds[j], i.e. for the suffix j >= p where p is the first
    // threshold greater than v. NaN lands on p = k and goes right of every
    // candidate — exactly the reference's `v < split` behaviour.
    for (size_t i = 0; i < n; ++i) {
      part[i] = UpperBoundBranchFree(t, k, values[rows[i]]);
    }
    size_t* ln = s.ln.data();
    // Pass 1 in row order: every candidate's left/right sum receives the
    // same additions in the same order as the reference's push-then-sum.
    RangeSumPass(xs, part, n, k, s.lsum.data(), s.rsum.data(), ln);
    // ln[p] counted only the first threshold the row lands left of; a left
    // row is left of the whole suffix, so prefix-sum the counts.
    for (size_t j = 1; j < k; ++j) ln[j] += ln[j - 1];
    ComputeMeans(&s, n);
    // Pass 2 in row order: squared deviations against the fixed means.
    RangeDevPass(xs, part, n, k, s.lmean.data(), s.rmean.data(),
                 s.lss.data(), s.rss.data());
    FoldGroup(s, n, &eval);
  }
  return eval;
}

SplitEval DiscreteSplitReference(const Column& col,
                                 const std::vector<SplitGroup>& groups,
                                 const std::vector<int32_t>& codes) {
  return ReferenceEval(groups, codes.size(), [&](size_t ci, RowId r) {
    return col.GetCode(r) == codes[ci];
  });
}

SplitEval DiscreteSplitSweep(const Column& col,
                             const std::vector<SplitGroup>& groups,
                             const std::vector<int32_t>& codes) {
  const size_t k = codes.size();
  SplitEval eval;
  eval.metric.assign(k, 0.0);
  eval.total_left.assign(k, 0);
  eval.total_right.assign(k, 0);
  if (k == 0) return eval;
  // Candidate index per dictionary code; codes outside every candidate map
  // to k (right of all candidates).
  std::vector<uint32_t> cand_of(static_cast<size_t>(col.Cardinality()),
                                static_cast<uint32_t>(k));
  for (size_t j = 0; j < k; ++j) {
    if (codes[j] >= 0 && static_cast<size_t>(codes[j]) < cand_of.size()) {
      cand_of[static_cast<size_t>(codes[j])] = static_cast<uint32_t>(j);
    }
  }
  SweepScratch s;
  for (const SplitGroup& g : groups) {
    const RowIdList& rows = *g.rows;
    const std::vector<double>& inf = *g.inf;
    const size_t n = rows.size();
    s.Reset(k);
    s.part.resize(n);
    const int32_t* __restrict__ code_col = col.codes().data();
    const double* __restrict__ xs = inf.data();
    uint32_t* __restrict__ part = s.part.data();
    // One gather pass: a row goes LEFT of exactly the candidate carrying
    // its code ({v} vs rest) and right of every other.
    for (size_t i = 0; i < n; ++i) {
      part[i] = cand_of[static_cast<size_t>(code_col[rows[i]])];
    }
    DiscreteSumPass(xs, part, n, k, s.lsum.data(), s.rsum.data(),
                    s.ln.data());
    ComputeMeans(&s, n);
    DiscreteDevPass(xs, part, n, k, s.lmean.data(), s.rmean.data(),
                    s.lss.data(), s.rss.data());
    FoldGroup(s, n, &eval);
  }
  return eval;
}

}  // namespace scorpion
