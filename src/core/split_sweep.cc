#include "core/split_sweep.h"

#include <algorithm>
#include <bit>
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

// The two passes run every row over every candidate j in [0, k) and add x
// (or d * d) to the side the row goes to and +0.0 to the other, with the
// side chosen by an integer bit mask: AND on the bit pattern, so a
// masked-off inf or NaN becomes +0.0 too (x * 0 would not). The trip count
// is k for every row and nothing branches on the data. Bit-identity with
// the reference: every accumulator starts at +0.0, so it never holds -0.0,
// and adding +0.0 to any other value (inf and NaN included) returns it bit
// for bit; the other additions are the reference's, in row order.
//
// Candidates go kSweepLanes at a time, side by side in one vector (GCC /
// Clang vector extensions: one AVX2 register, or two SSE2 ones in the
// default clone) that stays in registers across the row loop. Lanes past k
// compute values that are never stored. Tile order does not matter for
// bit-identity: each lane still sees its rows in order. The lane logic is
// written out in the pass bodies, with built-in operators and vector casts
// only: a vector-typed helper left out of line (as at -O0) would be
// compiled for the baseline ISA and called from the AVX clones with a
// different argument-passing convention.
//
// The lane mask for a row with partition index p: range, p is the first
// threshold above the row's value, so the row is left of the suffix
// j >= p; discrete, p is 1 + the index of the candidate carrying the row's
// code (0 for none), so the row is left of that candidate only.
constexpr size_t kSweepLanes = 4;
typedef double LaneF __attribute__((vector_size(8 * kSweepLanes)));
typedef uint64_t LaneU __attribute__((vector_size(8 * kSweepLanes)));
typedef int64_t LaneI __attribute__((vector_size(8 * kSweepLanes)));

/// Pass 1: row-order left/right influence sums per candidate.
template <bool kRange>
SCORPION_SWEEP_CLONES void SumPass(const double* __restrict__ xs,
                                   const uint32_t* __restrict__ part,
                                   size_t n, size_t k,
                                   double* __restrict__ lsum,
                                   double* __restrict__ rsum) {
  for (size_t j0 = 0; j0 < k; j0 += kSweepLanes) {
    LaneI lane;
    for (size_t t = 0; t < kSweepLanes; ++t) {
      lane[t] = static_cast<int64_t>(j0 + t);
    }
    LaneF l = {}, r = {};
    for (size_t i = 0; i < n; ++i) {
      const LaneU x = LaneU{} + std::bit_cast<uint64_t>(xs[i]);
      const int64_t p = part[i];
      const LaneU left = kRange ? (LaneU)(lane >= p) : (LaneU)(lane + 1 == p);
      l += (LaneF)(x & left);
      r += (LaneF)(x & ~left);
    }
    for (size_t t = 0; t < kSweepLanes && j0 + t < k; ++t) {
      lsum[j0 + t] = l[t];
      rsum[j0 + t] = r[t];
    }
  }
}

/// Pass 2: row-order squared deviations against the fixed means.
template <bool kRange>
SCORPION_SWEEP_CLONES void DevPass(const double* __restrict__ xs,
                                   const uint32_t* __restrict__ part,
                                   size_t n, size_t k,
                                   const double* __restrict__ lmean,
                                   const double* __restrict__ rmean,
                                   double* __restrict__ lss,
                                   double* __restrict__ rss) {
  for (size_t j0 = 0; j0 < k; j0 += kSweepLanes) {
    LaneI lane;
    LaneF lm = {}, rm = {};
    for (size_t t = 0; t < kSweepLanes; ++t) {
      lane[t] = static_cast<int64_t>(j0 + t);
      if (j0 + t < k) {
        lm[t] = lmean[j0 + t];
        rm[t] = rmean[j0 + t];
      }
    }
    LaneF l = {}, r = {};
    for (size_t i = 0; i < n; ++i) {
      const LaneF x = (LaneF)(LaneU{} + std::bit_cast<uint64_t>(xs[i]));
      const int64_t p = part[i];
      const LaneU left = kRange ? (LaneU)(lane >= p) : (LaneU)(lane + 1 == p);
      const LaneF dl = x - lm;
      const LaneF dr = x - rm;
      l += (LaneF)((LaneU)(dl * dl) & left);
      r += (LaneF)((LaneU)(dr * dr) & ~left);
    }
    for (size_t t = 0; t < kSweepLanes && j0 + t < k; ++t) {
      lss[j0 + t] = l[t];
      rss[j0 + t] = r[t];
    }
  }
}

/// Per-group accumulator block for the sweep paths, reused across groups.
/// All function-local (no thread_local scratch: the DT split search calls
/// these from inside a per-attribute ParallelFor body).
struct SweepScratch {
  std::vector<uint32_t> part;    // per row: partition index p (see above)
  std::vector<size_t> count;     // rows per partition index, this group
  std::vector<size_t> ln;        // rows left of candidate j, this group
  std::vector<double> lsum, rsum;
  std::vector<double> lmean, rmean;
  std::vector<double> lss, rss;

  void Reset(size_t k) {
    count.assign(k + 1, 0);
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

/// One group through both passes. `part` and `count` are filled; `ln` is
/// derived from `count` by the caller.
template <bool kRange>
void SweepGroup(const SplitGroup& g, SweepScratch* s, SplitEval* eval) {
  const size_t n = g.rows->size();
  const size_t k = s->ln.size();
  const double* xs = g.inf->data();
  SumPass<kRange>(xs, s->part.data(), n, k, s->lsum.data(), s->rsum.data());
  ComputeMeans(s, n);
  DevPass<kRange>(xs, s->part.data(), n, k, s->lmean.data(),
                  s->rmean.data(), s->lss.data(), s->rss.data());
  FoldGroup(*s, n, eval);
}

constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// All ones when `on`, else zero.
inline uint64_t BitMask(bool on) {
  return uint64_t{0} - static_cast<uint64_t>(on);
}

/// Order-preserving key of a non-NaN double: keys compare as unsigned
/// integers in the values' numeric order. -0.0 is folded onto +0.0 first,
/// so the two zeros, which compare equal, share one key.
inline uint64_t OrderedKey(double v) {
  uint64_t b = std::bit_cast<uint64_t>(v);
  b = b == kSignBit ? 0 : b;
  // Negative: flip every bit. Non-negative: set the sign bit.
  return b ^ (BitMask((b >> 63) != 0) | kSignBit);
}

/// Inverse of OrderedKey (a zero key decodes to +0.0).
inline double KeyValue(uint64_t key) {
  return std::bit_cast<double>(key ^ (BitMask((key >> 63) == 0) | kSignBit));
}

constexpr int kRadixBits = 11;
constexpr size_t kRadixBuckets = size_t{1} << kRadixBits;

/// One radix level over m keys in [lo, hi], lo < hi: the histogram digit
/// is the highest bits where lo and hi differ — 11 of them, or fewer for
/// m < 1024, so a small pool does not pay for 2048 buckets.
struct RadixDigit {
  int shift;
  uint64_t base;
  size_t buckets;

  RadixDigit(uint64_t lo, uint64_t hi, size_t m) {
    const int bits = std::min(kRadixBits, static_cast<int>(std::bit_width(m)));
    const int width = static_cast<int>(std::bit_width(lo ^ hi));
    shift = width > bits ? width - bits : 0;
    base = lo >> shift;
    buckets = size_t{1} << (width - shift);
  }
  size_t operator()(uint64_t key) const {
    return static_cast<size_t>((key >> shift) - base);
  }
};

/// Histogram of `digit` over keys[0..m) into hist[0..digit.buckets).
void Histogram(const uint64_t* keys, size_t m, const RadixDigit& digit,
               uint32_t* hist) {
  std::fill(hist, hist + digit.buckets, 0u);
  for (size_t i = 0; i < m; ++i) ++hist[digit(keys[i])];
}

/// Writes the keys of bucket `b` among in[0..m) to the front of out
/// (branch-free; `out` has room for m and may be `in`) and returns how
/// many there are. The rest of out[0..m) is clobbered.
size_t KeepBucket(const uint64_t* in, size_t m, const RadixDigit& digit,
                  size_t b, uint64_t* out) {
  size_t kept = 0;
  for (size_t i = 0; i < m; ++i) {
    const uint64_t key = in[i];
    out[kept] = key;
    kept += static_cast<size_t>(digit(key) == b);
  }
  return kept;
}

/// The key of rank `rank` (0-based, ascending) among keys[0..m) — radix
/// select, one level at a time, each level keeping only the bucket that
/// holds the rank. Each level fixes at least one more high bit of
/// the bucket's common prefix, so it ends once the bucket holds one
/// distinct key. Clobbers keys[0..m).
uint64_t SelectKey(uint64_t* keys, size_t m, size_t rank, uint32_t* hist) {
  while (true) {
    uint64_t lo = keys[0], hi = keys[0];
    for (size_t i = 1; i < m; ++i) {
      lo = std::min(lo, keys[i]);
      hi = std::max(hi, keys[i]);
    }
    if (lo == hi) return lo;
    const RadixDigit digit(lo, hi, m);
    Histogram(keys, m, digit, hist);
    size_t b = 0;
    while (rank >= hist[b]) rank -= hist[b++];
    m = KeepBucket(keys, m, digit, b, keys);
  }
}

}  // namespace

std::vector<double> RangeSplitCandidates(const Column& col,
                                         const std::vector<SplitGroup>& groups,
                                         int num_candidates) {
  size_t total = 0;
  for (const SplitGroup& g : groups) total += g.rows->size();
  std::vector<uint64_t> pool(total);
  const double* values = col.doubles().data();
  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  size_t n = 0;
  for (const SplitGroup& g : groups) {
    for (RowId r : *g.rows) {
      const double v = values[r];
      const bool keep = !std::isnan(v);
      const uint64_t key = OrderedKey(v);
      // Branch-free compaction: a NaN's key is written, then overwritten
      // by the next value, and min/max ignore it.
      pool[n] = key;
      n += static_cast<size_t>(keep);
      lo = std::min(lo, keep ? key : lo);
      hi = std::max(hi, keep ? key : hi);
    }
  }
  std::vector<double> candidates;
  // All-equal pools have no value above the minimum.
  if (n < 2 || num_candidates < 1 || lo == hi) return candidates;
  const double lo_value = KeyValue(lo);
  const double hi_value = KeyValue(hi);
  // Level one, shared by every quantile position: one histogram over the
  // whole pool. Each position then selects inside the bucket holding its
  // rank, from a copy of that bucket's keys.
  uint32_t hist[kRadixBuckets];
  uint32_t level_hist[kRadixBuckets];  // SelectKey's deeper levels
  const RadixDigit digit(lo, hi, n);
  Histogram(pool.data(), n, digit, hist);
  std::vector<uint64_t> bucket_keys(n), work;
  size_t bucket_size = 0;
  size_t gathered = digit.buckets;  // the bucket bucket_keys holds, if any
  size_t bucket = 0, below = 0;  // bucket of the last position, ranks below
  const size_t buckets = static_cast<size_t>(num_candidates) + 1;
  for (size_t q = 1; q < buckets; ++q) {
    // Positions ascend with q, so the bucket scan only moves forward.
    const size_t pos = std::min(n * q / buckets, n - 1);
    while (pos >= below + hist[bucket]) below += hist[bucket++];
    if (gathered != bucket) {
      bucket_size =
          KeepBucket(pool.data(), n, digit, bucket, bucket_keys.data());
      gathered = bucket;
    }
    work.assign(bucket_keys.begin(),
                bucket_keys.begin() + static_cast<ptrdiff_t>(bucket_size));
    const double v = KeyValue(
        SelectKey(work.data(), bucket_size, pos - below, level_hist));
    if (v > lo_value && v <= hi_value &&
        (candidates.empty() || candidates.back() != v)) {
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
  const double* values = col.doubles().data();
  const double* t = thresholds.data();
  for (const SplitGroup& g : groups) {
    const RowIdList& rows = *g.rows;
    const size_t n = rows.size();
    s.Reset(k);
    s.part.resize(n);
    // One gather pass: a row with value v goes LEFT of candidate j iff
    // v < thresholds[j], i.e. for the suffix j >= p where p is the first
    // threshold greater than v. NaN lands on p = k and goes right of every
    // candidate — exactly the reference's `v < split` behaviour.
    for (size_t i = 0; i < n; ++i) {
      const uint32_t p = UpperBoundBranchFree(t, k, values[rows[i]]);
      s.part[i] = p;
      ++s.count[p];
    }
    // A row is left of the whole suffix from its partition on.
    size_t left = 0;
    for (size_t j = 0; j < k; ++j) s.ln[j] = left += s.count[j];
    SweepGroup</*kRange=*/true>(g, &s, &eval);
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
                             const std::vector<int32_t>& codes,
                             std::vector<uint32_t>* scratch) {
  const size_t k = codes.size();
  SplitEval eval;
  eval.metric.assign(k, 0.0);
  eval.total_left.assign(k, 0);
  eval.total_right.assign(k, 0);
  if (k == 0) return eval;
  // 1 + candidate index per dictionary code; 0 (right of every candidate)
  // for the rest, which is how the scratch arrives and is handed back.
  std::vector<uint32_t>& cand_of = *scratch;
  const size_t card = static_cast<size_t>(col.Cardinality());
  if (cand_of.size() < card) cand_of.resize(card, 0);
  for (size_t j = 0; j < k; ++j) {
    if (codes[j] >= 0 && static_cast<size_t>(codes[j]) < card) {
      cand_of[static_cast<size_t>(codes[j])] = static_cast<uint32_t>(j + 1);
    }
  }
  SweepScratch s;
  const int32_t* code_col = col.codes().data();
  for (const SplitGroup& g : groups) {
    const RowIdList& rows = *g.rows;
    const size_t n = rows.size();
    s.Reset(k);
    s.part.resize(n);
    // One gather pass: a row goes LEFT of exactly the candidate carrying
    // its code ({v} vs rest) and right of every other.
    for (size_t i = 0; i < n; ++i) {
      const uint32_t p = cand_of[static_cast<size_t>(code_col[rows[i]])];
      s.part[i] = p;
      ++s.count[p];
    }
    for (size_t j = 0; j < k; ++j) s.ln[j] = s.count[j + 1];
    SweepGroup</*kRange=*/false>(g, &s, &eval);
  }
  for (int32_t c : codes) {
    if (c >= 0 && static_cast<size_t>(c) < card) {
      cand_of[static_cast<size_t>(c)] = 0;
    }
  }
  return eval;
}

}  // namespace scorpion
