#include "core/merger.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/macros.h"

namespace scorpion {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
// Minimum exact-score improvement to accept a merge; guards against
// floating-point churn producing endless no-op expansions.
constexpr double kImproveEps = 1e-12;

// --- Compiled boxes ---------------------------------------------------------
//
// A Run() resolves every attribute to a slot once: slots are the sorted
// union of the DomainMap's and the candidates' clause attributes, so a
// predicate's clauses (sorted by attribute name) are also sorted by slot
// and two predicates pair their clauses with a linear merge instead of
// per-clause string lookups. Every routine below mirrors the Predicate
// rule it replaces step for step (same comparisons, same floating-point
// operations in the same order), so scores and trajectories are
// bit-identical to clause-walking over Predicates.

/// One bit per attribute slot; the first 64 slots need no allocation.
class SlotMask {
 public:
  explicit SlotMask(size_t num_slots = 0)
      : more_(num_slots > 64 ? (num_slots - 1) / 64 : 0) {}
  void Set(uint32_t slot) { Word(slot) |= Bit(slot); }
  bool Test(uint32_t slot) const { return (Word(slot) & Bit(slot)) != 0; }
  /// (a | b) == (c | d), word by word.
  static bool SameUnion(const SlotMask& a, const SlotMask& b,
                        const SlotMask& c, const SlotMask& d) {
    if ((a.first_ | b.first_) != (c.first_ | d.first_)) return false;
    for (size_t w = 0; w < a.more_.size(); ++w) {
      if ((a.more_[w] | b.more_[w]) != (c.more_[w] | d.more_[w])) {
        return false;
      }
    }
    return true;
  }

 private:
  static uint64_t Bit(uint32_t slot) { return uint64_t{1} << (slot & 63); }
  uint64_t& Word(uint32_t slot) {
    return slot < 64 ? first_ : more_[(slot >> 6) - 1];
  }
  uint64_t Word(uint32_t slot) const {
    return slot < 64 ? first_ : more_[(slot >> 6) - 1];
  }

  uint64_t first_ = 0;          // slots 0-63
  std::vector<uint64_t> more_;  // slots 64 and up
};

/// A predicate's clauses over attribute slots, each list in the predicate's
/// own clause order (ascending slot). Set codes live in `codes`, sorted and
/// unique per clause, so a Box copies and moves freely.
struct Box {
  struct Range {
    uint32_t slot;
    double lo;
    double hi;
    bool hi_inclusive;
    bool operator==(const Range& other) const = default;
  };
  struct Set {
    uint32_t slot;
    uint32_t begin;  // codes[begin, end)
    uint32_t end;
  };

  std::vector<Range> ranges;
  std::vector<Set> sets;
  std::vector<int32_t> codes;
  SlotMask range_slots;
  SlotMask set_slots;

  explicit Box(size_t num_slots = 0)
      : range_slots(num_slots), set_slots(num_slots) {}

  const int32_t* CodesBegin(const Set& s) const {
    return codes.data() + s.begin;
  }
  const int32_t* CodesEnd(const Set& s) const { return codes.data() + s.end; }
  uint32_t NumCodes(const Set& s) const { return s.end - s.begin; }

  void AddRange(const Range& r) {
    ranges.push_back(r);
    range_slots.Set(r.slot);
  }
  template <typename It>
  void AddSet(uint32_t slot, It first, It last) {
    const uint32_t begin = static_cast<uint32_t>(codes.size());
    codes.insert(codes.end(), first, last);
    sets.push_back({slot, begin, static_cast<uint32_t>(codes.size())});
    set_slots.Set(slot);
  }
};

/// Appends every clause attribute of `pred` to `attrs`.
void AddClauseAttributes(const Predicate& pred,
                         std::vector<std::string>* attrs) {
  for (const RangeClause& r : pred.ranges()) attrs->push_back(r.attr);
  for (const SetClause& s : pred.sets()) attrs->push_back(s.attr);
}

/// Sorts and dedupes attribute names into slot order.
void SortSlots(std::vector<std::string>* attrs) {
  std::sort(attrs->begin(), attrs->end());
  attrs->erase(std::unique(attrs->begin(), attrs->end()), attrs->end());
}

/// Walks `xs` in order, pairing each clause with the clause of `ys` on the
/// same slot, or nullptr when `ys` has none (both lists ascend by slot).
/// Stops and returns false as soon as `fn` does.
template <typename Clause, typename Fn>
bool ForEachPair(const std::vector<Clause>& xs, const std::vector<Clause>& ys,
                 Fn fn) {
  size_t j = 0;
  for (const Clause& x : xs) {
    while (j < ys.size() && ys[j].slot < x.slot) ++j;
    if (!fn(x, j < ys.size() && ys[j].slot == x.slot ? &ys[j] : nullptr)) {
      return false;
    }
  }
  return true;
}

/// Compiles `pred` over the sorted slot list `attrs`. A clause on an
/// attribute without a slot is left out: no partition constrains that
/// attribute and it has no domain, so it cannot change an estimate.
Box CompileBox(const Predicate& pred, const std::vector<std::string>& attrs) {
  auto slot_of = [&attrs](const std::string& attr, uint32_t* slot) {
    auto it = std::lower_bound(attrs.begin(), attrs.end(), attr);
    *slot = static_cast<uint32_t>(it - attrs.begin());
    return it != attrs.end() && *it == attr;
  };
  Box box(attrs.size());
  box.ranges.reserve(pred.ranges().size());
  box.sets.reserve(pred.sets().size());
  uint32_t slot = 0;
  for (const RangeClause& r : pred.ranges()) {
    if (slot_of(r.attr, &slot)) {
      box.AddRange({slot, r.lo, r.hi, r.hi_inclusive});
    }
  }
  for (const SetClause& s : pred.sets()) {
    if (slot_of(s.attr, &slot)) {
      box.AddSet(slot, s.codes.begin(), s.codes.end());
    }
  }
  return box;
}

/// The Predicate form of a bounding box (the accept loop scores
/// Predicates).
Predicate ToPredicate(const Box& box, const std::vector<std::string>& attrs) {
  Predicate out;
  // Cannot fail: BoundingBox keeps only non-empty clauses, and a range and
  // a set never share an attribute.
  for (const Box::Range& r : box.ranges) {
    out.AddRange({attrs[r.slot], r.lo, r.hi, r.hi_inclusive}).ok();
  }
  for (const Box::Set& s : box.sets) {
    out.AddSet({attrs[s.slot],
                std::vector<int32_t>(box.CodesBegin(s), box.CodesEnd(s))})
        .ok();
  }
  return out;
}

/// Predicate::BoundingBox on compiled boxes: range hulls (with its
/// hi_inclusive tie rule) and set unions over slots constrained by both;
/// clauses Predicate::AddRange/AddSet would reject are dropped the same way.
Box BoundingBox(const Box& a, const Box& b, size_t num_slots) {
  Box out(num_slots);
  ForEachPair(a.ranges, b.ranges, [&](const Box::Range& ra,
                                      const Box::Range* rb) {
    if (rb == nullptr) return true;  // unconstrained in b
    Box::Range hull{ra.slot, std::min(ra.lo, rb->lo), 0.0, false};
    if (ra.hi > rb->hi) {
      hull.hi = ra.hi;
      hull.hi_inclusive = ra.hi_inclusive;
    } else if (rb->hi > ra.hi) {
      hull.hi = rb->hi;
      hull.hi_inclusive = rb->hi_inclusive;
    } else {
      hull.hi = ra.hi;
      hull.hi_inclusive = ra.hi_inclusive || rb->hi_inclusive;
    }
    const bool empty =
        hull.hi_inclusive ? hull.lo > hull.hi : hull.lo >= hull.hi;
    if (!empty) out.AddRange(hull);
    return true;
  });
  ForEachPair(a.sets, b.sets, [&](const Box::Set& sa, const Box::Set* sb) {
    if (sb == nullptr) return true;
    const uint32_t begin = static_cast<uint32_t>(out.codes.size());
    std::set_union(a.CodesBegin(sa), a.CodesEnd(sa), b.CodesBegin(*sb),
                   b.CodesEnd(*sb), std::back_inserter(out.codes));
    const uint32_t end = static_cast<uint32_t>(out.codes.size());
    if (end != begin) {
      out.sets.push_back({sa.slot, begin, end});
      out.set_slots.Set(sa.slot);
    }
    return true;
  });
  return out;
}

/// Predicate::operator== on compiled boxes.
bool SameClauses(const Box& a, const Box& b) {
  if (a.ranges != b.ranges || a.sets.size() != b.sets.size()) return false;
  for (size_t i = 0; i < a.sets.size(); ++i) {
    const Box::Set& sa = a.sets[i];
    const Box::Set& sb = b.sets[i];
    if (sa.slot != sb.slot ||
        !std::equal(a.CodesBegin(sa), a.CodesEnd(sa), b.CodesBegin(sb),
                    b.CodesEnd(sb))) {
      return false;
    }
  }
  return true;
}

/// Predicate::Attributes() equality.
bool SameAttributes(const Box& a, const Box& b) {
  return SlotMask::SameUnion(a.range_slots, a.set_slots, b.range_slots,
                             b.set_slots);
}

/// Predicate::SyntacticallyContains on compiled boxes; the range rule is
/// RangeClause::ContainsClause's.
bool ContainsBox(const Box& outer, const Box& inner) {
  return ForEachPair(outer.ranges, inner.ranges,
                     [](const Box::Range& ro, const Box::Range* ri) {
                       if (ri == nullptr || ri->lo < ro.lo) return false;
                       // [lo, hi) holds an inclusive-hi clause only if it
                       // ends before hi.
                       return ro.hi_inclusive || !ri->hi_inclusive
                                  ? ri->hi <= ro.hi
                                  : ri->hi < ro.hi;
                     }) &&
         ForEachPair(outer.sets, inner.sets,
                     [&](const Box::Set& so, const Box::Set* si) {
                       return si != nullptr &&
                              std::includes(outer.CodesBegin(so),
                                            outer.CodesEnd(so),
                                            inner.CodesBegin(*si),
                                            inner.CodesEnd(*si));
                     });
}

/// Merger::Adjacent on compiled boxes: no gap between the boxes on any
/// attribute both range over. Set clauses never block adjacency: the union
/// of two value sets is always a valid merge.
bool AdjacentBoxes(const Box& a, const Box& b) {
  return ForEachPair(a.ranges, b.ranges,
                     [](const Box::Range& ra, const Box::Range* rb) {
                       return rb == nullptr ||
                              !(ra.lo > rb->hi || rb->lo > ra.hi);
                     });
}

/// Volume of (q ∩ box) / Volume(q), clause-wise; attributes unconstrained in
/// q contribute the box clause's own domain share. Four passes in a fixed
/// order (q's ranges, box-only ranges, q's sets, box-only sets) fix the
/// order of the multiplications.
double OverlapFraction(const Box& q, const Box& box,
                       const std::vector<const AttrDomain*>& domains) {
  double frac = 1.0;
  const bool ranges_overlap = ForEachPair(
      q.ranges, box.ranges, [&](const Box::Range& rq, const Box::Range* rb) {
        if (rb == nullptr) return true;  // box spans q on this attribute
        double width = rq.hi - rq.lo;
        if (width <= 0.0) {
          // Degenerate point clause: in or out.
          return rq.lo >= rb->lo &&
                 (rb->hi_inclusive ? rq.lo <= rb->hi : rq.lo < rb->hi);
        }
        double lo = std::max(rq.lo, rb->lo);
        double hi = std::min(rq.hi, rb->hi);
        if (hi <= lo) return false;
        frac *= (hi - lo) / width;
        return true;
      });
  if (!ranges_overlap) return 0.0;
  for (const Box::Range& rb : box.ranges) {
    if (q.range_slots.Test(rb.slot)) continue;
    const AttrDomain* d = domains[rb.slot];
    if (d == nullptr) continue;
    double width = d->hi - d->lo;
    if (width <= 0.0) continue;
    double lo = std::max(rb.lo, d->lo);
    double hi = std::min(rb.hi, d->hi);
    if (hi <= lo) return 0.0;
    frac *= (hi - lo) / width;
  }
  const bool sets_overlap = ForEachPair(
      q.sets, box.sets, [&](const Box::Set& sq, const Box::Set* sb) {
        if (sb == nullptr) return true;
        size_t overlap = 0;
        for (const int32_t* c = q.CodesBegin(sq); c != q.CodesEnd(sq); ++c) {
          if (std::binary_search(box.CodesBegin(*sb), box.CodesEnd(*sb), *c)) {
            ++overlap;
          }
        }
        if (overlap == 0) return false;
        frac *= static_cast<double>(overlap) /
                static_cast<double>(q.NumCodes(sq));
        return true;
      });
  if (!sets_overlap) return 0.0;
  for (const Box::Set& sb : box.sets) {
    if (q.set_slots.Test(sb.slot)) continue;
    const AttrDomain* d = domains[sb.slot];
    if (d == nullptr || d->cardinality <= 0) continue;
    frac *= static_cast<double>(box.NumCodes(sb)) /
            static_cast<double>(d->cardinality);
  }
  return std::clamp(frac, 0.0, 1.0);
}

}  // namespace

/// Partitions compiled for the estimate: slots are the sorted union of the
/// DomainMap's attributes and the partitions' clause attributes.
struct Merger::BoxTable {
  struct Entry {
    Box box;
    /// Only estimable entries (representative present, one count per
    /// outlier group, estimation on) feed the estimate.
    bool estimable = false;
    AggState rep_state;  // state(representative value)
    const uint32_t* outlier_counts = nullptr;
  };
  std::vector<std::string> attrs;          // slot -> attribute, sorted
  std::vector<const AttrDomain*> domains;  // slot -> domain, or nullptr
  std::vector<Entry> entries;              // aligned with the partitions
};

namespace {

/// Section 6.3 estimate of the merged box's influence over `table`'s
/// estimable entries.
double EstimateBox(const Scorer& scorer, const Merger::BoxTable& table,
                   const Box& box) {
  const ProblemSpec& problem = scorer.problem();
  const Aggregate& agg = scorer.aggregate();
  const size_t num_groups = problem.outliers.size();

  // Apportion each partition's tuples to the box by volume overlap
  // (uniform-density assumption, Section 6.3). Partitions produced by DT
  // tile the space disjointly, so summing overlap fractions counts each
  // tuple at most once; this replaces the paper's explicit 0.5 * V12
  // correction, which exists to undo double counting when the two merged
  // regions themselves overlap.
  std::vector<double> removed_counts(num_groups, 0.0);
  std::vector<AggState> removed_states(num_groups);
  for (const Merger::BoxTable::Entry& q : table.entries) {
    if (!q.estimable) continue;
    double frac = OverlapFraction(q.box, box, table.domains);
    if (frac <= 0.0) continue;
    const AggState& rep_state = q.rep_state;
    for (size_t g = 0; g < num_groups; ++g) {
      double contrib = frac * static_cast<double>(q.outlier_counts[g]);
      if (contrib <= 0.0) continue;
      removed_counts[g] += contrib;
      if (removed_states[g].empty()) {
        removed_states[g].assign(rep_state.size(), 0.0);
      }
      for (size_t k = 0; k < rep_state.size(); ++k) {
        // k copies of the cached tuple: our removable states are all
        // element-wise additive, so state(t x n) = n * state(t).
        removed_states[g][k] += contrib * rep_state[k];
      }
    }
  }

  double sum = 0.0;
  for (size_t g = 0; g < num_groups; ++g) {
    if (removed_counts[g] < 1.0) continue;  // nothing removed from this group
    int result_idx = problem.outliers[g];
    auto remaining = agg.Remove(scorer.outlier_states()[g], removed_states[g]);
    if (!remaining.ok()) return kNegInf;
    auto updated = agg.Recover(*remaining);
    if (!updated.ok() || !std::isfinite(*updated)) return kNegInf;
    double delta = scorer.OriginalValue(result_idx) - *updated;
    double denom = std::pow(removed_counts[g], problem.c);
    sum += problem.error_vectors[g] * delta / denom;
  }
  return problem.lambda * sum / static_cast<double>(num_groups);
}

}  // namespace

Merger::Estimator::Estimator(const Merger& merger,
                             std::unique_ptr<const BoxTable> table)
    : merger_(&merger), table_(std::move(table)) {}
Merger::Estimator::Estimator(Estimator&&) noexcept = default;
Merger::Estimator::~Estimator() = default;

double Merger::Estimator::Estimate(const ScoredPredicate& a,
                                   const ScoredPredicate& b) const {
  ++merger_->stats_.estimated_scores;
  const Box box =
      BoundingBox(CompileBox(a.pred, table_->attrs),
                  CompileBox(b.pred, table_->attrs), table_->attrs.size());
  return EstimateBox(merger_->scorer_, *table_, box);
}

Merger::Merger(const Scorer& scorer, DomainMap domains, MergerOptions options)
    : scorer_(scorer), domains_(std::move(domains)), options_(options) {}

bool Merger::Adjacent(const Predicate& a, const Predicate& b) {
  std::vector<std::string> attrs;
  AddClauseAttributes(a, &attrs);
  AddClauseAttributes(b, &attrs);
  SortSlots(&attrs);
  return AdjacentBoxes(CompileBox(a, attrs), CompileBox(b, attrs));
}

Status Merger::EnsureScored(ScoredPredicate* sp) const {
  if (std::isfinite(sp->influence)) return Status::OK();
  ++stats_.exact_scores;
  if (sp->matches != nullptr) ++stats_.match_cache_scores;
  // Serves the per-group match Selections from sp->matches when the session
  // layer attached them (rescoring at a new c skips re-filtering).
  SCORPION_ASSIGN_OR_RETURN(sp->influence, scorer_.InfluenceCached(*sp));
  return Status::OK();
}

bool Merger::Estimating() const {
  return options_.use_cached_tuple_estimate && scorer_.incremental();
}

bool Merger::CanEstimate(const ScoredPredicate& a,
                         const ScoredPredicate& b) const {
  return Estimating() && a.info.has_representative &&
         b.info.has_representative &&
         a.info.outlier_counts.size() == scorer_.problem().outliers.size() &&
         b.info.outlier_counts.size() == scorer_.problem().outliers.size();
}

Merger::Estimator Merger::MakeEstimator(
    const std::vector<ScoredPredicate>& partitions) const {
  auto table = std::make_unique<BoxTable>();
  for (const auto& [attr, domain] : domains_) table->attrs.push_back(attr);
  for (const ScoredPredicate& sp : partitions) {
    AddClauseAttributes(sp.pred, &table->attrs);
  }
  SortSlots(&table->attrs);
  for (const std::string& attr : table->attrs) {
    auto it = domains_.find(attr);
    table->domains.push_back(it == domains_.end() ? nullptr : &it->second);
  }
  const bool estimating = Estimating();
  const size_t num_groups = scorer_.problem().outliers.size();
  table->entries.resize(partitions.size());
  for (size_t i = 0; i < partitions.size(); ++i) {
    const ScoredPredicate& sp = partitions[i];
    BoxTable::Entry& e = table->entries[i];
    e.box = CompileBox(sp.pred, table->attrs);
    e.estimable = estimating && sp.info.has_representative &&
                  sp.info.outlier_counts.size() == num_groups;
    if (!e.estimable) continue;
    const double rep_value =
        scorer_.agg_column().GetDouble(sp.info.representative);
    e.rep_state = scorer_.aggregate().State({rep_value}).ValueOrDie();
    e.outlier_counts = sp.info.outlier_counts.data();
  }
  return Estimator(*this, std::move(table));
}

double Merger::EstimateMergedInfluence(
    const ScoredPredicate& a, const ScoredPredicate& b,
    const std::vector<ScoredPredicate>& all) const {
  return MakeEstimator(all).Estimate(a, b);
}

Result<std::vector<ScoredPredicate>> Merger::Run(
    std::vector<ScoredPredicate> candidates) const {
  if (candidates.empty()) return candidates;

  candidates = UniqueByPredicate(std::move(candidates));
  // Exact-score every candidate: these Scorer::Influence calls dominate the
  // Merger's cost, and each is independent. Statuses land in per-index slots
  // and the first error (in candidate order) wins deterministically.
  ThreadPool* pool = scorer_.thread_pool();
  if (scorer_.candidate_batching_enabled()) {
    // Candidates carrying a cached match Selection must score through
    // InfluenceCached; the rest — the common case, fresh DT leaves whose
    // neighbours differ in a single clause — route through InfluenceAll so
    // the batched filter plane shares block work across them. Scores are
    // bit-identical either way.
    std::vector<size_t> plain;
    std::vector<size_t> cached;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (std::isfinite(candidates[i].influence)) continue;
      (candidates[i].matches != nullptr ? cached : plain).push_back(i);
    }
    std::vector<Predicate> preds;
    preds.reserve(plain.size());
    for (size_t i : plain) preds.push_back(candidates[i].pred);
    SCORPION_ASSIGN_OR_RETURN(std::vector<double> scores,
                              scorer_.InfluenceAll(preds));
    stats_.exact_scores += plain.size();
    for (size_t j = 0; j < plain.size(); ++j) {
      candidates[plain[j]].influence = scores[j];
    }
    std::vector<Status> statuses(cached.size());
    ParallelForOver(pool, 0, cached.size(), [&](size_t j) {
      statuses[j] = EnsureScored(&candidates[cached[j]]);
    });
    for (const Status& st : statuses) {
      SCORPION_RETURN_NOT_OK(st);
    }
  } else {
    std::vector<Status> statuses(candidates.size());
    ParallelForOver(pool, 0, candidates.size(), [&](size_t i) {
      statuses[i] = EnsureScored(&candidates[i]);
    });
    for (const Status& st : statuses) {
      SCORPION_RETURN_NOT_OK(st);
    }
  }
  std::sort(candidates.begin(), candidates.end(), ByInfluenceDesc);

  // Everything the expansion loop reads per candidate, resolved once. The
  // table is immutable from here on, so the estimate pass reads it in
  // parallel.
  const Estimator estimator = MakeEstimator(candidates);
  const BoxTable& table = *estimator.table_;
  const size_t num_slots = table.attrs.size();

  size_t num_seeds = candidates.size();
  if (options_.top_quartile_only && candidates.size() >= 4) {
    num_seeds = std::max<size_t>(1, candidates.size() / 4);
  }

  std::vector<ScoredPredicate> results = candidates;
  for (size_t s = 0; s < num_seeds; ++s) {
    ScoredPredicate cur = candidates[s];
    Box cur_box = table.entries[s].box;
    // Merges inherit the seed's PartitionInfo shape, so the seed decides
    // for the whole expansion whether cur can be estimated.
    const bool cur_estimable = table.entries[s].estimable;
    for (int expansion = 0; expansion < options_.max_expansions_per_seed;
         ++expansion) {
      // Collect grow candidates: adjacent partitions not already inside cur.
      struct Candidate {
        size_t other;  // index into candidates / table.entries
        double estimate;
        std::optional<Box> box;  // bounding box of cur and the other
      };
      std::vector<Candidate> grow;
      for (size_t o = 0; o < table.entries.size(); ++o) {
        const Box& other = table.entries[o].box;
        if (options_.same_attributes_only && !SameAttributes(cur_box, other)) {
          continue;
        }
        if (ContainsBox(cur_box, other)) continue;
        if (!AdjacentBoxes(cur_box, other)) continue;
        grow.push_back({o, 0.0, std::nullopt});
        if (grow.size() >= options_.max_candidates_per_step) break;
      }
      if (grow.empty()) break;
      // Bounding boxes are built on first use: the estimate needs every
      // candidate's, the accept loop only those it reaches.
      auto box_of = [&](Candidate& cand) -> const Box& {
        if (!cand.box) {
          cand.box = BoundingBox(cur_box, table.entries[cand.other].box,
                                 num_slots);
        }
        return *cand.box;
      };
      // Estimating a merge is the expansion step's hot scoring loop; each
      // candidate is independent and the table is read-only, so this runs
      // in parallel.
      ParallelForOver(pool, 0, grow.size(), [&](size_t i) {
        Candidate& cand = grow[i];
        if (cur_estimable && table.entries[cand.other].estimable) {
          ++stats_.estimated_scores;
          cand.estimate = EstimateBox(scorer_, table, box_of(cand));
        } else {
          // Fall back to the neighbour's own score.
          cand.estimate = candidates[cand.other].influence;
        }
      });
      std::sort(grow.begin(), grow.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.estimate > b.estimate;
                });

      // Accepts grow[i] (exactly scored as `pred`) as the new cur. Carries
      // approximate metadata forward so later estimates stay possible:
      // counts add, the seed's representative stays.
      auto accept = [&](Candidate& cand, Predicate pred, double score) {
        const ScoredPredicate& other = candidates[cand.other];
        ScoredPredicate merged;
        merged.pred = std::move(pred);
        merged.influence = score;
        merged.info = cur.info;
        if (cur.info.outlier_counts.size() ==
            other.info.outlier_counts.size()) {
          for (size_t g = 0; g < merged.info.outlier_counts.size(); ++g) {
            merged.info.outlier_counts[g] += other.info.outlier_counts[g];
          }
        }
        merged.internal_score =
            std::max(cur.internal_score, other.internal_score);
        cur = std::move(merged);
        cur_box = std::move(*cand.box);
        ++stats_.merges_accepted;
      };

      // Accept the first candidate whose *exact* merged influence improves.
      bool accepted = false;
      if (scorer_.candidate_batching_enabled()) {
        // Exact merged influences are computed a chunk at a time through
        // the batched filter plane (bounding boxes of one seed against its
        // neighbours usually differ in a single clause), but the accept
        // decision still takes the FIRST improving candidate in estimate
        // order — the accepted merge, and hence the whole expansion
        // trajectory, is identical to the sequential path below. Chunk
        // sizing follows the (already computed, descending) estimates:
        // while the estimate itself predicts an improvement the candidate
        // is scored alone — an accept there would throw a speculative
        // batch away — and once estimates drop below the accept threshold
        // the remaining tail, which the sequential path would grind
        // through one scan at a time, is batched at full width.
        constexpr size_t kMaxChunk = 8;
        for (size_t start = 0; start < grow.size() && !accepted;) {
          const size_t lim =
              grow[start].estimate > cur.influence + kImproveEps
                  ? start + 1
                  : std::min(start + kMaxChunk, grow.size());
          std::vector<size_t> idx;
          std::vector<Predicate> merged_preds;
          for (size_t i = start; i < lim; ++i) {
            if (SameClauses(box_of(grow[i]), cur_box)) continue;
            idx.push_back(i);
            merged_preds.push_back(ToPredicate(*grow[i].box, table.attrs));
          }
          if (merged_preds.empty()) {
            start = lim;
            continue;
          }
          std::vector<double> scores;
          if (merged_preds.size() == 1) {
            // Likely-accept head: score inline, skipping the batch
            // machinery a single candidate cannot use.
            SCORPION_ASSIGN_OR_RETURN(double score,
                                      scorer_.Influence(merged_preds[0]));
            scores.push_back(score);
          } else {
            SCORPION_ASSIGN_OR_RETURN(scores,
                                      scorer_.InfluenceAll(merged_preds));
          }
          stats_.exact_scores += merged_preds.size();
          for (size_t j = 0; j < idx.size(); ++j) {
            if (!(scores[j] > cur.influence + kImproveEps)) continue;
            accept(grow[idx[j]], std::move(merged_preds[j]), scores[j]);
            accepted = true;
            break;
          }
          start = lim;
        }
      } else {
        for (Candidate& cand : grow) {
          if (SameClauses(box_of(cand), cur_box)) continue;
          ScoredPredicate merged;
          merged.pred = ToPredicate(*cand.box, table.attrs);
          SCORPION_RETURN_NOT_OK(EnsureScored(&merged));
          if (merged.influence > cur.influence + kImproveEps) {
            accept(cand, std::move(merged.pred), merged.influence);
            accepted = true;
            break;
          }
        }
      }
      if (!accepted) break;
    }
    results.push_back(std::move(cur));
  }

  std::vector<ScoredPredicate> unique = UniqueByPredicate(std::move(results));
  std::sort(unique.begin(), unique.end(), ByInfluenceDesc);
  return unique;
}

}  // namespace scorpion
