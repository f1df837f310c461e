// Aggregate operator framework (Section 5 of the paper).
//
// An Aggregate computes a scalar over a bag of doubles. Developers can
// additionally declare the three properties Scorpion exploits:
//
//  * incrementally removable — the aggregate decomposes into
//    state/update/remove/recover so influence can be computed from a cached
//    state tuple without rereading the input group (Section 5.1);
//  * independent — tuples influence the result independently, enabling the
//    DT partitioner (Section 5.2);
//  * anti-monotonic — Delta(p') <= Delta(p) for p' contained in p, when the
//    data passes a declared check(D), enabling MC pruning (Section 5.3).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "table/column.h"
#include "table/selection.h"

namespace scorpion {

/// Constant-size summary tuple (the paper's m_D). For example AVG's state is
/// [sum, count].
///
/// Held inline, never on the heap: at most kCapacity entries, which covers
/// every built-in removable aggregate (VARIANCE's [sum, sum_sq, count] is
/// the largest). It keeps the small vector surface its callers use. Going
/// past the capacity through the braces or assign() is a checked error
/// (abort); an aggregate that sizes its state at run time builds it with
/// FromValues, which returns a Status instead.
class AggState {
 public:
  static constexpr size_t kCapacity = 4;

  AggState() = default;
  AggState(std::initializer_list<double> values) {  // NOLINT(runtime/explicit)
    CopyFrom(values.begin(), values.size());
  }

  /// The state holding values[0..n), or InvalidArgument past kCapacity.
  static Result<AggState> FromValues(const double* values, size_t n) {
    if (n > kCapacity) {
      return Status::InvalidArgument(
          "aggregate state has " + std::to_string(n) +
          " entries; AggState holds at most " + std::to_string(kCapacity));
    }
    AggState state;
    state.CopyFrom(values, n);
    return state;
  }

  /// n copies of `value`, like std::vector::assign.
  void assign(size_t n, double value) {
    SCORPION_CHECK(n <= kCapacity, "AggState capacity exceeded");
    size_ = n;
    for (size_t i = 0; i < n; ++i) values_[i] = value;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double& operator[](size_t i) { return values_[i]; }
  const double& operator[](size_t i) const { return values_[i]; }
  double* begin() { return values_; }
  double* end() { return values_ + size_; }
  const double* begin() const { return values_; }
  const double* end() const { return values_ + size_; }

  /// Same size and element-wise ==, like std::vector.
  friend bool operator==(const AggState& a, const AggState& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (!(a.values_[i] == b.values_[i])) return false;
    }
    return true;
  }

 private:
  void CopyFrom(const double* values, size_t n) {
    SCORPION_CHECK(n <= kCapacity, "AggState capacity exceeded");
    size_ = n;
    for (size_t i = 0; i < n; ++i) values_[i] = values[i];
  }

  double values_[kCapacity] = {};
  size_t size_ = 0;
};

/// \brief Base class for aggregate operators.
///
/// Implementations are stateless and shared; all methods are const.
class Aggregate {
 public:
  virtual ~Aggregate() = default;

  /// Upper-case operator name ("AVG", "SUM", ...).
  virtual std::string name() const = 0;

  /// Computes the aggregate over a bag of values. The value of an empty bag
  /// is operator-defined (0 for SUM/COUNT; NaN for AVG/STDDEV/...).
  virtual double Compute(const std::vector<double>& values) const = 0;

  // --- Properties -----------------------------------------------------------

  /// True if state/update/remove/recover are implemented.
  virtual bool is_incrementally_removable() const { return false; }

  /// True if tuples influence the result independently (Section 5.2).
  virtual bool is_independent() const { return false; }

  /// The paper's check(D): true if Delta is anti-monotonic on this data.
  /// Operators without the property return false unconditionally.
  virtual bool CheckAntiMonotone(const std::vector<double>& values) const {
    (void)values;
    return false;
  }

  // --- Incrementally removable decomposition (Section 5.1) -------------------
  // Only valid when is_incrementally_removable(); the default implementations
  // return NotImplemented.

  /// state(D): summarizes a bag of values into a constant-size tuple.
  virtual Result<AggState> State(const std::vector<double>& values) const;

  /// update(m1..mn): combines state tuples of disjoint bags.
  virtual Result<AggState> Update(const std::vector<AggState>& states) const;

  /// remove(mD, mS): the state of D - S given states of D and of S ⊆ D.
  virtual Result<AggState> Remove(const AggState& total,
                                  const AggState& removed) const;

  /// recover(m): reconstitutes the aggregate value from a state tuple.
  virtual Result<double> Recover(const AggState& state) const;
};

/// Gathers `column[r]` for each row in `rows` (column must be kDouble).
std::vector<double> ExtractValues(const Column& column, const RowIdList& rows);

/// Gathers `column[r]` for each selected row, in ascending row order.
std::vector<double> ExtractValues(const Column& column,
                                  const Selection& selection);

/// Looks up a registered aggregate by (case-insensitive) name.
/// Registered: COUNT, SUM, AVG, VARIANCE, STDDEV, MIN, MAX, MEDIAN.
Result<const Aggregate*> GetAggregate(const std::string& name);

/// Names of all registered aggregates.
std::vector<std::string> RegisteredAggregates();

}  // namespace scorpion
