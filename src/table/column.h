// Column: typed columnar storage. Doubles are stored flat; categoricals are
// dictionary-encoded (int32 codes into a per-column string dictionary) so
// that discrete predicate clauses evaluate as integer set membership.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "table/types.h"

namespace scorpion {

/// \brief A single column of a Table.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const {
    return type_ == DataType::kDouble ? doubles_.size() : codes_.size();
  }

  // --- Appending -----------------------------------------------------------

  /// Appends to a kDouble column. TypeError on categorical columns.
  Status AppendDouble(double v);

  /// Appends to a kCategorical column, interning the string.
  Status AppendString(const std::string& v);

  /// Appends a Value, dispatching on the column type. Numeric values appended
  /// to a categorical column are formatted; strings appended to a double
  /// column are a TypeError.
  Status AppendValue(const Value& v);

  // --- Bulk restore (wire deserialization) ---------------------------------
  // A table travelling the distributed wire must rebuild with the *exact*
  // storage of the original — dictionary order and code assignment included —
  // because predicates carry dictionary codes and fingerprints hash the
  // encoded form. Append-path interning assigns codes by first appearance,
  // which need not match an arbitrary source column, so deserializers
  // restore the encoded payload directly.

  /// Replaces a kDouble column's payload.
  Status SetDoubleData(std::vector<double> values);

  /// Replaces a kCategorical column's payload. Validates that every code
  /// indexes the dictionary and that dictionary entries are distinct (the
  /// intern map is rebuilt from them).
  Status SetCategoricalData(std::vector<int32_t> codes,
                            std::vector<std::string> dictionary);

  /// Drops every row but keeps the dictionary, so strings appended
  /// afterwards get the codes they would have had without the drop (the
  /// LiveTable's pending rows stay encoded like its published generations).
  void ClearRows() {
    doubles_.clear();
    codes_.clear();
  }

  // --- Access (unchecked, hot path) ---------------------------------------

  double GetDouble(RowId row) const { return doubles_[row]; }
  int32_t GetCode(RowId row) const { return codes_[row]; }
  const std::string& GetString(RowId row) const {
    return dictionary_[static_cast<size_t>(codes_[row])];
  }

  /// Value at `row` as a variant (bounds/type safe via Result).
  Result<Value> GetValue(RowId row) const;

  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int32_t>& codes() const { return codes_; }
  const std::vector<std::string>& dictionary() const { return dictionary_; }

  // --- Dictionary ----------------------------------------------------------

  /// Number of distinct values (dictionary size) for categorical columns.
  int32_t Cardinality() const { return static_cast<int32_t>(dictionary_.size()); }

  /// Dictionary code for a string, or -1 if it has never been appended.
  int32_t CodeOf(const std::string& v) const;

  // --- Statistics ----------------------------------------------------------

  /// Min/max over a kDouble column's non-NaN values (NaN only when every
  /// value is NaN). InvalidArgument on an empty or categorical column:
  /// min/max of no values is undefined, and the old (0, 0) answer silently
  /// poisoned domain computations.
  Result<double> Min() const;
  Result<double> Max() const;

 private:
  DataType type_;
  std::vector<double> doubles_;          // kDouble payload
  std::vector<int32_t> codes_;           // kCategorical payload
  std::vector<std::string> dictionary_;  // code -> string
  std::unordered_map<std::string, int32_t> intern_;  // string -> code
};

}  // namespace scorpion
