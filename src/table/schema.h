// Schema: ordered list of named, typed fields.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "table/types.h"

namespace scorpion {

/// A single column descriptor.
struct Field {
  std::string name;
  DataType type;

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type;
  }
};

/// \brief Ordered, name-indexed collection of fields.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const Field& field(int i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the field with the given name, or KeyError.
  Result<int> FieldIndex(const std::string& name) const;

  bool HasField(const std::string& name) const {
    return index_.count(name) > 0;
  }

  /// Checks a row before any column takes it: InvalidArgument on an arity
  /// mismatch, TypeError on a string for a double field (a number for a
  /// categorical field is accepted; the column formats it). Row appenders
  /// call this first so a rejected row appends nothing.
  Status ValidateRow(const std::vector<Value>& values) const;

  bool operator==(const Schema& other) const { return fields_ == other.fields_; }

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
  std::unordered_map<std::string, int> index_;
};

}  // namespace scorpion
