#include "table/schema.h"

#include <variant>

namespace scorpion {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  for (int i = 0; i < static_cast<int>(fields_.size()); ++i) {
    index_.emplace(fields_[i].name, i);
  }
}

Result<int> Schema::FieldIndex(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::KeyError("no field named '" + name + "'");
  }
  return it->second;
}

Status Schema::ValidateRow(const std::vector<Value>& values) const {
  if (values.size() != fields_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(values.size()) + " != schema arity " +
        std::to_string(fields_.size()));
  }
  for (size_t c = 0; c < fields_.size(); ++c) {
    if (fields_[c].type == DataType::kDouble &&
        !std::holds_alternative<double>(values[c])) {
      return Status::TypeError("string value appended to a double column");
    }
  }
  return Status::OK();
}

std::string Schema::ToString() const {
  std::string out = "schema(";
  for (int i = 0; i < num_fields(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += ": ";
    out += DataTypeToString(fields_[i].type);
  }
  out += ")";
  return out;
}

}  // namespace scorpion
