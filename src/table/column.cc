#include "table/column.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/string_util.h"

namespace scorpion {

Status Column::AppendDouble(double v) {
  if (type_ != DataType::kDouble) {
    return Status::TypeError("AppendDouble on a categorical column");
  }
  doubles_.push_back(v);
  return Status::OK();
}

Status Column::AppendString(const std::string& v) {
  if (type_ != DataType::kCategorical) {
    return Status::TypeError("AppendString on a double column");
  }
  auto it = intern_.find(v);
  int32_t code;
  if (it == intern_.end()) {
    code = static_cast<int32_t>(dictionary_.size());
    dictionary_.push_back(v);
    intern_.emplace(v, code);
  } else {
    code = it->second;
  }
  codes_.push_back(code);
  return Status::OK();
}

Status Column::AppendValue(const Value& v) {
  if (std::holds_alternative<double>(v)) {
    if (type_ == DataType::kDouble) return AppendDouble(std::get<double>(v));
    return AppendString(FormatDouble(std::get<double>(v)));
  }
  if (type_ == DataType::kCategorical) {
    return AppendString(std::get<std::string>(v));
  }
  return Status::TypeError("string value appended to a double column");
}

Status Column::SetDoubleData(std::vector<double> values) {
  if (type_ != DataType::kDouble) {
    return Status::TypeError("SetDoubleData on a categorical column");
  }
  doubles_ = std::move(values);
  return Status::OK();
}

Status Column::SetCategoricalData(std::vector<int32_t> codes,
                                  std::vector<std::string> dictionary) {
  if (type_ != DataType::kCategorical) {
    return Status::TypeError("SetCategoricalData on a double column");
  }
  std::unordered_map<std::string, int32_t> intern;
  intern.reserve(dictionary.size());
  for (size_t i = 0; i < dictionary.size(); ++i) {
    auto [it, inserted] = intern.emplace(dictionary[i], static_cast<int32_t>(i));
    if (!inserted) {
      return Status::InvalidArgument("duplicate dictionary entry '" +
                                     dictionary[i] + "'");
    }
  }
  for (int32_t code : codes) {
    if (code < 0 || static_cast<size_t>(code) >= dictionary.size()) {
      return Status::InvalidArgument("categorical code " +
                                     std::to_string(code) +
                                     " outside the dictionary");
    }
  }
  codes_ = std::move(codes);
  dictionary_ = std::move(dictionary);
  intern_ = std::move(intern);
  return Status::OK();
}

Result<Value> Column::GetValue(RowId row) const {
  if (static_cast<size_t>(row) >= size()) {
    return Status::IndexError("row " + std::to_string(row) +
                              " out of range (size " + std::to_string(size()) +
                              ")");
  }
  if (type_ == DataType::kDouble) return Value(doubles_[row]);
  return Value(dictionary_[static_cast<size_t>(codes_[row])]);
}

int32_t Column::CodeOf(const std::string& v) const {
  auto it = intern_.find(v);
  return it == intern_.end() ? -1 : it->second;
}

Result<double> Column::Min() const {
  if (type_ != DataType::kDouble) {
    return Status::TypeError("Min() on a categorical column");
  }
  if (doubles_.empty()) {
    return Status::InvalidArgument("Min() on an empty column");
  }
  double lo = std::numeric_limits<double>::quiet_NaN();
  for (double v : doubles_) {
    if (std::isnan(lo) || v < lo) lo = v;
  }
  return lo;
}

Result<double> Column::Max() const {
  if (type_ != DataType::kDouble) {
    return Status::TypeError("Max() on a categorical column");
  }
  if (doubles_.empty()) {
    return Status::InvalidArgument("Max() on an empty column");
  }
  double hi = std::numeric_limits<double>::quiet_NaN();
  for (double v : doubles_) {
    if (std::isnan(hi) || v > hi) hi = v;
  }
  return hi;
}

}  // namespace scorpion
