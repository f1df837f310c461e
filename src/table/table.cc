#include "table/table.h"

#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"

namespace scorpion {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    columns_.emplace_back(f.type);
  }
}

Status Table::AppendRow(const std::vector<Value>& values) {
  SCORPION_RETURN_NOT_OK(schema_.ValidateRow(values));
  for (int i = 0; i < schema_.num_fields(); ++i) {
    SCORPION_RETURN_NOT_OK(columns_[i].AppendValue(values[i]));
  }
  ++num_rows_;
  return Status::OK();
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  SCORPION_ASSIGN_OR_RETURN(int idx, schema_.FieldIndex(name));
  return &columns_[idx];
}

Result<Value> Table::GetValue(RowId row, int col) const {
  if (col < 0 || col >= num_columns()) {
    return Status::IndexError("column " + std::to_string(col) +
                              " out of range");
  }
  return columns_[col].GetValue(row);
}

Result<Table> Table::TakeRows(const RowIdList& rows) const {
  Table out(schema_);
  for (RowId r : rows) {
    if (static_cast<size_t>(r) >= num_rows_) {
      return Status::IndexError("row " + std::to_string(r) + " out of range");
    }
    for (int c = 0; c < num_columns(); ++c) {
      const Column& col = columns_[c];
      if (col.type() == DataType::kDouble) {
        SCORPION_RETURN_NOT_OK(out.columns_[c].AppendDouble(col.GetDouble(r)));
      } else {
        SCORPION_RETURN_NOT_OK(out.columns_[c].AppendString(col.GetString(r)));
      }
    }
    ++out.num_rows_;
  }
  return out;
}

Status Table::FinalizeColumnwiseBuild() {
  if (columns_.empty()) {
    num_rows_ = 0;
    return Status::OK();
  }
  size_t n = columns_[0].size();
  for (const Column& c : columns_) {
    if (c.size() != n) {
      return Status::Internal("column length mismatch after columnwise build");
    }
  }
  num_rows_ = n;
  return Status::OK();
}

namespace {

/// Digest over the parts of the fingerprint that are cheap to recompute
/// whole: schema shape and the current row count.
Fingerprinter TableHeaderHasher(const Table& table) {
  Fingerprinter fp;
  fp.Str("scorpion.table.v2");
  const Schema& schema = table.schema();
  fp.U64(static_cast<uint64_t>(schema.num_fields()));
  for (const Field& field : schema.fields()) {
    fp.Str(field.name);
    fp.U64(static_cast<uint64_t>(field.type));
  }
  fp.U64(table.num_rows());
  return fp;
}

/// Folds the per-column streaming digests (and, for categorical columns,
/// the dictionary size + dictionary digest) into the header hasher.
Fingerprint CombineColumnStates(const Table& table,
                                const std::vector<Fingerprinter>& col_states,
                                const std::vector<Fingerprinter>& dict_states) {
  Fingerprinter fp = TableHeaderHasher(table);
  for (int c = 0; c < table.num_columns(); ++c) {
    const Fingerprint part = col_states[static_cast<size_t>(c)].Finish();
    fp.U64(part.hi);
    fp.U64(part.lo);
    const Column& col = table.column(c);
    if (col.type() != DataType::kDouble) {
      fp.U64(static_cast<uint64_t>(col.dictionary().size()));
      const Fingerprint dict_part =
          dict_states[static_cast<size_t>(c)].Finish();
      fp.U64(dict_part.hi);
      fp.U64(dict_part.lo);
    }
  }
  return fp.Finish();
}

/// Extends each per-column hasher over rows [from, n) and each dictionary
/// hasher over entries past its high-water mark. The incremental cache and
/// the from-scratch TableFingerprint both funnel through this, so the two
/// can never drift apart.
void ExtendColumnStates(const Table& table, size_t from, size_t n,
                        std::vector<Fingerprinter>* col_states,
                        std::vector<Fingerprinter>* dict_states,
                        std::vector<size_t>* dict_hashed) {
  for (int c = 0; c < table.num_columns(); ++c) {
    const size_t ci = static_cast<size_t>(c);
    const Column& col = table.column(c);
    if (col.type() == DataType::kDouble) {
      const std::vector<double>& values = col.doubles();
      for (size_t r = from; r < n; ++r) (*col_states)[ci].Double(values[r]);
    } else {
      const std::vector<int32_t>& codes = col.codes();
      for (size_t r = from; r < n; ++r) {
        (*col_states)[ci].U64(static_cast<uint64_t>(codes[r]));
      }
      const std::vector<std::string>& dict = col.dictionary();
      for (size_t d = (*dict_hashed)[ci]; d < dict.size(); ++d) {
        (*dict_states)[ci].Str(dict[d]);
      }
      (*dict_hashed)[ci] = dict.size();
    }
  }
}

}  // namespace

Fingerprint TableFingerprint(const Table& table) {
  const size_t ncols = static_cast<size_t>(table.num_columns());
  std::vector<Fingerprinter> col_states(ncols);
  std::vector<Fingerprinter> dict_states(ncols);
  std::vector<size_t> dict_hashed(ncols, 0);
  ExtendColumnStates(table, 0, table.num_rows(), &col_states, &dict_states,
                     &dict_hashed);
  return CombineColumnStates(table, col_states, dict_states);
}

Fingerprint FingerprintCache::Get(const Table& table) const {
  MutexLock lock(mu_);
  const size_t ncols = static_cast<size_t>(table.num_columns());
  const size_t n = table.num_rows();
  // The cached states are reusable only if this table extends what they
  // hashed: same column count, at least as many rows, and no dictionary
  // shrank (intern tables only grow under appends).
  bool compatible = valid_ && col_states_.size() == ncols && rows_hashed_ <= n;
  for (size_t c = 0; compatible && c < ncols; ++c) {
    const Column& col = table.column(static_cast<int>(c));
    if (col.type() != DataType::kDouble &&
        dict_hashed_[c] > col.dictionary().size()) {
      compatible = false;
    }
  }
  if (!compatible) {
    col_states_.assign(ncols, Fingerprinter());
    dict_states_.assign(ncols, Fingerprinter());
    dict_hashed_.assign(ncols, 0);
    rows_hashed_ = 0;
    fp_valid_ = false;
    valid_ = true;
  }
  if (fp_valid_ && rows_hashed_ == n) return fp_;
  ExtendColumnStates(table, rows_hashed_, n, &col_states_, &dict_states_,
                     &dict_hashed_);
  rows_hashed_ = n;
  fp_ = CombineColumnStates(table, col_states_, dict_states_);
  fp_valid_ = true;
  return fp_;
}

void FingerprintCache::SeedFrom(const FingerprintCache& prev) {
  MutexLock prev_lock(prev.mu_);
  MutexLock lock(mu_);
  valid_ = prev.valid_;
  rows_hashed_ = prev.rows_hashed_;
  col_states_ = prev.col_states_;
  dict_states_ = prev.dict_states_;
  dict_hashed_ = prev.dict_hashed_;
  fp_valid_ = prev.fp_valid_;
  fp_ = prev.fp_;
}

void FingerprintCache::Reset() {
  MutexLock lock(mu_);
  valid_ = false;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << schema_.ToString() << ", " << num_rows_ << " rows\n";
  size_t shown = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < shown; ++r) {
    os << "  ";
    for (int c = 0; c < num_columns(); ++c) {
      if (c > 0) os << " | ";
      const Column& col = columns_[c];
      if (col.type() == DataType::kDouble) {
        os << FormatDouble(col.GetDouble(static_cast<RowId>(r)));
      } else {
        os << col.GetString(static_cast<RowId>(r));
      }
    }
    os << "\n";
  }
  if (shown < num_rows_) os << "  ... (" << (num_rows_ - shown) << " more)\n";
  return os.str();
}

}  // namespace scorpion
