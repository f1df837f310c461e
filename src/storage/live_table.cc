#include "storage/live_table.h"

#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "table/column.h"
#include "table/types.h"

namespace scorpion {

LiveTable::LiveTable(Schema schema) : schema_(std::move(schema)) {
  for (const Field& field : schema_.fields()) pending_.emplace_back(field.type);
}

Status LiveTable::Append(const std::vector<Value>& values) {
  SCORPION_RETURN_NOT_OK(schema_.ValidateRow(values));
  MutexLock lock(mu_);
  for (size_t c = 0; c < pending_.size(); ++c) {
    SCORPION_RETURN_NOT_OK(pending_[c].AppendValue(values[c]));
  }
  ++pending_rows_;
  return Status::OK();
}

size_t LiveTable::num_rows_locked() const {
  const size_t published =
      published_ == nullptr ? 0 : published_->table.num_rows();
  return published + pending_rows_;
}

size_t LiveTable::num_rows() const {
  MutexLock lock(mu_);
  return num_rows_locked();
}

namespace {

/// `head` then `tail`, allocated at its exact final size.
template <typename T>
std::vector<T> Concat(const std::vector<T>& head, const std::vector<T>& tail) {
  std::vector<T> out;
  out.reserve(head.size() + tail.size());
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

}  // namespace

Result<std::shared_ptr<const TableSnapshot>> LiveTable::Publish() {
  SCORPION_FAILPOINT("storage.live_publish");
  MutexLock lock(mu_);
  if (published_ != nullptr && pending_rows_ == 0) {
    // Nothing appended since the last publish: the existing generation is
    // already an exact image, so don't mint an identical new one (that
    // would needlessly invalidate readers' generation comparisons).
    return published_;
  }
  const size_t n = num_rows_locked();

  // The snapshot's Table must be built at its final address: Table's
  // derived caches (and TableBlockStats' back-pointer) do not survive a
  // move, so seeding before the object settles would be wasted or wrong.
  auto snap = std::make_shared<TableSnapshot>(schema_);

  // Exact encoded copy, column by column: the previous generation's rows,
  // then the pending ones. Pending categoricals carry the dictionary in
  // interning order (a superset of the previous generation's), so row
  // codes are bytewise identical to the previous generation's — the
  // property both fingerprint-state reuse and sealed-block zone-map reuse
  // depend on.
  for (size_t c = 0; c < pending_.size(); ++c) {
    const int col = static_cast<int>(c);
    const Column& tail = pending_[c];
    const Column empty(tail.type());
    const Column& head =
        published_ == nullptr ? empty : published_->table.column(col);
    Column& dst = snap->table.column(col);
    if (tail.type() == DataType::kDouble) {
      SCORPION_RETURN_NOT_OK(
          dst.SetDoubleData(Concat(head.doubles(), tail.doubles())));
    } else {
      SCORPION_RETURN_NOT_OK(dst.SetCategoricalData(
          Concat(head.codes(), tail.codes()), tail.dictionary()));
    }
  }
  SCORPION_RETURN_NOT_OK(snap->table.FinalizeColumnwiseBuild());

  snap->generation = next_generation_++;
  snap->table.set_generation(snap->generation);
  snap->sealed_rows = (n / kBlockSize) * kBlockSize;
  snap->tail_rows = n - snap->sealed_rows;

  if (published_ != nullptr) {
    // Carry the previous generation's derived state: sealed-block zone
    // maps verbatim, fingerprint hasher states to extend from the old
    // high-water mark. Purely a cost optimisation — the seeded caches
    // produce bit-identical values to a cold build over snap->table.
    snap->table.SeedDerivedCaches(published_->table);
  }

  for (Column& tail : pending_) tail.ClearRows();
  pending_rows_ = 0;
  published_ = std::move(snap);
  return published_;
}

std::shared_ptr<const TableSnapshot> LiveTable::snapshot() const {
  MutexLock lock(mu_);
  return published_;
}

uint64_t LiveTable::generation() const {
  MutexLock lock(mu_);
  return published_ == nullptr ? 0 : published_->generation;
}

size_t LiveTable::sealed_rows() const {
  MutexLock lock(mu_);
  return (num_rows_locked() / kBlockSize) * kBlockSize;
}

size_t LiveTable::tail_rows() const {
  MutexLock lock(mu_);
  return num_rows_locked() % kBlockSize;
}

}  // namespace scorpion
