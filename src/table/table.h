// Table: schema + columns. Append-oriented build, columnar read access.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "common/mutex.h"
#include "common/result.h"
#include "table/block_stats.h"
#include "table/column.h"
#include "table/schema.h"

namespace scorpion {

class Table;

/// \brief Copyable/movable holder for a Table's cached content fingerprint.
///
/// Same shape as BlockStatsCache: copying or moving the owning Table drops
/// the cache (it recomputes on demand), keeping Table copyable despite the
/// mutex. The cache holds the *streaming hasher state* per column rather
/// than just the finished digest: appending rows extends each per-column
/// hasher from the previous high-water mark instead of rehashing the whole
/// table, and `SeedFrom` carries the states across a live-table generation
/// publish so a snapshot's fingerprint costs O(delta). The combined digest
/// is keyed on the row count — the only mutation a built Table supports is
/// appending rows. Fingerprint consumers (session setup, dataset
/// publication) are far off the scoring hot path, so no lock-free fast path
/// is needed.
class FingerprintCache {
 public:
  FingerprintCache() = default;
  FingerprintCache(const FingerprintCache&) {}
  FingerprintCache& operator=(const FingerprintCache&) {
    Reset();
    return *this;
  }
  FingerprintCache(FingerprintCache&&) noexcept {}
  FingerprintCache& operator=(FingerprintCache&&) noexcept {
    Reset();
    return *this;
  }

  /// The fingerprint of `table`'s current contents, extending the cached
  /// hasher states over any rows appended since the last call (full rehash
  /// only if the table shrank or changed shape). Thread-safe.
  Fingerprint Get(const Table& table) const;

  /// Copies `prev`'s hasher states into this cache, so the first Get on a
  /// table whose rows extend `prev`'s only hashes the new suffix. The next
  /// Get validates shape/row-count compatibility and falls back to a full
  /// rehash if the tables do not actually share a prefix encoding.
  void SeedFrom(const FingerprintCache& prev);

 private:
  void Reset();

  mutable Mutex mu_;
  mutable bool valid_ SCORPION_GUARDED_BY(mu_) = false;
  /// Rows folded into every per-column state so far.
  mutable size_t rows_hashed_ SCORPION_GUARDED_BY(mu_) = 0;
  /// One streaming hasher per column over its encoded row payload.
  mutable std::vector<Fingerprinter> col_states_ SCORPION_GUARDED_BY(mu_);
  /// Per column: streaming hasher over the dictionary entries (categorical
  /// columns only; slot unused for doubles) and how many entries it has
  /// absorbed. Dictionaries are intern tables — they only grow.
  mutable std::vector<Fingerprinter> dict_states_ SCORPION_GUARDED_BY(mu_);
  mutable std::vector<size_t> dict_hashed_ SCORPION_GUARDED_BY(mu_);
  mutable bool fp_valid_ SCORPION_GUARDED_BY(mu_) = false;
  mutable Fingerprint fp_ SCORPION_GUARDED_BY(mu_);
};

/// \brief In-memory columnar table.
///
/// Built by appending rows (or via generators appending column-wise), then
/// treated as immutable by the query/search layers.
class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  int num_columns() const { return schema_.num_fields(); }

  /// Appends one row; `values` must match the schema arity and types. A
  /// rejected row appends nothing (see Schema::ValidateRow).
  Status AppendRow(const std::vector<Value>& values);

  /// Column by position (unchecked).
  const Column& column(int i) const { return columns_[i]; }
  Column& column(int i) { return columns_[i]; }

  /// Column by name.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Position of a named column.
  Result<int> ColumnIndex(const std::string& name) const {
    return schema_.FieldIndex(name);
  }

  /// Cell accessor for tests and row-oriented consumers.
  Result<Value> GetValue(RowId row, int col) const;

  /// A new table with the same schema containing only the given rows
  /// (in the given order).
  Result<Table> TakeRows(const RowIdList& rows) const;

  /// Human-readable preview of up to `max_rows` rows.
  std::string ToString(size_t max_rows = 10) const;

  /// Used by generators that append column-wise; validates all columns have
  /// equal length and synchronizes num_rows.
  Status FinalizeColumnwiseBuild();

  /// Per-block zone maps for the predicate data plane (see
  /// table/block_stats.h). Built lazily, shared by every BoundPredicate
  /// bound to this table, and rebuilt automatically after appends change
  /// the row count. Thread-safe (lock-free once built); the pointer stays
  /// valid while the table lives with this row count.
  const TableBlockStats* block_stats() const {
    return block_stats_cache_.Get(*this);
  }

  /// Content fingerprint over schema + encoded column data (see
  /// TableFingerprint); the distributed service's data identity. Cached
  /// incrementally; appends extend the streaming hasher states instead of
  /// rehashing from row zero.
  Fingerprint fingerprint() const { return fingerprint_cache_.Get(*this); }

  /// Storage-layer generation this table's contents were published at.
  /// 0 for plain (non-live) tables; LiveTable::Publish stamps each frozen
  /// snapshot copy with its generation so bound predicates can report
  /// *which* generations diverged instead of just "the table changed".
  uint64_t generation() const { return generation_; }
  void set_generation(uint64_t generation) { generation_ = generation; }

  /// Seeds this table's lazy derived caches (fingerprint hasher states,
  /// per-block zone maps) from `prev`, a table whose encoded rows are a
  /// prefix of this one's. Used by LiveTable::Publish so each generation's
  /// first fingerprint / block-stats build only touches the appended
  /// suffix. Safe to call on a freshly built table before it is shared.
  void SeedDerivedCaches(const Table& prev) {
    fingerprint_cache_.SeedFrom(prev.fingerprint_cache_);
    block_stats_cache_.SeedFrom(prev.block_stats_cache_, *this);
  }

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  uint64_t generation_ = 0;
  BlockStatsCache block_stats_cache_;
  FingerprintCache fingerprint_cache_;
};

/// Uncached fingerprint of a table's contents: a header digest over schema
/// (field names + types) and row count, combined with one independent
/// streaming digest per column over its encoded payload — double bit
/// patterns for continuous columns; dictionary strings and codes for
/// categorical columns. Per-column digests (rather than one sequential
/// stream) let appends extend each column's hasher state independently;
/// see FingerprintCache. Hashing the *encoded* form (dictionary order and
/// code assignment included) is deliberate: predicates on the wire carry
/// dictionary codes, so two tables only count as "the same data" when
/// their encodings agree.
Fingerprint TableFingerprint(const Table& table);

}  // namespace scorpion
