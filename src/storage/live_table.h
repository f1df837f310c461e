// Live tables: sealed-block snapshots plus a mutable append tail.
//
// The rest of the engine treats a Table as immutable once built — every
// cache (zone maps, fingerprints, session match Selections) is keyed on the
// table's identity and row count, and BoundPredicate aborts if the table
// grew under it. LiveTable is the ingest-side answer: rows stream into a
// small pending buffer, and Publish() freezes the latest generation plus
// those rows as a new immutable, generation-numbered TableSnapshot that
// readers pin for the whole duration of an Explain/FilterBatch call.
// Appends landing after the pin are invisible to that reader; the next
// Publish makes them visible to *new* readers atomically (LSM-buffer
// style, without the compaction half: sealed data is never rewritten).
//
// The LiveTable keeps no full copy of its own: the latest snapshot is the
// only image of the published rows, and the pending buffer holds just the
// rows appended since. A publish therefore holds at most two full copies:
// the previous generation, which readers may still pin, and the new one.
//
// Row space is organised on the same 4096-row grid the zone maps use
// (kBlockSize, table/block_stats.h): the prefix covered by full blocks is
// *sealed* — those blocks' contents can never change under append-only
// ingest — and the remainder is the *tail*. A tail seals implicitly the
// moment enough appends carry it past a block boundary. Sealing is what
// makes incremental derived state sound: a later generation's zone maps
// reuse the earlier generation's sealed-block entries verbatim
// (BlockStatsCache::SeedFrom) and its fingerprint extends the earlier
// streaming hasher states (FingerprintCache::SeedFrom), so publishing after
// a burst of appends costs O(delta), not O(table).
//
// Snapshots are refcounted (shared_ptr): a reader that pinned generation g
// keeps g's frozen table alive even after generations g+1, g+2 publish and
// the LiveTable drops its own reference. Results computed against a pinned
// generation are bit-identical to a from-scratch run over that frozen data
// — the derived-cache seeding above changes cost, never values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/result.h"
#include "table/block_stats.h"
#include "table/schema.h"
#include "table/table.h"

namespace scorpion {

/// \brief One immutable published generation of a LiveTable.
///
/// Holds a frozen, self-contained copy of the live contents at publish
/// time: same schema, same values, byte-identical column encoding (the
/// categorical dictionaries are copied in interning order, so a row's
/// codes are the same in every generation and sealed-block derived state
/// carries over).
/// All of Table's lazily built caches (zone maps, fingerprint) live on this
/// copy and are seeded from the previous generation at publish, so they
/// only pay for rows past the previous high-water mark.
struct TableSnapshot {
  explicit TableSnapshot(Schema schema) : table(std::move(schema)) {}
  SCORPION_DISALLOW_COPY_AND_ASSIGN(TableSnapshot);

  /// The frozen data. `table.generation()` equals `generation`, so every
  /// BoundPredicate bound against it can detect cross-generation misuse
  /// (Status::FailedPrecondition) instead of scanning the wrong rows.
  Table table;
  /// Monotonic per-LiveTable version, starting at 1 for the first Publish.
  uint64_t generation = 0;
  /// Rows covered by full kBlockSize-row blocks at publish time. These
  /// blocks are sealed: identical in every later generation.
  size_t sealed_rows = 0;
  /// Rows past the sealed prefix (the frozen image of the append tail).
  size_t tail_rows = 0;
};

/// \brief Append-only streaming table with atomically published snapshots.
///
/// Thread-safe: any number of appender and reader threads. Append() and
/// Publish() serialise on an internal mutex; snapshot() hands out the
/// latest published generation under the same mutex (pointer copy only).
/// Typical shape: one writer thread appending + publishing on a cadence,
/// reader threads pinning `snapshot()` once per Explain call.
class LiveTable {
 public:
  explicit LiveTable(Schema schema);
  SCORPION_DISALLOW_COPY_AND_ASSIGN(LiveTable);

  const Schema& schema() const { return schema_; }

  /// Appends one row to the pending buffer; `values` must match the
  /// schema's arity and types. A rejected row appends nothing. Invisible to
  /// readers until the next Publish().
  Status Append(const std::vector<Value>& values);

  /// Total rows appended so far (including unpublished tail rows).
  size_t num_rows() const;

  /// Freezes the current contents (the previous generation's rows, then
  /// the pending ones) as a new generation and publishes it as the
  /// snapshot() result. Derived caches (zone maps, fingerprint hasher
  /// states) are seeded from the previous generation, so the first reads
  /// against it cost O(rows since last publish); the copy itself is
  /// O(rows). If nothing was appended since the last Publish, returns the
  /// existing snapshot without minting a new generation.
  Result<std::shared_ptr<const TableSnapshot>> Publish();

  /// Latest published generation, or null before the first Publish().
  /// Callers keep the returned handle for the whole duration of a read;
  /// the generation stays alive (refcounted) even after newer publishes.
  std::shared_ptr<const TableSnapshot> snapshot() const;

  /// Generation number of the latest published snapshot (0 = none yet).
  uint64_t generation() const;

  /// Rows (published and pending) covered by full sealed blocks / past
  /// them. num_rows() == sealed_rows() + tail_rows().
  size_t sealed_rows() const;
  size_t tail_rows() const;

 private:
  size_t num_rows_locked() const SCORPION_REQUIRES(mu_);

  const Schema schema_;
  mutable Mutex mu_;
  /// Rows appended since the last Publish, one column per field. Never
  /// handed out. The categorical columns keep their dictionaries across
  /// publishes (Column::ClearRows), so a pending row's codes are the ones
  /// it has in every generation that contains it.
  std::vector<Column> pending_ SCORPION_GUARDED_BY(mu_);
  size_t pending_rows_ SCORPION_GUARDED_BY(mu_) = 0;
  uint64_t next_generation_ SCORPION_GUARDED_BY(mu_) = 1;
  std::shared_ptr<const TableSnapshot> published_ SCORPION_GUARDED_BY(mu_);
};

}  // namespace scorpion
