// Live-table tests: sealing on the block grid, snapshot refcounting,
// incremental derived state (fingerprints, query results, session match
// caches) against the one contract that matters — everything computed over
// a published generation is bit-identical to a from-scratch run over that
// frozen data — plus writer/reader stress tests that run under TSan.
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset.h"
#include "core/scorpion.h"
#include "eval/experiment.h"
#include "query/groupby.h"
#include "service/stats.h"
#include "storage/live_table.h"
#include "table/block_stats.h"
#include "test_helpers.h"

namespace scorpion {
namespace {

using testing_helpers::PaperQuery;

Schema SensorSchema() {
  return Schema({{"time", DataType::kCategorical},
                 {"sensorid", DataType::kCategorical},
                 {"voltage", DataType::kDouble},
                 {"humidity", DataType::kDouble},
                 {"temp", DataType::kDouble}});
}

// Deterministic stationary stream shaped like the paper's sensors table:
// hours cycle {11AM,12PM,1PM}, sensors cycle {1,2,3}; sensor 3 runs hot
// (and at low voltage) outside 11AM. Stationarity matters for the
// delta-refresh tests: the ground-truth predicate (sensorid = 3 / low
// voltage) stays the ground truth in every generation, so session match
// caches built at generation g are worth extending at g+1.
std::vector<Value> StreamRow(size_t i) {
  static const char* kHours[] = {"11AM", "12PM", "1PM"};
  const std::string hour = kHours[(i / 3) % 3];
  const std::string sensor = std::to_string(i % 3 + 1);
  const bool hot = sensor == "3" && hour != "11AM";
  const double voltage = hot ? 2.3 : 2.7;
  const double humidity = (i % 2 == 0) ? 0.4 : 0.5;
  const double temp = hot ? (hour == "12PM" ? 100.0 : 80.0)
                          : 34.0 + static_cast<double>(i % 3);
  return {hour, sensor, voltage, humidity, temp};
}

void AppendRows(LiveTable& live, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    ASSERT_TRUE(live.Append(StreamRow(i)).ok());
  }
}

// From-scratch reference: the first n stream rows built as a plain Table.
Table ScratchTable(size_t n) {
  Table table(SensorSchema());
  for (size_t i = 0; i < n; ++i) {
    auto st = table.AppendRow(StreamRow(i));
    SCORPION_CHECK(st.ok(), "scratch append failed");
  }
  return table;
}

ExplainRequest StreamRequest() {
  return ExplainRequest()
      .FlagTooHigh("12PM")
      .FlagTooHigh("1PM")
      .Holdout("11AM")
      .WithAttributes({"sensorid", "voltage"})
      .WithC(0.5);
}

void ExpectSameAnswer(const ExplainResponse& got, const ExplainResponse& want) {
  ASSERT_EQ(got.predicates.size(), want.predicates.size());
  for (size_t i = 0; i < got.predicates.size(); ++i) {
    EXPECT_EQ(got.predicates[i].pred.ToString(),
              want.predicates[i].pred.ToString());
    // Exact double equality on purpose: delta-extended match caches must
    // feed the scorer the very rows a cold filter finds, in the same order.
    EXPECT_EQ(got.predicates[i].influence, want.predicates[i].influence);
  }
  EXPECT_EQ(got.what_if, want.what_if);
}

// --- LiveTable: sealing, publishing, refcounting -----------------------------

TEST(LiveTable, TailSealsOnTheBlockGrid) {
  LiveTable live(SensorSchema());
  AppendRows(live, 0, kBlockSize - 1);
  EXPECT_EQ(live.num_rows(), kBlockSize - 1);
  EXPECT_EQ(live.sealed_rows(), 0u);
  EXPECT_EQ(live.tail_rows(), kBlockSize - 1);

  auto snap1 = live.Publish();
  ASSERT_TRUE(snap1.ok());
  EXPECT_EQ((*snap1)->generation, 1u);
  EXPECT_EQ((*snap1)->sealed_rows, 0u);
  EXPECT_EQ((*snap1)->tail_rows, kBlockSize - 1);
  EXPECT_EQ((*snap1)->table.num_rows(), kBlockSize - 1);
  EXPECT_EQ((*snap1)->table.generation(), 1u);

  // One more row carries the tail past the block boundary: it seals.
  AppendRows(live, kBlockSize - 1, kBlockSize);
  EXPECT_EQ(live.sealed_rows(), kBlockSize);
  EXPECT_EQ(live.tail_rows(), 0u);

  AppendRows(live, kBlockSize, kBlockSize + 5);
  EXPECT_EQ(live.sealed_rows(), kBlockSize);
  EXPECT_EQ(live.tail_rows(), 5u);

  auto snap2 = live.Publish();
  ASSERT_TRUE(snap2.ok());
  EXPECT_EQ((*snap2)->generation, 2u);
  EXPECT_EQ((*snap2)->sealed_rows, kBlockSize);
  EXPECT_EQ((*snap2)->tail_rows, 5u);
}

TEST(LiveTable, PublishIsAtomicAndNoOpWithoutAppends) {
  LiveTable live(SensorSchema());
  EXPECT_EQ(live.generation(), 0u);
  EXPECT_EQ(live.snapshot(), nullptr);

  AppendRows(live, 0, 9);
  // Appends are invisible until published.
  EXPECT_EQ(live.snapshot(), nullptr);

  auto snap1 = live.Publish();
  ASSERT_TRUE(snap1.ok());
  EXPECT_EQ(live.generation(), 1u);
  EXPECT_EQ(live.snapshot(), *snap1);

  // Publishing with nothing appended hands back the same generation.
  auto again = live.Publish();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *snap1);
  EXPECT_EQ(live.generation(), 1u);

  // New appends stay invisible to the published snapshot...
  AppendRows(live, 9, 12);
  EXPECT_EQ((*snap1)->table.num_rows(), 9u);
  EXPECT_EQ(live.snapshot()->table.num_rows(), 9u);
  // ...until the next publish makes them visible atomically.
  auto snap2 = live.Publish();
  ASSERT_TRUE(snap2.ok());
  EXPECT_EQ((*snap2)->generation, 2u);
  EXPECT_EQ(live.snapshot()->table.num_rows(), 12u);
}

TEST(LiveTable, PinnedSnapshotsOutliveNewerGenerations) {
  LiveTable live(SensorSchema());
  AppendRows(live, 0, 9);
  ASSERT_TRUE(live.Publish().ok());

  std::shared_ptr<const TableSnapshot> pinned = live.snapshot();
  ASSERT_NE(pinned, nullptr);

  AppendRows(live, 9, 18);
  ASSERT_TRUE(live.Publish().ok());
  AppendRows(live, 18, 27);
  ASSERT_TRUE(live.Publish().ok());

  // The reader's generation is untouched by the two newer publishes...
  EXPECT_EQ(pinned->generation, 1u);
  EXPECT_EQ(pinned->table.num_rows(), 9u);
  EXPECT_EQ(live.generation(), 3u);
  // ...and the LiveTable dropped its own reference to it: the pin is the
  // only thing keeping generation 1 alive.
  EXPECT_EQ(pinned.use_count(), 1);
}

TEST(LiveTable, AppendRejectsSchemaMismatch) {
  LiveTable live(SensorSchema());
  // Wrong arity.
  EXPECT_FALSE(live.Append({std::string("11AM"), std::string("1")}).ok());
  // Wrong type in a double column.
  EXPECT_FALSE(live.Append({std::string("11AM"), std::string("1"),
                            std::string("2.64"), 0.4, 34.0})
                   .ok());
  EXPECT_EQ(live.num_rows(), 0u);
}

// --- Incremental derived state ----------------------------------------------

TEST(LiveTable, IncrementalFingerprintMatchesFromScratch) {
  LiveTable live(SensorSchema());
  // Three publishes, the middle one crossing the block boundary so the
  // second and third extend a seeded hasher state over sealed blocks.
  const size_t cuts[] = {300, kBlockSize + 100, kBlockSize + 900};
  size_t appended = 0;
  for (size_t cut : cuts) {
    AppendRows(live, appended, cut);
    appended = cut;
    auto snap = live.Publish();
    ASSERT_TRUE(snap.ok());
    const Table scratch = ScratchTable(cut);
    EXPECT_EQ((*snap)->table.fingerprint(), scratch.fingerprint())
        << "generation " << (*snap)->generation
        << " diverged from a from-scratch build at " << cut << " rows";
  }
}

TEST(LiveTable, ExtendQueryResultMatchesColdExecution) {
  LiveTable live(SensorSchema());
  AppendRows(live, 0, 300);
  auto snap1 = live.Publish();
  ASSERT_TRUE(snap1.ok());
  auto qr1 = ExecuteGroupBy((*snap1)->table, PaperQuery());
  ASSERT_TRUE(qr1.ok());

  // Delta touches existing groups and introduces a brand-new one.
  AppendRows(live, 300, 450);
  ASSERT_TRUE(
      live.Append({std::string("2PM"), std::string("1"), 2.7, 0.4, 35.0})
          .ok());
  ASSERT_TRUE(
      live.Append({std::string("2PM"), std::string("2"), 2.7, 0.5, 36.0})
          .ok());
  auto snap2 = live.Publish();
  ASSERT_TRUE(snap2.ok());

  auto extended = ExtendQueryResult(*qr1, (*snap2)->table);
  ASSERT_TRUE(extended.ok());
  auto cold = ExecuteGroupBy((*snap2)->table, PaperQuery());
  ASSERT_TRUE(cold.ok());

  ASSERT_EQ(extended->results.size(), cold->results.size());
  for (size_t i = 0; i < cold->results.size(); ++i) {
    const AggregateResult& e = extended->results[i];
    const AggregateResult& c = cold->results[i];
    EXPECT_EQ(e.key_string, c.key_string);
    EXPECT_EQ(e.key, c.key);
    // Exact: untouched groups carry the old aggregate verbatim, touched
    // groups recompute over the same rows in the same order.
    EXPECT_EQ(e.value, c.value);
    EXPECT_EQ(e.input_group.rows(), c.input_group.rows());
    EXPECT_EQ(e.input_group.universe_size(), c.input_group.universe_size());
  }
}

TEST(SessionDeltaRefresh, BitIdenticalToSessionlessRun) {
  LiveTable live(SensorSchema());
  AppendRows(live, 0, 400);
  auto snap1 = live.Publish();
  ASSERT_TRUE(snap1.ok());
  auto qr1 = ExecuteGroupBy((*snap1)->table, PaperQuery());
  ASSERT_TRUE(qr1.ok());
  auto problem1 = MakeProblem(*qr1, {"12PM", "1PM"}, {"11AM"},
                              /*error_direction=*/1.0, /*lambda=*/0.5,
                              /*c=*/0.5, {"sensorid", "voltage"});
  ASSERT_TRUE(problem1.ok());

  ExplainSession session;
  Scorpion engine;
  auto warm = engine.ExplainShared((*snap1)->table, *qr1, *problem1, &session);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  AppendRows(live, 400, 650);
  auto snap2 = live.Publish();
  ASSERT_TRUE(snap2.ok());
  auto qr2 = ExtendQueryResult(*qr1, (*snap2)->table);
  ASSERT_TRUE(qr2.ok());
  auto problem2 = MakeProblem(*qr2, {"12PM", "1PM"}, {"11AM"}, 1.0, 0.5, 0.5,
                              {"sensorid", "voltage"});
  ASSERT_TRUE(problem2.ok());

  // Re-key the session: the warm run's match caches become the delta seed.
  EXPECT_TRUE(session.BeginDeltaRefresh((*snap2)->generation,
                                        (*snap2)->table.num_rows(), *qr1));

  auto refreshed =
      engine.ExplainShared((*snap2)->table, *qr2, *problem2, &session);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_TRUE(refreshed->session_delta_refreshed);
  // The extensions scanned delta rows — and only delta rows — per seeded
  // predicate: strictly fewer than one full-table refilter would.
  const uint64_t tail_scanned = refreshed->scorer_stats.tail_rows_scanned;
  EXPECT_GT(tail_scanned, 0u);

  Scorpion cold_engine;
  auto cold = cold_engine.Explain((*snap2)->table, *qr2, *problem2);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->scorer_stats.tail_rows_scanned.load(), 0u);

  ASSERT_EQ(refreshed->predicates.size(), cold->predicates.size());
  for (size_t i = 0; i < cold->predicates.size(); ++i) {
    EXPECT_EQ(refreshed->predicates[i].pred.ToString(),
              cold->predicates[i].pred.ToString());
    EXPECT_EQ(refreshed->predicates[i].influence,
              cold->predicates[i].influence);
  }
}

// Regression: the delta seed was keyed by Predicate::ToString, which prints
// bounds to 6 significant digits, so a refreshed partition whose bound
// differs past the 6th digit reused another predicate's old matches.
TEST(SessionDeltaRefresh, SeedKeysPredicatesExactly) {
  Predicate a;
  Predicate b;
  ASSERT_TRUE(a.AddRange({"x", 1000000.25, 1000001, true}).ok());
  ASSERT_TRUE(b.AddRange({"x", 1000000.5, 1000001, true}).ok());
  ASSERT_EQ(a.ToString(), b.ToString());  // both "x in [1e+06, 1000001]"
  ASSERT_FALSE(a == b);

  LiveTable live(Schema({{"g", DataType::kCategorical},
                         {"x", DataType::kDouble},
                         {"v", DataType::kDouble}}));
  // x cycles through 1e6 + {0, .25, .5, .75}: rows at .25 match a, not b.
  auto append = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const std::string g = (i / 4) % 2 == 0 ? "hot" : "cold";
      const double x = 1000000.0 + 0.25 * static_cast<double>(i % 4);
      ASSERT_TRUE(live.Append({g, x, 1.0}).ok());
    }
  };
  GroupByQuery query;
  query.aggregate = "SUM";
  query.agg_attr = "v";
  query.group_by = {"g"};

  append(0, 160);
  auto snap1 = live.Publish();
  ASSERT_TRUE(snap1.ok());
  auto qr1 = ExecuteGroupBy((*snap1)->table, query);
  ASSERT_TRUE(qr1.ok());
  auto problem1 = MakeProblem(*qr1, {"hot"}, {"cold"}, 1.0, 0.5, 0.5, {"x"});
  ASSERT_TRUE(problem1.ok());
  auto scorer1 = Scorer::Make((*snap1)->table, *qr1, *problem1);
  ASSERT_TRUE(scorer1.ok());

  append(160, 240);
  auto snap2 = live.Publish();
  ASSERT_TRUE(snap2.ok());
  auto qr2 = ExtendQueryResult(*qr1, (*snap2)->table);
  ASSERT_TRUE(qr2.ok());
  auto problem2 = MakeProblem(*qr2, {"hot"}, {"cold"}, 1.0, 0.5, 0.5, {"x"});
  ASSERT_TRUE(problem2.ok());
  auto scorer2 = Scorer::Make((*snap2)->table, *qr2, *problem2);
  ASSERT_TRUE(scorer2.ok());

  // The seed holds a's old matches only; b must not pick them up.
  SessionDeltaSeed seed;
  seed.old_num_rows = (*snap1)->table.num_rows();
  auto old_a = scorer1->BuildMatchCache(a);
  ASSERT_TRUE(old_a.ok());
  seed.matches[a] = *old_a;
  for (size_t i = 0; i < qr1->results.size(); ++i) {
    seed.old_index_by_key[qr1->results[i].key_string] = static_cast<int>(i);
  }

  auto expect_same = [&](const Predicate& pred, size_t want_hits) {
    size_t hits = 0;
    auto extended = scorer2->BuildMatchCacheExtended(pred, &seed, &hits);
    ASSERT_TRUE(extended.ok());
    auto cold = scorer2->BuildMatchCache(pred);
    ASSERT_TRUE(cold.ok());
    for (int idx : problem2->outliers) {
      EXPECT_EQ((**extended)[idx].rows(), (**cold)[idx].rows());
    }
    for (int idx : problem2->holdouts) {
      EXPECT_EQ((**extended)[idx].rows(), (**cold)[idx].rows());
    }
    EXPECT_EQ(hits, want_hits);
  };
  expect_same(b, 0);
  // An exact key still extends: the outlier and hold-out slots both hit.
  expect_same(a, 2);
}

// --- LiveDataset (api layer) -------------------------------------------------

TEST(LiveDataset, DeltaRefreshBitIdenticalToColdOpen) {
  LiveTable live(SensorSchema());
  AppendRows(live, 0, 600);

  ServiceStats stats;
  Engine engine;
  auto ld = engine.OpenLive(live, PaperQuery(), &stats);
  ASSERT_TRUE(ld.ok()) << ld.status().ToString();
  EXPECT_EQ(ld->generation(), 1u);

  // Warm the session at generation 1.
  auto warm = ld->Explain(StreamRequest());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  AppendRows(live, 600, 900);
  auto gen = ld->Refresh();
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(*gen, 2u);
  EXPECT_EQ(ld->generation(), 2u);
  EXPECT_EQ(ld->result()->results.size(), 3u);

  auto refreshed = ld->Explain(StreamRequest());
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();

  // Reference: a cold Engine::Open over the same frozen generation.
  auto snap = ld->snapshot();
  Engine cold_engine;
  auto cold_ds = cold_engine.Open(snap->table, PaperQuery());
  ASSERT_TRUE(cold_ds.ok());
  auto cold = cold_ds->Explain(StreamRequest());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  ExpectSameAnswer(*refreshed, *cold);

  const ServiceStatsSnapshot s = stats.Snapshot(0);
  EXPECT_EQ(s.snapshot_generations_published, 2u);  // OpenLive + Refresh
  EXPECT_EQ(s.sessions_delta_refreshed, 1u);
  EXPECT_GT(s.tail_rows_scanned, 0u);
}

TEST(LiveDataset, RefreshWithoutAppendsKeepsTheGeneration) {
  LiveTable live(SensorSchema());
  AppendRows(live, 0, 90);
  Engine engine;
  auto ld = engine.OpenLive(live, PaperQuery());
  ASSERT_TRUE(ld.ok());

  auto before = ld->snapshot();
  auto gen = ld->Refresh();
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(*gen, 1u);
  EXPECT_EQ(ld->snapshot(), before);
}

TEST(LiveDataset, AsyncExplainPinsItsGenerationAcrossRefresh) {
  LiveTable live(SensorSchema());
  AppendRows(live, 0, 300);
  Engine engine;
  auto ld = engine.OpenLive(live, PaperQuery());
  ASSERT_TRUE(ld.ok());

  // The sync answer at generation 1 is the reference.
  auto reference = ld->Explain(StreamRequest());
  ASSERT_TRUE(reference.ok());

  auto pending = ld->ExplainAsync(StreamRequest());
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();

  // Advance the dataset while the async job may still be in flight. The
  // job pinned generation 1 at submit, so it must answer over generation 1
  // even though the dataset now serves generation 2.
  AppendRows(live, 300, 500);
  ASSERT_TRUE(ld->Refresh().ok());
  EXPECT_EQ(ld->generation(), 2u);

  auto async = pending->Get();
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  ExpectSameAnswer(*async, *reference);
}

// --- Stress (runs under TSan: test_live_table is not TSAN_SKIP-labeled) ------

// One writer appending + publishing, four readers pinning snapshots and
// computing over them concurrently. Every observation is validated after
// the threads join: each pinned generation must be bit-identical (same
// fingerprint, same group-by answer) to a serial from-scratch build over
// the same prefix of the stream.
TEST(LiveTableStress, ConcurrentIngestAndReadersStayBitIdentical) {
  constexpr size_t kSeedRows = 128;
  constexpr size_t kTotalRows = 3000;
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 40;

  LiveTable live(SensorSchema());
  AppendRows(live, 0, kSeedRows);
  ASSERT_TRUE(live.Publish().ok());

  std::thread writer([&live] {
    for (size_t i = kSeedRows; i < kTotalRows; ++i) {
      Status st = live.Append(StreamRow(i));
      EXPECT_TRUE(st.ok());
      if (i % 211 == 0) {
        EXPECT_TRUE(live.Publish().ok());
        std::this_thread::yield();
      }
    }
    EXPECT_TRUE(live.Publish().ok());
  });

  struct Observation {
    std::shared_ptr<const TableSnapshot> snap;
    Fingerprint fp;
    std::vector<double> values;  // group aggregates, key order
  };
  std::vector<std::map<uint64_t, Observation>> seen(kReaders);

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&live, &seen, r] {
      for (int iter = 0; iter < kReadsPerReader; ++iter) {
        std::shared_ptr<const TableSnapshot> snap = live.snapshot();
        ASSERT_NE(snap, nullptr);
        // Lazy derived state races on purpose: several readers may force
        // the same snapshot's fingerprint concurrently.
        const Fingerprint fp = snap->table.fingerprint();
        auto qr = ExecuteGroupBy(snap->table, PaperQuery());
        ASSERT_TRUE(qr.ok());
        std::vector<double> values;
        for (const AggregateResult& g : qr->results) {
          values.push_back(g.value);
        }
        auto [it, inserted] = seen[r].emplace(
            snap->generation, Observation{snap, fp, values});
        if (!inserted) {
          // Re-reading a generation must re-produce it exactly.
          EXPECT_EQ(it->second.fp, fp);
          EXPECT_EQ(it->second.values, values);
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Serial validation of every pinned generation.
  for (const auto& per_reader : seen) {
    for (const auto& [generation, obs] : per_reader) {
      EXPECT_EQ(obs.snap->generation, generation);
      const Table scratch = ScratchTable(obs.snap->table.num_rows());
      EXPECT_EQ(scratch.fingerprint(), obs.fp)
          << "generation " << generation << " is not the stream prefix";
      auto qr = ExecuteGroupBy(scratch, PaperQuery());
      ASSERT_TRUE(qr.ok());
      std::vector<double> values;
      for (const AggregateResult& g : qr->results) values.push_back(g.value);
      EXPECT_EQ(obs.values, values)
          << "generation " << generation << " answered differently";
    }
  }
}

// Same shape one layer up: Refresh() racing Explain() on a LiveDataset.
// Correctness of each individual answer is covered above (every explain
// runs over some pinned generation); here the point is that the machinery
// — session re-keying, delta seeds, counter sinks — survives the race, and
// that the final state still answers bit-identically to a cold open.
TEST(LiveDatasetStress, RefreshRacingExplains) {
  constexpr size_t kSeedRows = 256;
  constexpr size_t kTotalRows = 1500;
  constexpr int kReaders = 4;
  constexpr int kExplainsPerReader = 8;

  LiveTable live(SensorSchema());
  AppendRows(live, 0, kSeedRows);

  ServiceStats stats;
  Engine engine;
  auto ld = engine.OpenLive(live, PaperQuery(), &stats);
  ASSERT_TRUE(ld.ok());
  const LiveDataset& dataset = *ld;

  std::thread writer([&live, &ld] {
    for (size_t i = kSeedRows; i < kTotalRows; ++i) {
      Status st = live.Append(StreamRow(i));
      EXPECT_TRUE(st.ok());
      if (i % 173 == 0) {
        EXPECT_TRUE(ld->Refresh().ok());
        std::this_thread::yield();
      }
    }
    EXPECT_TRUE(ld->Refresh().ok());
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&dataset] {
      for (int iter = 0; iter < kExplainsPerReader; ++iter) {
        auto response = dataset.Explain(StreamRequest());
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        EXPECT_FALSE(response->predicates.empty());
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Quiesced: the final generation answers exactly like a cold open.
  auto final_response = dataset.Explain(StreamRequest());
  ASSERT_TRUE(final_response.ok());
  auto snap = dataset.snapshot();
  EXPECT_EQ(snap->table.num_rows(), kTotalRows);
  Engine cold_engine;
  auto cold_ds = cold_engine.Open(snap->table, PaperQuery());
  ASSERT_TRUE(cold_ds.ok());
  auto cold = cold_ds->Explain(StreamRequest());
  ASSERT_TRUE(cold.ok());
  ExpectSameAnswer(*final_response, *cold);

  const ServiceStatsSnapshot s = stats.Snapshot(0);
  EXPECT_GT(s.snapshot_generations_published, 0u);
}

}  // namespace
}  // namespace scorpion
