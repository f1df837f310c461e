// Golden trajectories for Merger::Run: on seeded SYNTH DT partitions and one
// EXPENSE MC run, the ranked predicates, the bit patterns of their
// influences and the Merger's work counters must match values recorded from
// the clause-walking Merger. Any change to the estimate, the grow scan, the
// accept loop or the dedupe that moves a single bit or a single exact score
// fails here. The per-run score memo must only move work: exact and
// estimated scores plus their memo reuses still equal the recorded
// clause-walking counts, and the kernel work left after the memo is
// recorded in two more columns, so a change that loses memo hits fails too.
//
// On a mismatch the test prints the actual record in the initializer format
// below, so an intended behaviour change can be re-recorded by pasting it.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "core/dt.h"
#include "common/thread_pool.h"
#include "core/mc.h"
#include "core/merger.h"
#include "eval/experiment.h"
#include "query/groupby.h"
#include "workload/expense.h"
#include "workload/sensor.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

struct Golden {
  const char* name;
  size_t num_ranked;
  // FNV-1a over every (ToString, influence bits) pair, in rank order.
  uint64_t digest;
  const char* top;
  uint64_t top_bits;
  // Memo-free counts: MergerStats exact_scores + exact_score_reuses and
  // estimated_scores + estimate_reuses.
  uint64_t exact_scores;
  uint64_t estimated_scores;
  uint64_t merges_accepted;
  // Kernel work actually run: MergerStats exact_scores and
  // estimated_scores.
  uint64_t scorer_calls;
  uint64_t estimates_run;
};

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void Mix(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

Golden Record(const char* name, const std::vector<ScoredPredicate>& ranked,
              const MergerStats& stats) {
  Golden g{};
  g.name = name;
  g.num_ranked = ranked.size();
  g.digest = 14695981039346656037ull;
  for (const ScoredPredicate& sp : ranked) {
    const std::string s = sp.pred.ToString();
    const uint64_t bits = Bits(sp.influence);
    Mix(&g.digest, s.data(), s.size());
    Mix(&g.digest, &bits, sizeof(bits));
  }
  g.top = "";
  g.top_bits = ranked.empty() ? 0 : Bits(ranked.front().influence);
  g.exact_scores = stats.exact_scores.load() + stats.exact_score_reuses.load();
  g.estimated_scores =
      stats.estimated_scores.load() + stats.estimate_reuses.load();
  g.merges_accepted = stats.merges_accepted.load();
  g.scorer_calls = stats.exact_scores.load();
  g.estimates_run = stats.estimated_scores.load();
  return g;
}

void ExpectGolden(const Golden& want, const Golden& got,
                  const std::string& got_top) {
  const bool same = want.num_ranked == got.num_ranked &&
                    want.digest == got.digest && got_top == want.top &&
                    want.top_bits == got.top_bits &&
                    want.exact_scores == got.exact_scores &&
                    want.estimated_scores == got.estimated_scores &&
                    want.merges_accepted == got.merges_accepted &&
                    want.scorer_calls == got.scorer_calls &&
                    want.estimates_run == got.estimates_run;
  EXPECT_TRUE(same) << "actual record:\n"
                    << "    {\"" << got.name << "\", " << got.num_ranked
                    << ", 0x" << std::hex << got.digest << "ull,\n     \""
                    << got_top << "\", 0x" << got.top_bits << "ull, "
                    << std::dec << got.exact_scores << ", "
                    << got.estimated_scores << ", " << got.merges_accepted
                    << ", " << got.scorer_calls << ", " << got.estimates_run
                    << "},";
}

// SYNTH-{2,3,4}D-{Easy,Hard}, DT partitions merged at two c values.
const Golden kSynthGolden[] = {
    {"synth2d_easy_c1", 127, 0xd87b7ca61727f3edull,
     "A2 in [0.193769, 99.9515]",
     0x407463317b043d1eull, 212, 1399, 81, 153, 328},
    {"synth2d_easy_c5", 132, 0xa7ceab5c142ffb07ull,
     "A1 in [41.9096, 90.2636) & A2 in [47.8738, 83.8569)",
     0x405692abd8e83994ull, 1004, 3392, 125, 198, 392},
    {"synth2d_hard_c1", 248, 0xe2ae4eb6e0af336dull,
     "A1 in [20.491, 90.2636) & A2 in [0.193769, 99.9515]",
     0x4055533b42c387d4ull, 1689, 5481, 202, 746, 1203},
    {"synth2d_hard_c5", 255, 0xd41b75a7c1e36b7aull,
     "A1 in [50.9218, 90.2636) & A2 in [69.6948, 80.4755)",
     0x4031c847fe24e848ull, 2500, 5961, 154, 810, 1130},
    {"synth3d_easy_c1", 104, 0x1d05cf608e344605ull,
     "A1 in [0.128995, 99.9943] & A3 in [0.0270281, 74.4227)",
     0x4072c01d77a60cc8ull, 218, 1520, 46, 118, 316},
    {"synth3d_easy_c5", 109, 0xfff6df42752cca64ull,
     "A1 in [46.2788, 99.9943] & A2 in [35.236, 90.494) & "
     "A3 in [18.5575, 74.4227)",
     0x40538c778d4c3864ull, 896, 2304, 55, 176, 456},
    {"synth3d_hard_c1", 231, 0x6fab1cb18eaf76a1ull,
     "A1 in [40.1668, 99.9943] & A3 in [18.5575, 99.9778]",
     0x40556d909ef4d78eull, 2178, 5982, 140, 492, 1133},
    {"synth3d_hard_c5", 241, 0xa67c5b5b04a87059ull,
     "A1 in [31.9071, 89.1056) & A2 in [28.0889, 81.204) & "
     "A3 in [18.5575, 74.4227)",
     0x403616581085f953ull, 4009, 7393, 132, 998, 1630},
    {"synth4d_easy_c1", 95, 0x1d86a845728ff029ull,
     "A3 in [0.213874, 78.0194)",
     0x4077967278445c16ull, 248, 1158, 54, 107, 254},
    {"synth4d_easy_c5", 97, 0x652a59b85e785685ull,
     "A1 in [22.9012, 99.9349] & A2 in [20.5995, 85.0896) & "
     "A3 in [0.213874, 75.9104)",
     0x40557590e28cade7ull, 655, 2285, 81, 140, 324},
    {"synth4d_hard_c1", 145, 0x942e1d32d58b6690ull,
     "A1 in [10.5051, 99.9349] & A4 in [25.0214, 99.8075]",
     0x405a0d73ea5dc4c0ull, 790, 3165, 71, 170, 454},
    {"synth4d_hard_c5", 149, 0x72aac651b85cf1f8ull,
     "A1 in [10.5051, 94.1066) & A3 in [0.213874, 78.0194) & "
     "A4 in [0.165522, 67.3589)",
     0x4035ac52e846803eull, 1541, 3607, 70, 246, 545},
};

// SENSOR (dying mote), DT over a categorical and three continuous
// attributes, so estimates mix set and range clauses.
const Golden kSensorGolden = {"sensor_dt", 52, 0x50a4589247f4e872ull,
    "sensorid in {5, 20} & voltage in [2.30719, 2.61484)",
    0x400bdca9d6ed9e6dull, 191, 238, 11, 88, 73};

// EXPENSE, MC over (org_type, disb_desc).
const Golden kExpenseGolden = {"expense_mc", 114, 0xa6a3b9657ba65eeeull,
    "disb_desc in {10, 12} & org_type in {0}",
    0x4148ef160cfbf698ull, 6556, 0, 68, 2565, 0};

struct SynthCase {
  int dims;
  bool easy;
  double c;
};

std::string CaseName(const SynthCase& sc) {
  return "synth" + std::to_string(sc.dims) + "d_" +
         (sc.easy ? "easy" : "hard") + "_c" +
         std::to_string(static_cast<int>(sc.c * 10));
}

// Runs DT then the Merger on one SYNTH case. `pool` and `batching` vary
// only how exact scores are computed, never what they are.
Golden RunSynthCase(const SynthCase& sc, ThreadPool* pool, bool batching,
                    std::string* top) {
  SynthOptions opts = SynthPreset(sc.dims, sc.easy, /*seed=*/1000 + sc.dims);
  opts.tuples_per_group = 100;
  SynthDataset data = GenerateSynth(opts).ValueOrDie();
  QueryResult qr = ExecuteGroupBy(data.table, data.query).ValueOrDie();
  ProblemSpec problem = MakeProblem(qr, data.outlier_keys, data.holdout_keys,
                                    1.0, 0.5, sc.c, data.attributes)
                            .ValueOrDie();
  Scorer scorer = Scorer::Make(data.table, qr, problem).ValueOrDie();
  scorer.set_thread_pool(pool);
  scorer.set_enable_candidate_batching(batching);
  DTPartitioner dt(scorer, DTOptions{});
  std::vector<ScoredPredicate> partitions = dt.Run().ValueOrDie();
  DomainMap domains =
      ComputeDomains(data.table, problem.attributes).ValueOrDie();
  Merger merger(scorer, domains, MergerOptions{});
  std::vector<ScoredPredicate> ranked =
      merger.Run(std::move(partitions)).ValueOrDie();
  *top = ranked.empty() ? "" : ranked.front().pred.ToString();
  return Record(CaseName(sc).c_str(), ranked, merger.stats());
}

TEST(MergerGolden, SynthDTTrajectoriesUnchanged) {
  const SynthCase cases[] = {{2, true, 0.1}, {2, true, 0.5}, {2, false, 0.1},
                             {2, false, 0.5}, {3, true, 0.1}, {3, true, 0.5},
                             {3, false, 0.1}, {3, false, 0.5}, {4, true, 0.1},
                             {4, true, 0.5}, {4, false, 0.1}, {4, false, 0.5}};
  ASSERT_EQ(std::size(kSynthGolden), std::size(cases));
  ThreadPool pool(3);
  for (size_t i = 0; i < std::size(cases); ++i) {
    const std::string name = CaseName(cases[i]);
    SCOPED_TRACE(name);
    std::string top;
    Golden got = RunSynthCase(cases[i], nullptr, /*batching=*/true, &top);
    got.name = name.c_str();
    ExpectGolden(kSynthGolden[i], got, top);
    // Vacuity guard: seeds of these cases converge on shared merged
    // boxes, so the memo serves both kinds of score.
    EXPECT_LT(got.scorer_calls, got.exact_scores);
    EXPECT_LT(got.estimates_run, got.estimated_scores);
    // The parallel estimate pass and one-candidate accept chunks (candidate
    // batching off) reach the same trajectory. Only the exact-score counts
    // differ: a batched chunk also scores candidates past the accepted
    // merge, which also changes which later boxes the memo already holds.
    got = RunSynthCase(cases[i], &pool, /*batching=*/false, &top);
    got.name = name.c_str();
    EXPECT_LE(got.exact_scores, kSynthGolden[i].exact_scores);
    EXPECT_LE(got.scorer_calls, got.exact_scores);
    got.exact_scores = kSynthGolden[i].exact_scores;
    got.scorer_calls = kSynthGolden[i].scorer_calls;
    ExpectGolden(kSynthGolden[i], got, top);
  }
}

TEST(MergerGolden, SensorDTTrajectoryUnchanged) {
  SensorOptions opts;
  opts.num_sensors = 30;
  opts.num_hours = 12;
  opts.readings_per_sensor_per_hour = 10;
  opts.failing_sensor = 5;
  opts.failure_start_hour = 6;
  opts.seed = 23;
  SensorDataset data = GenerateSensor(opts).ValueOrDie();
  QueryResult qr = ExecuteGroupBy(data.table, data.query).ValueOrDie();
  ProblemSpec problem = MakeProblem(qr, data.outlier_keys, data.holdout_keys,
                                    1.0, 0.5, 0.3, data.attributes)
                            .ValueOrDie();
  Scorer scorer = Scorer::Make(data.table, qr, problem).ValueOrDie();
  // Tight variance thresholds so DT cuts the table into many mixed
  // set/range leaves.
  DTOptions dt_opts;
  dt_opts.tau_min = 0.001;
  dt_opts.tau_max = 0.01;
  dt_opts.min_partition_size = 8;
  DTPartitioner dt(scorer, dt_opts);
  std::vector<ScoredPredicate> partitions = dt.Run().ValueOrDie();
  DomainMap domains =
      ComputeDomains(data.table, problem.attributes).ValueOrDie();
  Merger merger(scorer, domains, MergerOptions{});
  std::vector<ScoredPredicate> ranked =
      merger.Run(std::move(partitions)).ValueOrDie();
  Golden got = Record("sensor_dt", ranked, merger.stats());
  ExpectGolden(kSensorGolden, got,
               ranked.empty() ? "" : ranked.front().pred.ToString());
}

TEST(MergerGolden, ExpenseMCTrajectoryUnchanged) {
  ExpenseOptions opts;
  opts.num_days = 30;
  opts.rows_per_day = 12;
  opts.num_recipients = 60;
  opts.num_zip_codes = 20;
  opts.num_outlier_days = 4;
  opts.media_buys_per_outlier_day = 4;
  opts.seed = 17;
  ExpenseDataset data = GenerateExpense(opts).ValueOrDie();
  QueryResult qr = ExecuteGroupBy(data.table, data.query).ValueOrDie();
  ProblemSpec problem = MakeProblem(qr, data.outlier_keys, data.holdout_keys,
                                    1.0, 0.8, 0.5, {"org_type", "disb_desc"})
                            .ValueOrDie();
  Scorer scorer = Scorer::Make(data.table, qr, problem).ValueOrDie();
  MCPartitioner mc(scorer, MCOptions{}, MergerOptions{});
  std::vector<ScoredPredicate> ranked = mc.Run().ValueOrDie();
  Golden got = Record("expense_mc", ranked, mc.merger_stats());
  ExpectGolden(kExpenseGolden, got,
               ranked.empty() ? "" : ranked.front().pred.ToString());
}

}  // namespace
}  // namespace scorpion
