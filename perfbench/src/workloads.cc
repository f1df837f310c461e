#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "api/dataset.h"
#include "checks.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/timer.h"
#include "query/groupby.h"
#include "replay.h"
#include "service/stats.h"
#include "storage/live_table.h"
#include "trace.h"
#include "workload/expense.h"
#include "workload/sensor.h"
#include "workload/synth.h"

namespace perfbench {

using namespace scorpion;

namespace {

// --- Sizing -----------------------------------------------------------------
//
// Each workload runs whole passes ("cycles") over its inputs until the run's
// seconds are used up, so every run sees the same mix of table sizes and c
// values whatever its speed. Every cycle repeats the same requests, and a
// latency metric is a percentile over the requests of each one's best time
// in the run (see Recorder::cold_best). A cycle holds enough requests for a
// tail percentile with ten samples beyond it, and every workload fits
// several cycles in a run.

/// SYNTH catalog per cycle: (dims, easy, instances).
struct SynthConfig {
  int dims;
  bool easy;
  int count;
};
constexpr SynthConfig kSynthCatalog[] = {{2, true, 10}, {2, false, 10},
                                         {3, true, 10}, {3, false, 10},
                                         {4, true, 5},  {4, false, 5}};
constexpr int kSynthTuplesPerGroup = 60;
constexpr int kSynthWarmPerInstance = 2;

/// INTEL-shaped trace: hours x sensors x readings (69k rows), streamed
/// reading-major in kSensorBatches batches, so a batch holds one reading of
/// every (hour, sensor). At 61 sensors (140k rows) one stream took a whole
/// run; at 30 a run repeats it several times.
constexpr int kSensorHours = 48;
constexpr int kSensorMotes = 30;
constexpr int kSensorReadings = 48;
constexpr int kSensorBatches = 48;
constexpr double kSensorCs[] = {0.5, 0.35, 0.2, 0.1};  // one async burst

/// EXPENSE: ledgers per cycle, annotation sets per ledger, explains per set.
constexpr int kExpenseLedgers = 5;
constexpr int kExpenseSetsPerLedger = 8;
constexpr int kExpenseWarmPerSet = 2;
/// Each annotation set lets predicates use two of the ledger's categorical
/// attributes (Section 6.4's user-chosen subset), one of them the
/// five-valued org_type. With every attribute, MC under the default merger
/// caps takes 3-12 s per explain at any ledger size; with two 16-valued
/// attributes about 0.2 s, so a run holds one pass over the sets. Pairs
/// with org_type take about 20 ms, so a run repeats the pass several times
/// and each request's latency is its best over the passes.
const std::vector<std::string> kExpenseAttributes[] = {
    {"org_type", "disb_desc"}, {"org_type", "file_num"}};

/// Seed of the fixed SYNTH and EXPENSE catalogs (see RunSynth).
constexpr uint64_t kCatalogSeed = 20130826;

/// Batches a table is loaded in through LiveTable::Append at set-up.
constexpr int kLoadBatches = 4;
/// Rows per schema the static workloads reload to measure that path (see
/// ReloadTables), and the batches they reload them in: each reload is a
/// round of refreshes enough for a tail percentile (see EndLoads).
constexpr size_t kReloadRows = 65536;
constexpr int kReloadBatches = 48;
/// Set-up runs kSetupRepeats times before the measured loop and once more
/// at each of kSetupTicks even intervals of it; setup_s is the median of
/// all of them. Set-up takes milliseconds, so back-to-back repeats all land
/// in the same burst of load on a shared host; spread over the run, they
/// do not.
constexpr int kSetupRepeats = 3;
constexpr int kSetupTicks = 16;

// --- Measurement helpers ----------------------------------------------------

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

/// The highest of the usual percentiles that has at least ten samples
/// beyond it in a cycle of `n` samples (50 when none does). Fixed per
/// workload by its cycle size, so a faster build that fits more cycles in
/// a run reports the same percentile.
double TailPercentile(size_t n) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double RoundC(double c) { return std::round(c * 100.0) / 100.0; }

/// A cold c in [0.3, 0.7] and `warm` further distinct values in [0, 1]:
/// each warm explain of the sweep is a new c, never a result-cache hit.
std::vector<double> SliderCs(uint64_t seed, int warm) {
  Rng rng(seed);
  std::vector<double> cs = {RoundC(rng.Uniform(0.3, 0.7))};
  while (static_cast<int>(cs.size()) < 1 + warm) {
    const double c = RoundC(rng.Uniform(0.0, 1.0));
    if (std::find(cs.begin(), cs.end(), c) == cs.end()) cs.push_back(c);
  }
  return cs;
}

/// Folds one cycle's latencies into the best (lowest) seen so far at each
/// position of the cycle, and empties `cycle`.
void FoldBest(std::vector<double>* cycle, std::vector<double>* best) {
  for (size_t i = 0; i < cycle->size(); ++i) {
    if (i < best->size()) {
      (*best)[i] = std::min((*best)[i], (*cycle)[i]);
    } else {
      best->push_back((*cycle)[i]);
    }
  }
  cycle->clear();
}

/// Everything one run measures.
struct Recorder {
  std::vector<double> setup_s;
  /// Explain latencies of the current cycle, in request order.
  std::vector<double> cold_s, warm_s;
  /// Per request of a cycle, its lowest latency over the run's cycles. A
  /// cycle repeats the same requests, so each request's best time drops
  /// the bursts of load a shared host adds to some cycles and not others.
  std::vector<double> cold_best, warm_best;
  /// Wall time of each unit of explain work of the current cycle (a sync
  /// explain, or a whole async burst), and each unit's best over the run:
  /// explains_per_s is a cycle's explains over the sum of those bests.
  std::vector<double> busy_s, busy_best;
  /// Refresh latencies and appends of the current round of loads (a sensor
  /// cycle, or one reload of the static workloads' tables), folded like
  /// the explain latencies by EndLoads.
  std::vector<double> refresh_s, refresh_best;
  double append_s = 0.0;
  uint64_t rows_appended = 0;
  /// Appended rows per second of Append time, per round of loads.
  std::vector<double> ingest_rates;
  uint64_t explains = 0;
  double f_sum = 0.0;
  uint64_t f_count = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Samples per cycle (refreshes: per round of loads), which fix each tail
  /// percentile.
  size_t cold_per_cycle = 0, warm_per_cycle = 0, refresh_per_cycle = 0;
  /// Peak resident memory after set-up and the first cycle; later cycles
  /// repeat the same work, so a faster build that fits more of them in a
  /// run reports the same figure.
  double peak_rss_mb = 0.0;

  /// Re-runs set-up during the untraced loop (see kSetupTicks); set by
  /// RunCycles for its duration.
  std::function<Status()> tick;
  WallTimer loop;
  double tick_every_s = 0.0;
  double next_tick_s = 0.0;

  // Traced run only.
  double api_wall_s = 0.0;
  double replay_wall_s = 0.0;
  double queue_wait_s = 0.0;
  uint64_t partition_hits = 0;
  uint64_t result_hits = 0;

  void Fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }

  /// Runs `tick` once the loop has passed the next tick mark, or always
  /// when `last`.
  Status Tick(bool last = false) {
    if (!tick || (!last && loop.ElapsedSeconds() < next_tick_s)) {
      return Status::OK();
    }
    next_tick_s += tick_every_s;
    return tick();
  }

  void EndCycle() {
    FoldBest(&cold_s, &cold_best);
    FoldBest(&warm_s, &warm_best);
    FoldBest(&busy_s, &busy_best);
    EndLoads();
  }

  /// Closes a round of loads; a no-op when it loaded nothing.
  void EndLoads() {
    FoldBest(&refresh_s, &refresh_best);
    if (append_s > 0.0) {
      ingest_rates.push_back(static_cast<double>(rows_appended) / append_s);
    }
    append_s = 0.0;
    rows_appended = 0;
  }
};

/// Runs `set_up`, adds its time to setup_s and returns its result.
template <typename SetUpFn>
auto TimeSetUp(Recorder* rec, SetUpFn set_up) -> decltype(set_up()) {
  WallTimer timer;
  auto built = set_up();
  rec->setup_s.push_back(timer.ElapsedSeconds());
  return built;
}

/// Set-up runs before the loop: once when tracing or in smoke mode.
int SetupRepeats(const RunOptions& options) {
  return options.trace || options.smoke ? 1 : kSetupRepeats;
}

/// Appends rows [begin, end) of a stream over `source` to `live`, timing
/// only the Append calls. Stream row r is source row `order[r]` (r itself
/// when `order` is empty), with column c rounded to `decimals[c]` places
/// (as generated when `decimals` is empty or the entry is -1).
Status AppendRows(LiveTable& live, const Table& source,
                  const std::vector<RowId>& order,
                  const std::vector<int>& decimals, size_t begin, size_t end,
                  Recorder* rec, Tracer* tracer) {
  std::vector<std::vector<Value>> rows(end - begin);
  for (size_t r = begin; r < end; ++r) {
    const RowId row = order.empty() ? static_cast<RowId>(r) : order[r];
    rows[r - begin].reserve(source.num_columns());
    for (int c = 0; c < source.num_columns(); ++c) {
      SCORPION_ASSIGN_OR_RETURN(Value v, source.GetValue(row, c));
      if (!decimals.empty() && decimals[c] >= 0) {
        const double scale = std::pow(10.0, decimals[c]);
        v = std::round(std::get<double>(v) * scale) / scale;
      }
      rows[r - begin].push_back(std::move(v));
    }
  }
  std::optional<Tracer::Span> span;
  if (tracer != nullptr) span.emplace(*tracer, "storage.append");
  WallTimer timer;
  for (const std::vector<Value>& row : rows) {
    SCORPION_RETURN_NOT_OK(live.Append(row));
  }
  rec->append_s += timer.ElapsedSeconds();
  rec->rows_appended += rows.size();
  return Status::OK();
}

/// Replays the group-by an Open/OpenLive just ran and checks it agrees.
Status ReplayGroupBy(Tracer* tracer, const Table& table,
                     const QueryResult& opened) {
  if (tracer == nullptr) return Status::OK();
  Result<QueryResult> replayed = [&] {
    Tracer::Span span(*tracer, "query.groupby");
    return ExecuteGroupBy(table, opened.query);
  }();
  SCORPION_RETURN_NOT_OK(replayed.status());
  if (replayed->results.size() != opened.results.size()) {
    return Status::Internal("group-by replay differs");
  }
  return Status::OK();
}

/// Advances `dataset` by one generation. Traced, the publish is split out
/// first (Refresh still advances: it compares generations) and the
/// query-result extension is replayed afterwards.
Status RefreshLive(LiveTable& live, LiveDataset& dataset, Recorder* rec,
                   Tracer* tracer) {
  std::shared_ptr<const QueryResult> before = dataset.result();
  if (tracer != nullptr) {
    Tracer::Span span(*tracer, "storage.publish");
    SCORPION_RETURN_NOT_OK(live.Publish().status());
  }
  WallTimer timer;
  SCORPION_RETURN_NOT_OK(dataset.Refresh().status());
  rec->refresh_s.push_back(timer.ElapsedSeconds());
  if (tracer == nullptr) return Status::OK();
  std::shared_ptr<const TableSnapshot> snap = dataset.snapshot();
  Result<QueryResult> extended = [&] {
    Tracer::Span span(*tracer, "query.extend");
    return ExtendQueryResult(*before, snap->table);
  }();
  SCORPION_RETURN_NOT_OK(extended.status());
  const QueryResult& served = *dataset.result();
  if (extended->results.size() != served.results.size()) {
    return Status::Internal("query-result extension replay differs");
  }
  for (size_t i = 0; i < served.results.size(); ++i) {
    if (extended->results[i].value != served.results[i].value) {
      return Status::Internal("query-result extension replay differs");
    }
  }
  return Status::OK();
}

/// Loads a static table the way data reaches a live engine: `batches`
/// batches of LiveTable::Append, OpenLive after the first and Refresh after
/// each later one. Returns the final generation, which the static
/// workloads then open as a plain Dataset.
Result<std::shared_ptr<const TableSnapshot>> LoadTable(
    Engine& engine, const Table& source, const GroupByQuery& query,
    int batches, Recorder* rec, Tracer* tracer) {
  LiveTable live(source.schema());
  std::optional<LiveDataset> dataset;
  const size_t n = source.num_rows();
  for (int b = 0; b < batches; ++b) {
    SCORPION_RETURN_NOT_OK(AppendRows(live, source, {}, {}, n * b / batches,
                                      n * (b + 1) / batches, rec, tracer));
    if (b == 0) {
      SCORPION_ASSIGN_OR_RETURN(LiveDataset opened,
                                engine.OpenLive(live, query));
      dataset.emplace(std::move(opened));
      SCORPION_RETURN_NOT_OK(
          ReplayGroupBy(tracer, dataset->snapshot()->table, *dataset->result()));
    } else {
      SCORPION_RETURN_NOT_OK(RefreshLive(live, *dataset, rec, tracer));
    }
  }
  return dataset->snapshot();
}

/// How the engine served one explain, as the session cache reports it.
enum class Served { kCold, kWarm };

/// Checks one response (and, when tracing, replays it) outside the timed
/// call. `api_wall_s` is the engine-side time the replay should account
/// for; `with_what_if_wall` says whether that time includes the what-if
/// view (sync) or not (async, where Get builds it).
Status VerifyResponse(const Table& table, const QueryResult& result,
                      const ExplainRequest& request,
                      const ExplainResponse& response, Served served,
                      const std::vector<const RowIdList*>& truths,
                      ReplaySession* replay, double api_wall_s,
                      bool with_what_if_wall, uint64_t request_id,
                      Recorder* rec, Tracer* tracer) {
  SCORPION_ASSIGN_OR_RETURN(ProblemSpec problem, request.Resolve(result));
  if (response.stats.cache_result_hit) {
    return Status::Internal("a slider explain was a same-c result-cache hit");
  }
  if (request.algorithm() == Algorithm::kDT &&
      response.stats.cache_partitions_hit != (served == Served::kWarm)) {
    return Status::Internal("explain was not served as cold/warm as planned");
  }
  SCORPION_RETURN_NOT_OK(CheckResponse(table, result, problem, response));
  double best_f = 0.0;
  for (const RowIdList* truth : truths) {
    SCORPION_ASSIGN_OR_RETURN(
        double f, FScore(table, result, problem, response.best().pred, *truth));
    best_f = std::max(best_f, f);
  }
  rec->f_sum += best_f;
  ++rec->f_count;
  if (tracer == nullptr) return Status::OK();

  tracer->SetRequest(request_id);
  rec->partition_hits += response.stats.cache_partitions_hit ? 1 : 0;
  rec->result_hits += response.stats.cache_result_hit ? 1 : 0;
  WallTimer replay_timer;
  SCORPION_ASSIGN_OR_RETURN(
      std::vector<ScoredPredicate> ranked,
      ReplaySearch(*tracer, table, result, problem, request.algorithm(),
                   replay));
  if (!SameRanking(response.predicates, ranked)) {
    return Status::Internal("traced replay's ranked list differs");
  }
  if (!with_what_if_wall) rec->replay_wall_s += replay_timer.ElapsedSeconds();
  SCORPION_RETURN_NOT_OK(
      ReplayWhatIf(*tracer, table, result, problem, response));
  if (with_what_if_wall) rec->replay_wall_s += replay_timer.ElapsedSeconds();
  rec->api_wall_s += api_wall_s;
  SCORPION_RETURN_NOT_OK(ReplayWire(*tracer, request, response));
  tracer->SetRequest(0);
  return Status::OK();
}

/// One synchronous, timed explain followed by its checks.
void SyncExplain(const Dataset& dataset, const ExplainRequest& request,
                 Served served, const std::vector<const RowIdList*>& truths,
                 ReplaySession* replay, Recorder* rec, Tracer* tracer) {
  ++rec->attempted;
  WallTimer timer;
  Result<ExplainResponse> response = dataset.Explain(request);
  const double wall = timer.ElapsedSeconds();
  if (!response.ok()) {
    rec->Fail("explain: " + response.status().ToString());
    return;
  }
  ++rec->explains;
  (served == Served::kCold ? rec->cold_s : rec->warm_s).push_back(wall);
  rec->busy_s.push_back(wall);
  Status checked =
      VerifyResponse(dataset.table(), dataset.result(), request, *response,
                     served, truths, replay, wall, /*with_what_if_wall=*/true,
                     rec->attempted, rec, tracer);
  if (!checked.ok()) rec->Fail(checked.ToString());
}

/// Runs cycles until `seconds` are used (one cycle when tracing or in
/// smoke mode). Untraced, `tick` re-runs set-up at each of kSetupTicks
/// marks (the cycles call Recorder::Tick between requests) and once after
/// the last cycle, so even a loop shorter than a tick interval re-runs it.
template <typename CycleFn>
Status RunCycles(const RunOptions& options, Recorder* rec,
                 std::function<Status()> tick, CycleFn cycle) {
  if (!options.trace) rec->tick = std::move(tick);
  rec->loop.Restart();
  rec->tick_every_s = rec->next_tick_s = options.seconds / kSetupTicks;
  int n = 0;
  do {
    SCORPION_RETURN_NOT_OK(cycle(n));
    rec->EndCycle();
    if (n++ == 0) rec->peak_rss_mb = PeakRssMb();
  } while (!options.trace && !options.smoke &&
           rec->loop.ElapsedSeconds() < options.seconds);
  Status last = rec->Tick(/*last=*/true);
  rec->tick = nullptr;
  return last;
}

/// A table the static workloads reload through LiveTable (see LoadTable)
/// to measure refresh and ingest.
struct ReloadTable {
  Table table;
  GroupByQuery query;
};

/// One table of a few hundred rows loads in tens of microseconds, and at
/// that scale its time moved by a third from run to run. So the workload's
/// tables are concatenated per schema and repeated to at least `min_rows`
/// rows; reloaded in kReloadBatches batches, each Refresh then takes a few
/// hundred microseconds.
template <typename Data>
Result<std::vector<ReloadTable>> ReloadTables(
    const std::vector<const Data*>& tables, size_t min_rows) {
  std::map<int, std::vector<std::vector<Value>>> rows;  // by column count
  std::map<int, const Data*> schema_of;
  for (const Data* data : tables) {
    const Table& table = data->table;
    schema_of.try_emplace(table.num_columns(), data);
    std::vector<std::vector<Value>>& out = rows[table.num_columns()];
    for (size_t r = 0; r < table.num_rows(); ++r) {
      std::vector<Value> row;
      for (int c = 0; c < table.num_columns(); ++c) {
        SCORPION_ASSIGN_OR_RETURN(Value v,
                                  table.GetValue(static_cast<RowId>(r), c));
        row.push_back(std::move(v));
      }
      out.push_back(std::move(row));
    }
  }
  std::vector<ReloadTable> reloads;
  for (const auto& [columns, schema_rows] : rows) {
    const Data* data = schema_of[columns];
    ReloadTable reload{Table(data->table.schema()), data->query};
    do {
      for (const std::vector<Value>& row : schema_rows) {
        SCORPION_RETURN_NOT_OK(reload.table.AppendRow(row));
      }
    } while (reload.table.num_rows() < min_rows);
    reloads.push_back(std::move(reload));
  }
  return reloads;
}

/// The static workloads' tick: set-up once more, then a reload of every
/// ReloadTable, whose refreshes and appends give refresh_* and
/// ingest_rows_per_s.
template <typename SetUpFn>
std::function<Status()> StaticTick(Engine& engine,
                                   const std::vector<ReloadTable>& reloads,
                                   Recorder* rec, SetUpFn set_up) {
  return [&engine, &reloads, rec, set_up]() -> Status {
    SCORPION_RETURN_NOT_OK(TimeSetUp(rec, set_up).status());
    for (const ReloadTable& reload : reloads) {
      SCORPION_RETURN_NOT_OK(
          LoadTable(engine, reload.table, reload.query, kReloadBatches, rec,
                    nullptr)
              .status());
    }
    rec->EndLoads();
    return Status::OK();
  };
}

/// Refreshes per reload of every ReloadTable, for their tail percentile.
size_t ReloadRefreshes(const std::vector<ReloadTable>& reloads) {
  return reloads.size() * (kReloadBatches - 1);
}

// --- synth_dt_slider ----------------------------------------------------------

struct SynthInstance {
  SynthDataset data;
  std::shared_ptr<const TableSnapshot> snap;
  std::optional<Dataset> dataset;
  ExplainRequest request;
  std::vector<double> cs;  // cold c first, then the sweep
  ReplaySession replay;
};

/// Set-up: generates every SYNTH instance, loads it through LiveTable and
/// opens the final generation.
Result<std::vector<SynthInstance>> SetUpSynth(const RunOptions& options,
                                              Engine& engine, Tracer* tracer) {
  std::vector<std::pair<int, bool>> shapes;
  for (const SynthConfig& config : kSynthCatalog) {
    const int count = options.smoke ? 1 : config.count;
    for (int i = 0; i < count; ++i) {
      shapes.emplace_back(config.dims, config.easy);
    }
  }
  std::vector<SynthInstance> built(shapes.size());
  Recorder loads;  // loads of a few hundred rows; see ReloadTables
  for (size_t i = 0; i < shapes.size(); ++i) {
    SynthInstance& inst = built[i];
    SynthOptions synth =
        SynthPreset(shapes[i].first, shapes[i].second, Mix(kCatalogSeed, i));
    synth.tuples_per_group = options.smoke ? 30 : kSynthTuplesPerGroup;
    SCORPION_ASSIGN_OR_RETURN(inst.data, GenerateSynth(synth));
    SCORPION_ASSIGN_OR_RETURN(
        inst.snap,
        LoadTable(engine, inst.data.table, inst.data.query, kLoadBatches,
                  &loads, tracer));
    SCORPION_ASSIGN_OR_RETURN(Dataset opened,
                              engine.Open(inst.snap->table, inst.data.query));
    inst.dataset.emplace(std::move(opened));
    SCORPION_RETURN_NOT_OK(
        ReplayGroupBy(tracer, inst.snap->table, inst.dataset->result()));
    for (const std::string& key : inst.data.outlier_keys) {
      inst.request.FlagTooHigh(key);
    }
    inst.request.Holdouts(inst.data.holdout_keys)
        .WithAttributes(inst.data.attributes);
  }
  return built;
}

Status RunSynth(const RunOptions& options, Engine& engine, Recorder* rec,
                Tracer* tracer) {
  // Tables, annotation sets and c values come from a fixed catalog; --seed
  // orders the request stream (instances, and the c values of each sweep).
  // Measured at 1k rows, redrawing a SYNTH table at a fixed cube geometry
  // moves its explain cost by up to 10x and a different c by up to 3x, so
  // seeded tables or c values make the run-to-run spread of every latency
  // metric exceed any bound the benchmark could hold. EXPENSE ledgers
  // behave the same under MC.
  std::vector<SynthInstance> instances;
  for (int repeat = 0; repeat < SetupRepeats(options); ++repeat) {
    SCORPION_ASSIGN_OR_RETURN(instances, TimeSetUp(rec, [&] {
                                return SetUpSynth(options, engine, tracer);
                              }));
  }
  Rng shuffle(options.seed);
  std::vector<size_t> order(instances.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
    instances[i].cs = SliderCs(Mix(kCatalogSeed, i), kSynthWarmPerInstance);
    std::shuffle(instances[i].cs.begin() + 1, instances[i].cs.end(),
                 shuffle.engine());
  }
  std::shuffle(order.begin(), order.end(), shuffle.engine());
  std::vector<const SynthDataset*> tables;
  for (const SynthInstance& inst : instances) tables.push_back(&inst.data);
  SCORPION_ASSIGN_OR_RETURN(
      std::vector<ReloadTable> reloads,
      ReloadTables(tables, options.smoke ? 0 : kReloadRows));
  rec->cold_per_cycle = instances.size();
  rec->warm_per_cycle = instances.size() * kSynthWarmPerInstance;
  rec->refresh_per_cycle = ReloadRefreshes(reloads);

  return RunCycles(
      options, rec,
      StaticTick(engine, reloads, rec,
                 [&] { return SetUpSynth(options, engine, nullptr); }),
      [&](int cycle) -> Status {
        for (size_t i : order) {
          SynthInstance& inst = instances[i];
          if (cycle > 0) {
            inst.dataset->ClearCache();
            inst.replay = ReplaySession{};
          }
          for (size_t k = 0; k < inst.cs.size(); ++k) {
            ExplainRequest request = inst.request;
            request.WithC(inst.cs[k]);
            SyncExplain(*inst.dataset, request,
                        k == 0 ? Served::kCold : Served::kWarm,
                        {&inst.data.outer_rows, &inst.data.inner_rows},
                        &inst.replay, rec, tracer);
          }
          SCORPION_RETURN_NOT_OK(rec->Tick());
        }
        return Status::OK();
      });
}

// --- expense_mc ---------------------------------------------------------------

struct ExpenseLedger {
  ExpenseDataset data;
  std::shared_ptr<const TableSnapshot> snap;
  std::optional<Dataset> dataset;
  std::vector<ExplainRequest> sets;       // one per annotation set
  std::vector<std::vector<double>> cs;    // per set: cold c, then sweep
};

ExpenseOptions ExpenseSizing(bool smoke, uint64_t seed) {
  ExpenseOptions opts;
  opts.num_days = smoke ? 20 : 30;
  opts.rows_per_day = smoke ? 10 : 12;
  opts.num_recipients = smoke ? 20 : 60;
  opts.num_zip_codes = smoke ? 10 : 20;
  opts.num_outlier_days = 4;
  opts.media_buys_per_outlier_day = 4;
  opts.seed = seed;
  return opts;
}

/// Set-up: generates every EXPENSE ledger, loads it through LiveTable,
/// opens the final generation and builds its annotation sets.
Result<std::vector<ExpenseLedger>> SetUpExpense(const RunOptions& options,
                                                Engine& engine,
                                                Tracer* tracer) {
  const int num_ledgers = options.smoke ? 1 : kExpenseLedgers;
  const int num_sets = options.smoke ? 1 : kExpenseSetsPerLedger;
  std::vector<ExpenseLedger> built(num_ledgers);
  Recorder loads;  // loads of a few hundred rows; see ReloadTables
  for (int l = 0; l < num_ledgers; ++l) {
    ExpenseLedger& ledger = built[l];
    SCORPION_ASSIGN_OR_RETURN(
        ledger.data,
        GenerateExpense(ExpenseSizing(options.smoke, Mix(kCatalogSeed, l))));
    SCORPION_ASSIGN_OR_RETURN(
        ledger.snap, LoadTable(engine, ledger.data.table, ledger.data.query,
                               kLoadBatches, &loads, tracer));
    SCORPION_ASSIGN_OR_RETURN(
        Dataset opened, engine.Open(ledger.snap->table, ledger.data.query));
    ledger.dataset.emplace(std::move(opened));
    SCORPION_RETURN_NOT_OK(
        ReplayGroupBy(tracer, ledger.snap->table, ledger.dataset->result()));
    // Annotation set s flags every outlier day but day s mod (days + 1)
    // (none dropped at 0), holds out every other typical day starting at
    // s's parity, and uses attribute pair s / 4: eight distinct sets.
    const std::vector<std::string>& outliers = ledger.data.outlier_keys;
    const std::vector<std::string>& holdouts = ledger.data.holdout_keys;
    for (int s = 0; s < num_sets; ++s) {
      const size_t dropped = s % (outliers.size() + 1);
      ExplainRequest request;
      for (size_t o = 0; o < outliers.size(); ++o) {
        if (o + 1 != dropped) request.FlagTooHigh(outliers[o]);
      }
      for (size_t h = s % 2; h < holdouts.size(); h += 2) {
        request.Holdout(holdouts[h]);
      }
      request.WithAttributes(kExpenseAttributes[(s / 4) % 2])
          .WithAlgorithm(Algorithm::kMC)
          .WithLambda(0.8);
      ledger.sets.push_back(std::move(request));
      ledger.cs.push_back(
          SliderCs(Mix(Mix(kCatalogSeed, l), s + 1), kExpenseWarmPerSet));
    }
  }
  return built;
}

Status RunExpense(const RunOptions& options, Engine& engine, Recorder* rec,
                  Tracer* tracer) {
  std::vector<ExpenseLedger> ledgers;
  for (int repeat = 0; repeat < SetupRepeats(options); ++repeat) {
    SCORPION_ASSIGN_OR_RETURN(ledgers, TimeSetUp(rec, [&] {
                                return SetUpExpense(options, engine, tracer);
                              }));
  }
  std::vector<std::pair<size_t, size_t>> order;  // (ledger, set)
  for (size_t l = 0; l < ledgers.size(); ++l) {
    for (size_t s = 0; s < ledgers[l].sets.size(); ++s) order.emplace_back(l, s);
  }
  Rng shuffle(options.seed);
  std::shuffle(order.begin(), order.end(), shuffle.engine());
  std::vector<const ExpenseDataset*> tables;
  for (const ExpenseLedger& ledger : ledgers) tables.push_back(&ledger.data);
  SCORPION_ASSIGN_OR_RETURN(
      std::vector<ReloadTable> reloads,
      ReloadTables(tables, options.smoke ? 0 : kReloadRows));
  rec->cold_per_cycle = order.size();
  rec->warm_per_cycle = order.size() * kExpenseWarmPerSet;
  rec->refresh_per_cycle = ReloadRefreshes(reloads);

  return RunCycles(
      options, rec,
      StaticTick(engine, reloads, rec,
                 [&] { return SetUpExpense(options, engine, nullptr); }),
      [&](int cycle) -> Status {
        if (cycle > 0) {
          for (ExpenseLedger& ledger : ledgers) ledger.dataset->ClearCache();
        }
        for (const auto& [l, s] : order) {
          ExpenseLedger& ledger = ledgers[l];
          for (size_t k = 0; k < ledger.cs[s].size(); ++k) {
            ExplainRequest request = ledger.sets[s];
            request.WithC(ledger.cs[s][k]);
            ReplaySession unused;
            SyncExplain(*ledger.dataset, request,
                        k == 0 ? Served::kCold : Served::kWarm,
                        {&ledger.data.ground_truth_rows}, &unused, rec,
                        tracer);
          }
          SCORPION_RETURN_NOT_OK(rec->Tick());
        }
        return Status::OK();
      });
}

// --- sensor_live --------------------------------------------------------------

/// The sensor trace in stream order plus everything needed to check it.
struct SensorStream {
  SensorDataset data;
  /// Source row of each streamed row: reading-major, so every batch holds
  /// a reading of every (hour, mote) and each flagged hour is present from
  /// the first generation on.
  std::vector<RowId> order;
  /// Ground-truth rows as streamed row ids, sorted.
  RowIdList truth;
  ExplainRequest request;
  /// Per column, the decimals readings are rounded to when streamed (-1:
  /// as generated). Session delta seeds key match caches by the predicate's
  /// string form, which prints range bounds to 6 significant digits; DT
  /// bounds are data values, so unrounded readings let two bounds that
  /// differ past the 6th digit share one cache, and a refreshed session
  /// then answers differently from a cold open of the same generation.
  std::vector<int> decimals;
};

Result<SensorStream> MakeSensorStream(uint64_t seed, bool smoke) {
  SensorOptions opts;
  opts.num_hours = smoke ? 12 : kSensorHours;
  opts.num_sensors = smoke ? 12 : kSensorMotes;
  opts.readings_per_sensor_per_hour = smoke ? 4 : kSensorReadings;
  // Like the SYNTH and EXPENSE tables, the trace is fixed (mote 11 dies
  // halfway through); --seed orders each burst's c values, so which c is
  // cold after a refresh changes from burst to burst.
  opts.failing_sensor = 11;
  opts.failure_start_hour = opts.num_hours / 2;
  opts.seed = seed;
  SensorStream stream;
  SCORPION_ASSIGN_OR_RETURN(stream.data, GenerateSensor(opts));
  const int readings = opts.readings_per_sensor_per_hour;
  const int cells = opts.num_hours * opts.num_sensors;
  std::vector<RowId> streamed_id(stream.data.table.num_rows());
  for (int k = 0; k < readings; ++k) {
    for (int cell = 0; cell < cells; ++cell) {
      const RowId source = static_cast<RowId>(cell * readings + k);
      streamed_id[source] = static_cast<RowId>(stream.order.size());
      stream.order.push_back(source);
    }
  }
  for (RowId row : stream.data.ground_truth_rows) {
    stream.truth.push_back(streamed_id[row]);
  }
  std::sort(stream.truth.begin(), stream.truth.end());
  const std::map<std::string, int> decimals = {
      {"voltage", 4}, {"humidity", 4}, {"light", 1}};
  for (const Field& field : stream.data.table.schema().fields()) {
    auto it = decimals.find(field.name);
    stream.decimals.push_back(it == decimals.end() ? -1 : it->second);
  }
  for (const std::string& key : stream.data.outlier_keys) {
    stream.request.FlagTooHigh(key);
  }
  stream.request.Holdouts(stream.data.holdout_keys)
      .WithAttributes(stream.data.attributes);
  return stream;
}

/// The stream, the LiveTable it flows into and the dataset opened over it.
struct SensorLive {
  SensorStream stream;
  std::unique_ptr<LiveTable> live;
  std::optional<LiveDataset> dataset;

  /// Appends stream rows [begin, end).
  Status Append(size_t begin, size_t end, Recorder* rec, Tracer* tracer) {
    return AppendRows(*live, stream.data.table, stream.order,
                      stream.decimals, begin, end, rec, tracer);
  }
};

/// Set-up: generates the trace, appends its first batch and opens it live.
Result<std::unique_ptr<SensorLive>> SetUpSensor(Engine& engine, bool smoke,
                                                int batches,
                                                ServiceStats* stats) {
  auto out = std::make_unique<SensorLive>();
  SCORPION_ASSIGN_OR_RETURN(out->stream, MakeSensorStream(kCatalogSeed, smoke));
  out->live = std::make_unique<LiveTable>(out->stream.data.table.schema());
  Recorder unused;
  SCORPION_RETURN_NOT_OK(
      out->Append(0, out->stream.order.size() / batches, &unused, nullptr));
  SCORPION_ASSIGN_OR_RETURN(
      LiveDataset opened,
      engine.OpenLive(*out->live, out->stream.data.query, stats));
  out->dataset.emplace(std::move(opened));
  return out;
}

/// A generation kept for the after-run check against a cold Engine::Open.
struct PinnedGeneration {
  std::shared_ptr<const TableSnapshot> snap;
  std::vector<ExplainRequest> requests;
  std::vector<ExplainResponse> responses;
};

/// Submits one burst (a c cold after the refresh, then the rest) and
/// redeems each request on its own thread, so a request's latency ends
/// when its own answer is ready. At most four load threads, the driver
/// thread included.
void Burst(const LiveDataset& dataset, const SensorStream& stream, Rng* rng,
           ReplaySession* replay, PinnedGeneration* pin, uint64_t* next_id,
           Recorder* rec, Tracer* tracer) {
  constexpr size_t kBurst = std::size(kSensorCs);
  using Clock = std::chrono::steady_clock;
  std::shared_ptr<const TableSnapshot> snap = dataset.snapshot();
  std::shared_ptr<const QueryResult> result = dataset.result();
  std::vector<ExplainRequest> requests;
  std::vector<std::optional<Result<PendingExplanation>>> pending(kBurst);
  std::vector<std::optional<Result<ExplainResponse>>> responses(kBurst);
  std::vector<Clock::time_point> submitted(kBurst);
  std::vector<double> latency(kBurst, 0.0);
  std::vector<double> cs(std::begin(kSensorCs), std::end(kSensorCs));
  std::shuffle(cs.begin(), cs.end(), rng->engine());
  WallTimer burst;
  for (size_t i = 0; i < kBurst; ++i) {
    ExplainRequest request = stream.request;
    request.WithC(cs[i]);
    requests.push_back(request);
    ++rec->attempted;
    submitted[i] = Clock::now();
    pending[i].emplace(dataset.ExplainAsync(request));
  }
  auto redeem = [&](size_t i) {
    if (!pending[i]->ok()) {
      responses[i].emplace(pending[i]->status());
      return;
    }
    responses[i].emplace((*pending[i])->Get());
    latency[i] =
        std::chrono::duration<double>(Clock::now() - submitted[i]).count();
  };
  {
    std::vector<std::thread> waiters;
    for (size_t i = 1; i < kBurst; ++i) waiters.emplace_back(redeem, i);
    redeem(0);
    for (std::thread& waiter : waiters) waiter.join();
  }
  rec->busy_s.push_back(burst.ElapsedSeconds());

  // The replay must see the cold request first: it builds the partitions
  // the warm ones reuse, whichever service worker got there first.
  std::vector<size_t> check_order;
  for (size_t i = 0; i < kBurst; ++i) {
    if (responses[i]->ok() && !(*responses[i])->stats.cache_partitions_hit) {
      check_order.insert(check_order.begin(), i);
    } else {
      check_order.push_back(i);
    }
  }
  size_t cold = 0;
  for (size_t i : check_order) {
    const Result<ExplainResponse>& response = *responses[i];
    if (!response.ok()) {
      rec->Fail("async explain: " + response.status().ToString());
      continue;
    }
    ++rec->explains;
    const Served served = response->stats.cache_partitions_hit
                              ? Served::kWarm
                              : Served::kCold;
    cold += served == Served::kCold ? 1 : 0;
    (served == Served::kCold ? rec->cold_s : rec->warm_s).push_back(latency[i]);
    if (tracer != nullptr) {
      rec->queue_wait_s += latency[i] - response->stats.runtime_seconds;
    }
    Status checked = VerifyResponse(
        snap->table, *result, requests[i], *response, served, {&stream.truth},
        replay, response->stats.runtime_seconds, /*with_what_if_wall=*/false,
        ++*next_id, rec, tracer);
    if (!checked.ok()) rec->Fail(checked.ToString());
    if (pin != nullptr) {
      pin->requests.push_back(requests[i]);
      pin->responses.push_back(*response);
    }
  }
  if (cold != 1) rec->Fail("a burst must have exactly one cold explain");
  if (pin != nullptr) pin->snap = snap;
}

Status RunSensor(const RunOptions& options, Engine& engine, Recorder* rec,
                 Tracer* tracer, ServiceStats* ingest_stats) {
  const int batches = options.smoke ? 3 : kSensorBatches;
  auto set_up = [&](ServiceStats* stats) {
    return SetUpSensor(engine, options.smoke, batches, stats);
  };
  std::unique_ptr<SensorLive> run;
  for (int repeat = 0; repeat < SetupRepeats(options); ++repeat) {
    SCORPION_ASSIGN_OR_RETURN(
        run, TimeSetUp(rec, [&] { return set_up(ingest_stats); }));
  }
  SCORPION_RETURN_NOT_OK(ReplayGroupBy(tracer, run->dataset->snapshot()->table,
                                       *run->dataset->result()));
  rec->cold_per_cycle = batches;
  rec->warm_per_cycle = batches * (std::size(kSensorCs) - 1);
  rec->refresh_per_cycle = batches - 1;

  std::vector<PinnedGeneration> pins;
  uint64_t next_id = 0;
  const size_t total = run->stream.order.size();
  SCORPION_RETURN_NOT_OK(RunCycles(
      options, rec,
      [&] { return TimeSetUp(rec, [&] { return set_up(nullptr); }).status(); },
      [&](int cycle) -> Status {
        if (cycle > 0) {
          run.reset();
          SCORPION_ASSIGN_OR_RETURN(run, set_up(ingest_stats));
        }
        Rng shuffle(options.seed);  // every cycle sends the same bursts
        ReplaySession replay;
        for (int b = 0; b < batches; ++b) {
          if (b > 0) {
            SCORPION_RETURN_NOT_OK(run->Append(total * b / batches,
                                               total * (b + 1) / batches,
                                               rec, tracer));
            SCORPION_RETURN_NOT_OK(
                RefreshLive(*run->live, *run->dataset, rec, tracer));
          }
          // Sampled generations: first, middle and last of the first cycle.
          const bool sampled =
              cycle == 0 && (b == 0 || b == batches / 2 || b == batches - 1);
          if (sampled) pins.emplace_back();
          Burst(*run->dataset, run->stream, &shuffle, &replay,
                sampled ? &pins.back() : nullptr, &next_id, rec, tracer);
          SCORPION_RETURN_NOT_OK(rec->Tick());
        }
        return Status::OK();
      }));

  // Answers for the sampled generations must equal a cold Engine::Open over
  // the pinned snapshot.
  for (const PinnedGeneration& pin : pins) {
    Engine cold_engine;
    SCORPION_ASSIGN_OR_RETURN(
        Dataset cold,
        cold_engine.Open(pin.snap->table, run->stream.data.query));
    for (size_t i = 0; i < pin.requests.size(); ++i) {
      Result<ExplainResponse> answer = cold.Explain(pin.requests[i]);
      if (!answer.ok() || !SameAnswer(*answer, pin.responses[i])) {
        rec->Fail("generation " + std::to_string(pin.snap->generation) +
                  " differs from a cold Engine::Open");
      }
    }
  }
  return Status::OK();
}

// --- Reporting ----------------------------------------------------------------

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

void EndToEnd(const Recorder& rec, Report* report) {
  const double cold_tail = TailPercentile(rec.cold_per_cycle);
  const double warm_tail = TailPercentile(rec.warm_per_cycle);
  const double refresh_tail = TailPercentile(rec.refresh_per_cycle);
  auto add = [&](const char* name, double value, const char* unit) {
    report->metrics.push_back({name, value, unit});
  };
  add("explain_cold_p50_s", Percentile(rec.cold_best, 50), "s");
  add("explain_cold_tail_s", Percentile(rec.cold_best, cold_tail), "s");
  add("explain_warm_p50_s", Percentile(rec.warm_best, 50), "s");
  add("explain_warm_tail_s", Percentile(rec.warm_best, warm_tail), "s");
  double busy = 0.0;
  for (double s : rec.busy_best) busy += s;
  add("explains_per_s",
      Ratio(static_cast<double>(rec.cold_best.size() + rec.warm_best.size()),
            busy),
      "1/s");
  add("f_score", Ratio(rec.f_sum, static_cast<double>(rec.f_count)), "ratio");
  add("refresh_p50_s", Percentile(rec.refresh_best, 50), "s");
  add("refresh_tail_s", Percentile(rec.refresh_best, refresh_tail), "s");
  add("ingest_rows_per_s", Percentile(rec.ingest_rates, 100), "rows/s");
  add("setup_s", Percentile(rec.setup_s, 50), "s");
  add("peak_rss_mb", rec.peak_rss_mb, "MB");
  report->notes.push_back(Fmt("tail percentiles: cold p%g of %g samples", cold_tail,
                              static_cast<double>(rec.cold_best.size())) +
                          Fmt(", warm p%g of %g, refresh", warm_tail,
                              static_cast<double>(rec.warm_best.size())) +
                          Fmt(" p%g of %g", refresh_tail,
                              static_cast<double>(rec.refresh_best.size())) +
                          Fmt("; setup median of %g",
                              static_cast<double>(rec.setup_s.size())));
  report->notes.push_back(
      Fmt("failed_ratio %g (%g of %g operations)",
          Ratio(static_cast<double>(rec.failed),
                static_cast<double>(rec.attempted)),
          static_cast<double>(rec.failed), static_cast<double>(rec.attempted)));
}

/// Cost of one empty span, for the tracing-overhead estimate.
double SpanCostSeconds() {
  Tracer probe;
  constexpr int kSpans = 20000;
  WallTimer timer;
  for (int i = 0; i < kSpans; ++i) Tracer::Span span(probe, "probe");
  return timer.ElapsedSeconds() / kSpans;
}

/// `service` is the engine's own service counters (every ExplainAsync goes
/// through it); `ingest` is the sink OpenLive was given, which counts the
/// generations Refresh publishes.
void PerLayer(const Recorder& rec, const Tracer& tracer,
              const ServiceStatsSnapshot& service,
              const ServiceStatsSnapshot& ingest, Report* report) {
  const std::map<std::string, double> self = tracer.SelfSeconds();
  auto s = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second;
  };
  auto c = [&](const char* counter) { return tracer.counter(counter); };
  auto add = [&](const char* name, double value, const char* unit) {
    report->metrics.push_back({name, value, unit});
  };
  const double scores = c("scorer.predicate_scores");
  const double exact = c("merger.exact_scores");
  const double explains = static_cast<double>(rec.explains);
  add("query.groupby_s", s("query.groupby"), "s");
  add("query.extend_s", s("query.extend"), "s");
  add("scorer.make_s", s("scorer.make"), "s");
  add("scorer.predicate_scores", scores, "count");
  add("scorer.rows_filtered", c("scorer.rows_filtered"), "count");
  add("scorer.rows_per_score", Ratio(c("scorer.rows_filtered"), scores),
      "count");
  add("scorer.s_per_score", Ratio(s("merger.run") + s("mc.run"), scores), "s");
  add("scorer.match_cache_hits", c("scorer.match_cache_hits"), "count");
  add("scorer.tuple_scores", c("scorer.tuple_scores"), "count");
  add("dt.run_s", s("dt.run"), "s");
  add("dt.nodes", c("dt.nodes"), "count");
  add("dt.tuple_influences", c("dt.tuple_influences"), "count");
  add("dt.match_cache_s", s("dt.match_cache"), "s");
  add("merger.run_s", s("merger.run"), "s");
  add("merger.share", Ratio(s("merger.run"), rec.api_wall_s), "ratio");
  add("merger.exact_scores", exact, "count");
  add("merger.estimated_scores", c("merger.estimated_scores"), "count");
  add("merger.merges_accepted", c("merger.merges_accepted"), "count");
  add("merger.accept_ratio", Ratio(c("merger.merges_accepted"), exact),
      "ratio");
  add("merger.s_per_exact_score", Ratio(s("merger.run"), exact), "s");
  add("mc.run_s", s("mc.run"), "s");
  add("mc.predicates_scored", c("mc.predicates_scored"), "count");
  add("mc.predicates_pruned", c("mc.predicates_pruned"), "count");
  add("mc.prune_ratio",
      Ratio(c("mc.predicates_pruned"), c("mc.predicates_scored")), "ratio");
  add("mc.iterations", c("mc.iterations"), "count");
  add("table.blocks_none", c("table.blocks_none"), "count");
  add("table.blocks_all", c("table.blocks_all"), "count");
  add("table.blocks_partial", c("table.blocks_partial"), "count");
  add("table.rows_skipped_by_pruning", c("table.rows_skipped_by_pruning"),
      "count");
  add("table.selection_conversions", c("table.selection_conversions"),
      "count");
  add("predicate.candidate_batches", c("predicate.candidate_batches"),
      "count");
  add("predicate.blocks_shared", c("predicate.blocks_shared"), "count");
  add("predicate.domains_s", s("predicate.domains"), "s");
  add("api.what_if_s", s("api.what_if"), "s");
  add("api.overhead_s", rec.api_wall_s - rec.replay_wall_s, "s");
  add("api.request_json_s", s("api.request_json"), "s");
  add("api.response_json_s", s("api.response_json"), "s");
  add("api.response_json_bytes", c("api.response_json_bytes"), "count");
  add("api.partition_hit_ratio",
      Ratio(static_cast<double>(rec.partition_hits), explains), "ratio");
  add("api.result_hit_ratio",
      Ratio(static_cast<double>(rec.result_hits), explains), "ratio");
  add("service.queue_wait_s", rec.queue_wait_s, "s");
  add("service.shed", static_cast<double>(service.shed), "count");
  add("service.deadline_expired",
      static_cast<double>(service.deadline_expired), "count");
  add("storage.append_s", s("storage.append"), "s");
  add("storage.publish_s", s("storage.publish"), "s");
  add("storage.generations_published",
      static_cast<double>(ingest.snapshot_generations_published), "count");
  add("storage.sessions_delta_refreshed",
      static_cast<double>(service.sessions_delta_refreshed), "count");
  add("storage.tail_rows_scanned",
      static_cast<double>(service.tail_rows_scanned), "count");
  add("storage.delta_seed_hits", c("storage.delta_seed_hits"), "count");
  add("trace.overhead_share",
      Ratio(SpanCostSeconds() * static_cast<double>(tracer.num_spans()),
            rec.replay_wall_s),
      "ratio");
  report->notes.push_back(Fmt(
      "traced: %g explains replayed bit-identically; engine wall %gs, "
      "replayed stages %gs",
      explains, rec.api_wall_s, rec.replay_wall_s));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "synth_dt_slider", "sensor_live", "expense_mc"};
  return kNames;
}

/// Keeps one core busy for `seconds` so set-up is not timed on an idle,
/// down-clocked core: the static workloads time their set-up first.
void WarmUpCore(double seconds) {
  WallTimer timer;
  volatile double sink = 0.0;
  while (timer.ElapsedSeconds() < seconds) {
    for (int i = 0; i < 10000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  }
}

Result<Report> RunWorkload(const RunOptions& options) {
  Recorder rec;
  if (!options.smoke) WarmUpCore(0.5);
  std::optional<Tracer> tracer;
  if (options.trace) tracer.emplace();
  Tracer* trace = tracer ? &*tracer : nullptr;
  ServiceStats ingest_stats;
  ServiceStatsSnapshot service;
  {
    // The engine runs with its defaults.
    Engine engine;
    if (options.workload == "synth_dt_slider") {
      SCORPION_RETURN_NOT_OK(RunSynth(options, engine, &rec, trace));
    } else if (options.workload == "sensor_live") {
      SCORPION_RETURN_NOT_OK(
          RunSensor(options, engine, &rec, trace, &ingest_stats));
    } else if (options.workload == "expense_mc") {
      SCORPION_RETURN_NOT_OK(RunExpense(options, engine, &rec, trace));
    } else {
      return Status::InvalidArgument("unknown workload " + options.workload);
    }
    service = engine.service_stats();
  }
  Report report;
  report.attempted = rec.attempted;
  report.failed = rec.failed;
  if (trace == nullptr) {
    EndToEnd(rec, &report);
    return report;
  }
  PerLayer(rec, *trace, service, ingest_stats.Snapshot(0), &report);
  if (!options.trace_out.empty()) {
    SCORPION_RETURN_NOT_OK(trace->WriteJson(options.trace_out));
  }
  return report;
}

}  // namespace perfbench
