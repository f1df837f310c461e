// Section 8.4, INTEL workloads: the two sensor-failure queries over the
// synthetic sensor trace (our Intel Lab substitute; see DESIGN.md).
//
//  Workload 1 (dying sensor): STDDEV(temp) per hour spikes when sensor 15
//    starts emitting >100C readings. Expected: sensorid=15 at low c,
//    refined with voltage/light clauses as c -> 1.
//  Workload 2 (low voltage): sensor 18's battery decays; readings of
//    90-122C whose extremes correlate with a light band. Expected:
//    sensorid=18, with a light clause at c = 1.
//
// The paper's outlier/hold-out counts (20/13 and 138/21) came from its
// 2.3M-row trace; the planted failure here spans whatever hours the
// generator is configured with — the qualitative check is predicate
// recovery, not counts.
#include <cstdio>

#include "core/scorpion.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "workload/sensor.h"

using namespace scorpion;

#define BENCH_CHECK_OK(expr)                                         \
  do {                                                               \
    const auto& _res = (expr);                                       \
    if (!_res.ok()) {                                                \
      std::fprintf(stderr, "FATAL %s: %s\n", #expr,                  \
                   _res.status().ToString().c_str());                \
      return 1;                                                      \
    }                                                                \
  } while (false)

namespace {

int RunWorkload(const char* title, const SensorOptions& opts) {
  auto dataset = GenerateSensor(opts);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("\n--- %s ---\n", title);
  std::printf("rows=%zu sensors=%d failing=%d outlier-hours=%zu "
              "holdout-hours=%zu\n",
              dataset->table.num_rows(), opts.num_sensors,
              opts.failing_sensor, dataset->outlier_keys.size(),
              dataset->holdout_keys.size());

  auto qr = ExecuteGroupBy(dataset->table, dataset->query);
  BENCH_CHECK_OK(qr);
  auto problem = MakeProblem(*qr, dataset->outlier_keys,
                             dataset->holdout_keys, +1.0, /*lambda=*/0.7,
                             /*c=*/0.0, dataset->attributes);
  BENCH_CHECK_OK(problem);
  auto outlier_union = OutlierUnion(*qr, *problem);
  BENCH_CHECK_OK(outlier_union);

  ScorpionOptions options;
  options.algorithm = Algorithm::kDT;
  Scorpion scorpion(options);
  ExplainSession session;

  TablePrinter table({"c", "runtime(s)", "F", "predicate"});
  for (double c : {1.0, 0.75, 0.5, 0.25, 0.0}) {
    ProblemSpec at_c = *problem;
    at_c.c = c;
    auto explanation = scorpion.Explain(dataset->table, *qr, at_c, &session,
                                        /*cross_c_warm_start=*/true);
    BENCH_CHECK_OK(explanation);
    auto acc = EvaluatePredicate(dataset->table, explanation->best().pred,
                                 *outlier_union, dataset->ground_truth_rows);
    BENCH_CHECK_OK(acc);
    char cbuf[16], rbuf[16], fbuf[16];
    std::snprintf(cbuf, sizeof(cbuf), "%.2f", c);
    std::snprintf(rbuf, sizeof(rbuf), "%.3f",
                  explanation->runtime_seconds);
    std::snprintf(fbuf, sizeof(fbuf), "%.3f", acc->f_score);
    table.AddRow({cbuf, rbuf, fbuf,
                  explanation->best().pred.ToString(&dataset->table)});
  }
  table.Print();
  std::printf("planted cause: %s\n",
              dataset->expected.ToString(&dataset->table).c_str());
  return 0;
}

}  // namespace

int main() {
  std::printf("=== Section 8.4: INTEL sensor workloads (DT) ===\n");
  SensorOptions w1;
  w1.mode = SensorFailureMode::kDyingSensor;
  w1.failing_sensor = 15;
  if (RunWorkload("Workload 1: dying sensor (expect sensorid=15)", w1) != 0) {
    return 1;
  }
  SensorOptions w2;
  w2.mode = SensorFailureMode::kLowVoltage;
  w2.failing_sensor = 18;
  w2.seed = 77;
  return RunWorkload("Workload 2: low voltage (expect sensorid=18)", w2);
}
