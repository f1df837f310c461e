// The benchmark's three workloads, each driven through the public
// Engine / Dataset / LiveDataset API from one process:
//
//   synth_dt_slider  closed loop, one client: SYNTH instances, one cold DT
//                    explain per annotation set, then a sweep over c.
//   sensor_live      an INTEL-shaped trace streams into a LiveTable; after
//                    each batch one driver thread calls Refresh and submits
//                    an ExplainAsync burst that the engine's two service
//                    workers serve.
//   expense_mc       closed loop, one client: MC over EXPENSE ledgers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured loop; required (BENCHMARK.json's run_seconds).
  double seconds = 0.0;
  bool trace = false;
  /// Tiny inputs and a single pass, for the benchmark's own test.
  bool smoke = false;
  /// Where the traced run writes its spans and counters (empty = nowhere).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics without tracing, per-layer metrics with it.
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

scorpion::Result<Report> RunWorkload(const RunOptions& options);

}  // namespace perfbench
