// Benchmark driver: runs one workload through the public Engine / Dataset
// API and prints its metrics as the last line of standard output.
//
// Usage: scorpion_perfbench --workload <name> --seed <n> --seconds <s>
//                           --trace <0|1> [--smoke] [--trace-out <path>]
//
// The result line is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is 0 only when every operation
// succeeded and every answer passed its checks.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.h"
#include "workloads.h"

namespace {

using scorpion::JsonValue;

int Usage(const char* why) {
  std::fprintf(stderr,
               "scorpion_perfbench: %s\n"
               "usage: scorpion_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--trace-out <path>]\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (!ParseNumber(value, &number)) {
      return Usage(("bad number for " + flag).c_str());
    } else if (flag == "--seed" && number >= 0) {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && number > 0) {
      options.seconds = number;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      options.trace = number == 1;
    } else {
      return Usage(("bad flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known |= name == options.workload;
  }
  if (!known) return Usage("--workload must name a workload");
  if (options.seconds <= 0) return Usage("--seconds is required");

  scorpion::Result<perfbench::Report> report =
      perfbench::RunWorkload(options);
  if (!report.ok()) {
    std::fprintf(stderr, "scorpion_perfbench: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  for (const std::string& note : report->notes) {
    std::printf("%s: %s\n", options.workload.c_str(), note.c_str());
  }
  JsonValue metrics = JsonValue::Object();
  for (const perfbench::Metric& metric : report->metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Add("value", JsonValue::Number(metric.value));
    entry.Add("unit", JsonValue::String(metric.unit));
    metrics.Add(metric.name, std::move(entry));
  }
  JsonValue line = JsonValue::Object();
  line.Add("correct", JsonValue::Bool(report->failed == 0));
  line.Add("attempted",
           JsonValue::Number(static_cast<double>(report->attempted)));
  line.Add("failed", JsonValue::Number(static_cast<double>(report->failed)));
  line.Add("metrics", std::move(metrics));
  std::printf("%s\n", line.Dump().c_str());
  std::fflush(stdout);
  return report->failed == 0 ? 0 : 1;
}
