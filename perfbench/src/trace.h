// In-memory span and counter recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files, around each call into
// an engine layer (the engine itself has no in-program spans yet). Every
// span carries a name, start/end, the index of the span that caused it and
// the id of the request it belongs to. Nothing is written until the run
// ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct SpanRecord {
    std::string name;
    double start_s = 0.0;  // since the tracer was created
    double end_s = 0.0;
    int64_t parent = -1;   // index into spans(), -1 for a root span
    uint64_t request = 0;  // 0 = not tied to one request (set-up, ingest)
  };

  /// Scoped span: opens on construction, closes on destruction. Spans nest
  /// on one thread only; every replay runs on the driver thread.
  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    size_t index_;
  };

  Tracer();

  /// Spans opened from now on belong to request `id` (0 = none).
  void SetRequest(uint64_t id) { request_ = id; }

  /// Adds `value` to the named counter.
  void Count(const std::string& name, double value) { counters_[name] += value; }
  double counter(const std::string& name) const;

  size_t num_spans() const { return spans_.size(); }

  /// Self seconds per span name: each span's duration minus the part its
  /// direct children cover, summed over all spans of that name.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes every span and counter as JSON to `path`.
  scorpion::Status WriteJson(const std::string& path) const;

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  uint64_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;  // stack of open span indices
  std::map<std::string, double> counters_;
};

}  // namespace perfbench
