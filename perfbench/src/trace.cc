#include "trace.h"

#include <cstdio>

#include "common/json.h"

namespace perfbench {

using scorpion::JsonValue;
using scorpion::Status;

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Span::Span(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  SpanRecord record;
  record.name = name;
  record.parent =
      tracer.open_.empty() ? -1 : static_cast<int64_t>(tracer.open_.back());
  record.request = tracer.request_;
  tracer.spans_.push_back(std::move(record));
  tracer.open_.push_back(index_);
  tracer.spans_[index_].start_s = tracer.Now();
}

Tracer::Span::~Span() {
  tracer_.spans_[index_].end_s = tracer_.Now();
  tracer_.open_.pop_back();
}

double Tracer::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.end_s - span.start_s;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

Status Tracer::WriteJson(const std::string& path) const {
  JsonValue spans = JsonValue::Array();
  for (const SpanRecord& span : spans_) {
    JsonValue item = JsonValue::Object();
    item.Add("name", JsonValue::String(span.name));
    item.Add("start_s", JsonValue::Number(span.start_s));
    item.Add("end_s", JsonValue::Number(span.end_s));
    item.Add("parent", JsonValue::Number(static_cast<double>(span.parent)));
    item.Add("request", JsonValue::Number(static_cast<double>(span.request)));
    spans.Append(std::move(item));
  }
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : counters_) {
    counters.Add(name, JsonValue::Number(value));
  }
  JsonValue doc = JsonValue::Object();
  doc.Add("spans", std::move(spans));
  doc.Add("counters", std::move(counters));
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IOError("cannot write " + path);
  const std::string text = doc.Dump();
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (std::fclose(file) != 0 || !written) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace perfbench
