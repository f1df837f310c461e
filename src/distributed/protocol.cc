#include "distributed/protocol.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <map>

#include "api/serialization.h"
#include "common/macros.h"

namespace scorpion {

namespace {

Result<uint64_t> U64Field(JsonObjectReader& reader, const std::string& key) {
  SCORPION_ASSIGN_OR_RETURN(double raw, reader.GetDouble(key));
  if (raw < 0.0 || raw > 9007199254740992.0 || raw != std::floor(raw)) {
    return reader.Error(key + " must be a non-negative integer");
  }
  return static_cast<uint64_t>(raw);
}

// Option values on the wire. Reals ride as exact bits, so +infinity (an
// unbounded budget) survives; counts are JSON integers.
JsonValue OptionToJson(double v) { return WireDoubleToJson(v); }
JsonValue OptionToJson(bool v) { return JsonValue::Bool(v); }
JsonValue OptionToJson(int v) { return JsonValue::Number(v); }
JsonValue OptionToJson(size_t v) {
  return JsonValue::Number(static_cast<double>(v));
}

// Strict readers: reals must be non-negative (every real knob is a
// threshold, fraction or duration) and not NaN; counts must be
// non-negative integers that fit the field.
Status OptionFromJson(JsonObjectReader& reader, const std::string& key,
                      double* out) {
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* raw, reader.GetMember(key));
  SCORPION_ASSIGN_OR_RETURN(*out, WireDoubleFromJson(*raw, key));
  if (!(*out >= 0.0)) return reader.Error(key + " must be non-negative");
  return Status::OK();
}
Status OptionFromJson(JsonObjectReader& reader, const std::string& key,
                      bool* out) {
  SCORPION_ASSIGN_OR_RETURN(*out, reader.GetBool(key));
  return Status::OK();
}
Status OptionFromJson(JsonObjectReader& reader, const std::string& key,
                      size_t* out) {
  SCORPION_ASSIGN_OR_RETURN(*out, U64Field(reader, key));
  return Status::OK();
}
Status OptionFromJson(JsonObjectReader& reader, const std::string& key,
                      int* out) {
  SCORPION_ASSIGN_OR_RETURN(uint64_t value, U64Field(reader, key));
  if (value > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return reader.Error(key + " is out of range");
  }
  *out = static_cast<int>(value);
  return Status::OK();
}

constexpr const char* kOptionSections[] = {"dt", "mc", "naive", "merger"};

// Every field of the dt/mc/naive/merger sections, listed once for both
// codecs: `field(section, key, member)` per field, first error wins. The
// top-level fields and dt.seed (64 bits, more than a JSON number holds
// exactly) are coded by hand.
template <typename Options, typename Field>
Status ForEachSectionField(Options& o, Field&& field) {
  const Status statuses[] = {
      field("dt", "tau_min", o.dt.tau_min),
      field("dt", "tau_max", o.dt.tau_max),
      field("dt", "inflection_p", o.dt.inflection_p),
      field("dt", "min_partition_size", o.dt.min_partition_size),
      field("dt", "max_depth", o.dt.max_depth),
      field("dt", "num_split_candidates", o.dt.num_split_candidates),
      field("dt", "max_discrete_split_values",
            o.dt.max_discrete_split_values),
      field("dt", "use_sampling", o.dt.use_sampling),
      field("dt", "epsilon", o.dt.epsilon),
      field("dt", "min_sample_size", o.dt.min_sample_size),
      field("mc", "num_continuous_splits", o.mc.num_continuous_splits),
      field("mc", "max_discrete_values", o.mc.max_discrete_values),
      field("mc", "max_candidates_per_iteration",
            o.mc.max_candidates_per_iteration),
      field("mc", "max_iterations", o.mc.max_iterations),
      field("naive", "num_continuous_splits",
            o.naive.num_continuous_splits),
      field("naive", "max_clauses", o.naive.max_clauses),
      field("naive", "max_discrete_set_size", o.naive.max_discrete_set_size),
      field("naive", "time_budget_seconds", o.naive.time_budget_seconds),
      field("naive", "checkpoint_interval_seconds",
            o.naive.checkpoint_interval_seconds),
      field("merger", "top_quartile_only", o.merger.top_quartile_only),
      field("merger", "use_cached_tuple_estimate",
            o.merger.use_cached_tuple_estimate),
      field("merger", "same_attributes_only", o.merger.same_attributes_only),
      field("merger", "max_expansions_per_seed",
            o.merger.max_expansions_per_seed),
      field("merger", "max_candidates_per_step",
            o.merger.max_candidates_per_step),
  };
  for (const Status& status : statuses) SCORPION_RETURN_NOT_OK(status);
  return Status::OK();
}

}  // namespace

JsonParseLimits WireParseLimits() {
  JsonParseLimits limits;
  limits.max_nodes = 16u << 20;  // 16M values; see header rationale
  return limits;
}

std::string EncodeRequest(const std::string& op, uint64_t id, JsonValue body) {
  JsonValue out = JsonValue::Object();
  out.Add("scorpion_wire",
          JsonValue::Number(static_cast<double>(kDistributedWireVersion)));
  out.Add("op", JsonValue::String(op));
  out.Add("id", JsonValue::Number(static_cast<double>(id)));
  out.Add("body", std::move(body));
  return out.Dump();
}

Result<WireRequest> ParseRequest(const std::string& payload,
                                 const JsonParseLimits& limits) {
  SCORPION_ASSIGN_OR_RETURN(JsonValue value,
                            JsonValue::Parse(payload, limits));
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(value, "wire request"));
  SCORPION_ASSIGN_OR_RETURN(int64_t version, reader.GetInt("scorpion_wire"));
  if (version != kDistributedWireVersion) {
    return reader.Error("unsupported wire version " +
                        std::to_string(version));
  }
  WireRequest request;
  SCORPION_ASSIGN_OR_RETURN(request.op, reader.GetString("op"));
  SCORPION_ASSIGN_OR_RETURN(request.id, U64Field(reader, "id"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* body, reader.GetObject("body"));
  request.body = *body;
  SCORPION_RETURN_NOT_OK(reader.Finish());
  return request;
}

std::string EncodeResponse(uint64_t id, JsonValue body) {
  JsonValue out = JsonValue::Object();
  out.Add("scorpion_wire",
          JsonValue::Number(static_cast<double>(kDistributedWireVersion)));
  out.Add("id", JsonValue::Number(static_cast<double>(id)));
  out.Add("ok", JsonValue::Bool(true));
  out.Add("body", std::move(body));
  return out.Dump();
}

std::string EncodeErrorResponse(uint64_t id, const Status& status) {
  JsonValue error = JsonValue::Object();
  error.Add("code",
            JsonValue::Number(static_cast<double>(
                static_cast<int>(status.code()))));
  error.Add("message", JsonValue::String(status.message()));
  JsonValue out = JsonValue::Object();
  out.Add("scorpion_wire",
          JsonValue::Number(static_cast<double>(kDistributedWireVersion)));
  out.Add("id", JsonValue::Number(static_cast<double>(id)));
  out.Add("ok", JsonValue::Bool(false));
  out.Add("error", std::move(error));
  return out.Dump();
}

Result<JsonValue> ParseResponse(const std::string& payload, uint64_t expect_id,
                                const JsonParseLimits& limits,
                                bool* was_remote_error) {
  if (was_remote_error != nullptr) *was_remote_error = false;
  SCORPION_ASSIGN_OR_RETURN(JsonValue value,
                            JsonValue::Parse(payload, limits));
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(value, "wire response"));
  SCORPION_ASSIGN_OR_RETURN(int64_t version, reader.GetInt("scorpion_wire"));
  if (version != kDistributedWireVersion) {
    return reader.Error("unsupported wire version " +
                        std::to_string(version));
  }
  SCORPION_ASSIGN_OR_RETURN(uint64_t id, U64Field(reader, "id"));
  if (id != expect_id) {
    return reader.Error("response id " + std::to_string(id) +
                        " does not match request id " +
                        std::to_string(expect_id));
  }
  SCORPION_ASSIGN_OR_RETURN(bool ok, reader.GetBool("ok"));
  if (!ok) {
    SCORPION_ASSIGN_OR_RETURN(const JsonValue* error,
                              reader.GetObject("error"));
    SCORPION_ASSIGN_OR_RETURN(
        JsonObjectReader error_reader,
        JsonObjectReader::Make(*error, "wire response error"));
    SCORPION_ASSIGN_OR_RETURN(int64_t code, error_reader.GetInt("code"));
    SCORPION_ASSIGN_OR_RETURN(std::string message,
                              error_reader.GetString("message"));
    SCORPION_RETURN_NOT_OK(error_reader.Finish());
    SCORPION_RETURN_NOT_OK(reader.Finish());
    if (was_remote_error != nullptr) *was_remote_error = true;
    if (code <= static_cast<int64_t>(StatusCode::kOk) ||
        code > static_cast<int64_t>(StatusCode::kUnavailable)) {
      // Unknown codes (newer peer?) degrade to Internal, never to kOk.
      return Status::Internal("remote: " + message);
    }
    return Status(static_cast<StatusCode>(code), "remote: " + message);
  }
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* body, reader.GetObject("body"));
  JsonValue out = *body;
  SCORPION_RETURN_NOT_OK(reader.Finish());
  return out;
}

JsonValue ScorpionOptionsToJson(const ScorpionOptions& options) {
  std::map<std::string, JsonValue> sections;
  for (const char* name : kOptionSections) sections[name] = JsonValue::Object();
  ForEachSectionField(options, [&](const char* section, const char* key,
                                   const auto& value) {
    sections[section].Add(key, OptionToJson(value));
    return Status::OK();
  });
  sections["dt"].Add("seed",
                     JsonValue::String(std::to_string(options.dt.seed)));

  JsonValue out = JsonValue::Object();
  out.Add("algorithm", JsonValue::String(AlgorithmToString(options.algorithm)));
  out.Add("top_k", OptionToJson(options.top_k));
  out.Add("enable_block_pruning", OptionToJson(options.enable_block_pruning));
  out.Add("enable_candidate_batching",
          OptionToJson(options.enable_candidate_batching));
  for (const char* name : kOptionSections) {
    out.Add(name, std::move(sections[name]));
  }
  return out;
}

Result<ScorpionOptions> ScorpionOptionsFromJson(const JsonValue& value) {
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(value, "options"));
  ScorpionOptions options;
  SCORPION_ASSIGN_OR_RETURN(std::string algorithm,
                            reader.GetString("algorithm"));
  SCORPION_ASSIGN_OR_RETURN(options.algorithm,
                            AlgorithmFromString(algorithm));
  SCORPION_RETURN_NOT_OK(OptionFromJson(reader, "top_k", &options.top_k));
  SCORPION_RETURN_NOT_OK(OptionFromJson(reader, "enable_block_pruning",
                                        &options.enable_block_pruning));
  SCORPION_RETURN_NOT_OK(OptionFromJson(reader, "enable_candidate_batching",
                                        &options.enable_candidate_batching));
  std::map<std::string, JsonObjectReader> sections;
  for (const char* name : kOptionSections) {
    SCORPION_ASSIGN_OR_RETURN(const JsonValue* section,
                              reader.GetObject(name));
    SCORPION_ASSIGN_OR_RETURN(
        JsonObjectReader section_reader,
        JsonObjectReader::Make(*section, std::string("options.") + name));
    sections.emplace(name, std::move(section_reader));
  }
  SCORPION_RETURN_NOT_OK(ForEachSectionField(
      options, [&](const char* section, const char* key, auto& member) {
        return OptionFromJson(sections.at(section), key, &member);
      }));

  JsonObjectReader& dt = sections.at("dt");
  SCORPION_ASSIGN_OR_RETURN(std::string seed, dt.GetString("seed"));
  const char* seed_end = seed.data() + seed.size();
  auto [seed_ptr, seed_ec] =
      std::from_chars(seed.data(), seed_end, options.dt.seed);
  if (seed.empty() || seed_ec != std::errc() || seed_ptr != seed_end) {
    return dt.Error("seed must be a decimal unsigned 64-bit integer");
  }
  for (const auto& [name, section_reader] : sections) {
    SCORPION_RETURN_NOT_OK(section_reader.Finish());
  }
  SCORPION_RETURN_NOT_OK(reader.Finish());
  return options;
}

JsonValue ExplanationToJson(const Explanation& explanation) {
  JsonValue predicates = JsonValue::Array();
  for (const ScoredPredicate& sp : explanation.predicates) {
    JsonValue p = JsonValue::Object();
    p.Add("predicate", PredicateToJsonValue(sp.pred));
    p.Add("influence", WireDoubleToJson(sp.influence));
    predicates.Append(std::move(p));
  }
  JsonValue checkpoints = JsonValue::Array();
  for (const NaiveCheckpoint& cp : explanation.naive_checkpoints) {
    JsonValue c = JsonValue::Object();
    c.Add("elapsed_seconds", WireDoubleToJson(cp.elapsed_seconds));
    c.Add("influence", WireDoubleToJson(cp.influence));
    c.Add("predicate", PredicateToJsonValue(cp.pred));
    checkpoints.Append(std::move(c));
  }
  JsonValue out = JsonValue::Object();
  out.Add("algorithm",
          JsonValue::String(AlgorithmToString(explanation.algorithm)));
  out.Add("naive_exhausted", JsonValue::Bool(explanation.naive_exhausted));
  out.Add("predicates", std::move(predicates));
  out.Add("naive_checkpoints", std::move(checkpoints));
  return out;
}

Result<Explanation> ExplanationFromJson(const JsonValue& value) {
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(value, "explanation"));
  Explanation explanation;
  SCORPION_ASSIGN_OR_RETURN(std::string algorithm,
                            reader.GetString("algorithm"));
  SCORPION_ASSIGN_OR_RETURN(explanation.algorithm,
                            AlgorithmFromString(algorithm));
  SCORPION_ASSIGN_OR_RETURN(explanation.naive_exhausted,
                            reader.GetBool("naive_exhausted"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* predicates,
                            reader.GetArray("predicates"));
  for (const JsonValue& item : predicates->items()) {
    SCORPION_ASSIGN_OR_RETURN(
        JsonObjectReader p,
        JsonObjectReader::Make(item, "explanation predicate"));
    ScoredPredicate sp;
    SCORPION_ASSIGN_OR_RETURN(const JsonValue* pred, p.GetMember("predicate"));
    SCORPION_ASSIGN_OR_RETURN(sp.pred, PredicateFromJsonValue(*pred));
    SCORPION_ASSIGN_OR_RETURN(const JsonValue* influence,
                              p.GetMember("influence"));
    SCORPION_ASSIGN_OR_RETURN(
        sp.influence, WireDoubleFromJson(*influence, "explanation influence"));
    SCORPION_RETURN_NOT_OK(p.Finish());
    explanation.predicates.push_back(std::move(sp));
  }
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* checkpoints,
                            reader.GetArray("naive_checkpoints"));
  for (const JsonValue& item : checkpoints->items()) {
    SCORPION_ASSIGN_OR_RETURN(
        JsonObjectReader c,
        JsonObjectReader::Make(item, "explanation checkpoint"));
    NaiveCheckpoint cp;
    SCORPION_ASSIGN_OR_RETURN(const JsonValue* elapsed,
                              c.GetMember("elapsed_seconds"));
    SCORPION_ASSIGN_OR_RETURN(
        cp.elapsed_seconds,
        WireDoubleFromJson(*elapsed, "checkpoint elapsed_seconds"));
    SCORPION_ASSIGN_OR_RETURN(const JsonValue* influence,
                              c.GetMember("influence"));
    SCORPION_ASSIGN_OR_RETURN(
        cp.influence, WireDoubleFromJson(*influence, "checkpoint influence"));
    SCORPION_ASSIGN_OR_RETURN(const JsonValue* pred, c.GetMember("predicate"));
    SCORPION_ASSIGN_OR_RETURN(cp.pred, PredicateFromJsonValue(*pred));
    SCORPION_RETURN_NOT_OK(c.Finish());
    explanation.naive_checkpoints.push_back(std::move(cp));
  }
  SCORPION_RETURN_NOT_OK(reader.Finish());
  return explanation;
}

Fingerprint SessionFingerprint(const Fingerprint& table_fp,
                               const GroupByQuery& query,
                               const ProblemSpec& problem) {
  Fingerprinter fp;
  fp.Str("scorpion.session.v1");
  fp.U64(table_fp.hi).U64(table_fp.lo);
  fp.Str(GroupByQueryToJsonValue(query).Dump());
  fp.Str(ProblemSpecToJsonValue(problem).Dump());
  return fp.Finish();
}

}  // namespace scorpion
