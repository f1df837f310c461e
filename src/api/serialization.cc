#include "api/serialization.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "api/explain_request.h"
#include "api/explain_response.h"
#include "common/macros.h"

namespace scorpion {

namespace {

/// Wire schema version stamped on request/response documents; readers
/// reject anything else, so incompatible peers fail loudly.
constexpr int64_t kWireVersion = 1;

/// Influence values can legitimately be ±infinity (a predicate annihilating
/// an AVG group scores -inf); JSON numbers cannot. Encode non-finite scores
/// as sentinel strings and accept either form on the way in.
JsonValue ScoreToJson(double v) {
  if (std::isfinite(v)) return JsonValue::Number(v);
  if (std::isnan(v)) return JsonValue::String("NaN");
  return JsonValue::String(v > 0 ? "Infinity" : "-Infinity");
}

Result<double> ScoreFromJson(const JsonValue& value,
                             const std::string& context) {
  if (value.is_number()) return value.number_value();
  if (value.is_string()) {
    const std::string& s = value.string_value();
    if (s == "Infinity") return std::numeric_limits<double>::infinity();
    if (s == "-Infinity") return -std::numeric_limits<double>::infinity();
    if (s == "NaN") return std::numeric_limits<double>::quiet_NaN();
  }
  return Status::InvalidArgument(context +
                                 ": expected a number or an Infinity/NaN "
                                 "sentinel string");
}

Result<std::vector<std::string>> StringArray(const JsonValue* array,
                                             const std::string& context) {
  std::vector<std::string> out;
  out.reserve(array->items().size());
  for (const JsonValue& item : array->items()) {
    if (!item.is_string()) {
      return Status::InvalidArgument(context + ": expected strings");
    }
    out.push_back(item.string_value());
  }
  return out;
}

Result<std::vector<int>> IntArray(const JsonValue* array,
                                  const std::string& context) {
  std::vector<int> out;
  out.reserve(array->items().size());
  for (const JsonValue& item : array->items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument(context + ": expected integers");
    }
    double d = item.number_value();
    // Range check before the cast — double-to-int of an out-of-range value
    // is undefined behaviour, and this is the wire-facing parser.
    if (d < -2147483648.0 || d > 2147483647.0) {
      return Status::InvalidArgument(context + ": integer out of range");
    }
    int i = static_cast<int>(d);
    if (static_cast<double>(i) != d) {
      return Status::InvalidArgument(context + ": expected integers");
    }
    out.push_back(i);
  }
  return out;
}

Result<std::vector<double>> DoubleArray(const JsonValue* array,
                                        const std::string& context) {
  std::vector<double> out;
  out.reserve(array->items().size());
  for (const JsonValue& item : array->items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument(context + ": expected numbers");
    }
    out.push_back(item.number_value());
  }
  return out;
}

Result<uint64_t> CountFromDouble(double d, const std::string& context) {
  // Counts beyond 2^53 cannot have survived the double-typed wire exactly,
  // and casting an out-of-range double is undefined behaviour.
  if (d < 0.0 || d > 9007199254740992.0 || d != std::floor(d)) {
    return Status::InvalidArgument(context + ": expected a non-negative "
                                             "integer");
  }
  return static_cast<uint64_t>(d);
}

}  // namespace

JsonValue WireDoubleToJson(double v) {
  if (std::isfinite(v)) return JsonValue::Number(v);
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[17];
  static const char* kHex = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[i] = kHex[bits & 0xF];
    bits >>= 4;
  }
  buf[16] = '\0';
  return JsonValue::String(buf);
}

Result<double> WireDoubleFromJson(const JsonValue& value,
                                  const std::string& context) {
  if (value.is_number()) return value.number_value();
  if (value.is_string()) {
    const std::string& s = value.string_value();
    if (s.size() == 16) {
      uint64_t bits = 0;
      for (char c : s) {
        int digit;
        if (c >= '0' && c <= '9') {
          digit = c - '0';
        } else if (c >= 'a' && c <= 'f') {
          digit = c - 'a' + 10;
        } else {
          return Status::InvalidArgument(
              context + ": bad bit-pattern string '" + s + "'");
        }
        bits = (bits << 4) | static_cast<uint64_t>(digit);
      }
      double v;
      std::memcpy(&v, &bits, sizeof(v));
      if (std::isfinite(v)) {
        // Finite values must use the number form — two encodings of one
        // value would break the "ToJson is deterministic" contract.
        return Status::InvalidArgument(
            context + ": finite double encoded as a bit-pattern string");
      }
      return v;
    }
  }
  return Status::InvalidArgument(
      context + ": expected a number or a 16-hex-digit bit-pattern string");
}

namespace {

const char* DataTypeToWire(DataType type) {
  return type == DataType::kDouble ? "double" : "categorical";
}

Result<DataType> DataTypeFromWire(const std::string& name) {
  if (name == "double") return DataType::kDouble;
  if (name == "categorical") return DataType::kCategorical;
  return Status::InvalidArgument("unknown column type '" + name +
                                 "' (expected double or categorical)");
}

}  // namespace

// --- Enums -------------------------------------------------------------------

Result<Algorithm> AlgorithmFromString(const std::string& name) {
  if (name == "NAIVE") return Algorithm::kNaive;
  if (name == "DT") return Algorithm::kDT;
  if (name == "MC") return Algorithm::kMC;
  return Status::InvalidArgument("unknown algorithm '" + name +
                                 "' (expected NAIVE, DT or MC)");
}

const char* InfluenceModeToString(InfluenceMode mode) {
  switch (mode) {
    case InfluenceMode::kDelete:
      return "delete";
    case InfluenceMode::kMeanShift:
      return "mean_shift";
  }
  return "?";
}

Result<InfluenceMode> InfluenceModeFromString(const std::string& name) {
  if (name == "delete") return InfluenceMode::kDelete;
  if (name == "mean_shift") return InfluenceMode::kMeanShift;
  return Status::InvalidArgument("unknown influence mode '" + name +
                                 "' (expected delete or mean_shift)");
}

// --- Predicate ---------------------------------------------------------------

JsonValue PredicateToJsonValue(const Predicate& pred) {
  JsonValue ranges = JsonValue::Array();
  for (const RangeClause& clause : pred.ranges()) {
    JsonValue r = JsonValue::Object();
    r.Add("attr", JsonValue::String(clause.attr));
    r.Add("lo", JsonValue::Number(clause.lo));
    r.Add("hi", JsonValue::Number(clause.hi));
    r.Add("hi_inclusive", JsonValue::Bool(clause.hi_inclusive));
    ranges.Append(std::move(r));
  }
  JsonValue sets = JsonValue::Array();
  for (const SetClause& clause : pred.sets()) {
    JsonValue s = JsonValue::Object();
    s.Add("attr", JsonValue::String(clause.attr));
    JsonValue codes = JsonValue::Array();
    for (int32_t code : clause.codes) {
      codes.Append(JsonValue::Number(static_cast<double>(code)));
    }
    s.Add("codes", std::move(codes));
    sets.Append(std::move(s));
  }
  JsonValue out = JsonValue::Object();
  out.Add("ranges", std::move(ranges));
  out.Add("sets", std::move(sets));
  return out;
}

Result<Predicate> PredicateFromJsonValue(const JsonValue& value) {
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(value, "predicate"));
  Predicate pred;
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* ranges,
                            reader.GetArray("ranges"));
  for (const JsonValue& item : ranges->items()) {
    SCORPION_ASSIGN_OR_RETURN(
        JsonObjectReader clause_reader,
        JsonObjectReader::Make(item, "predicate range clause"));
    RangeClause clause;
    SCORPION_ASSIGN_OR_RETURN(clause.attr, clause_reader.GetString("attr"));
    SCORPION_ASSIGN_OR_RETURN(clause.lo, clause_reader.GetDouble("lo"));
    SCORPION_ASSIGN_OR_RETURN(clause.hi, clause_reader.GetDouble("hi"));
    SCORPION_ASSIGN_OR_RETURN(clause.hi_inclusive,
                              clause_reader.GetBool("hi_inclusive"));
    SCORPION_RETURN_NOT_OK(clause_reader.Finish());
    SCORPION_RETURN_NOT_OK(pred.AddRange(clause));
  }
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* sets, reader.GetArray("sets"));
  for (const JsonValue& item : sets->items()) {
    SCORPION_ASSIGN_OR_RETURN(
        JsonObjectReader clause_reader,
        JsonObjectReader::Make(item, "predicate set clause"));
    SetClause clause;
    SCORPION_ASSIGN_OR_RETURN(clause.attr, clause_reader.GetString("attr"));
    SCORPION_ASSIGN_OR_RETURN(const JsonValue* codes,
                              clause_reader.GetArray("codes"));
    SCORPION_ASSIGN_OR_RETURN(std::vector<int> code_ints,
                              IntArray(codes, "predicate set codes"));
    clause.codes.assign(code_ints.begin(), code_ints.end());
    SCORPION_RETURN_NOT_OK(clause_reader.Finish());
    SCORPION_RETURN_NOT_OK(pred.AddSet(std::move(clause)));
  }
  SCORPION_RETURN_NOT_OK(reader.Finish());
  return pred;
}

std::string PredicateToJson(const Predicate& pred) {
  return PredicateToJsonValue(pred).Dump();
}

Result<Predicate> PredicateFromJson(const std::string& json) {
  SCORPION_ASSIGN_OR_RETURN(JsonValue value, JsonValue::Parse(json));
  return PredicateFromJsonValue(value);
}

// --- ProblemSpec -------------------------------------------------------------

JsonValue ProblemSpecToJsonValue(const ProblemSpec& problem) {
  JsonValue out = JsonValue::Object();
  JsonValue outliers = JsonValue::Array();
  for (int idx : problem.outliers) {
    outliers.Append(JsonValue::Number(static_cast<double>(idx)));
  }
  out.Add("outliers", std::move(outliers));
  JsonValue holdouts = JsonValue::Array();
  for (int idx : problem.holdouts) {
    holdouts.Append(JsonValue::Number(static_cast<double>(idx)));
  }
  out.Add("holdouts", std::move(holdouts));
  JsonValue errors = JsonValue::Array();
  for (double v : problem.error_vectors) errors.Append(JsonValue::Number(v));
  out.Add("error_vectors", std::move(errors));
  out.Add("lambda", JsonValue::Number(problem.lambda));
  out.Add("c", JsonValue::Number(problem.c));
  JsonValue attrs = JsonValue::Array();
  for (const std::string& attr : problem.attributes) {
    attrs.Append(JsonValue::String(attr));
  }
  out.Add("attributes", std::move(attrs));
  out.Add("influence_mode",
          JsonValue::String(InfluenceModeToString(problem.influence_mode)));
  return out;
}

Result<ProblemSpec> ProblemSpecFromJsonValue(const JsonValue& value) {
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(value, "problem_spec"));
  ProblemSpec problem;
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* outliers,
                            reader.GetArray("outliers"));
  SCORPION_ASSIGN_OR_RETURN(problem.outliers,
                            IntArray(outliers, "problem_spec outliers"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* holdouts,
                            reader.GetArray("holdouts"));
  SCORPION_ASSIGN_OR_RETURN(problem.holdouts,
                            IntArray(holdouts, "problem_spec holdouts"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* errors,
                            reader.GetArray("error_vectors"));
  SCORPION_ASSIGN_OR_RETURN(
      problem.error_vectors,
      DoubleArray(errors, "problem_spec error_vectors"));
  SCORPION_ASSIGN_OR_RETURN(problem.lambda, reader.GetDouble("lambda"));
  SCORPION_ASSIGN_OR_RETURN(problem.c, reader.GetDouble("c"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* attrs,
                            reader.GetArray("attributes"));
  SCORPION_ASSIGN_OR_RETURN(problem.attributes,
                            StringArray(attrs, "problem_spec attributes"));
  SCORPION_ASSIGN_OR_RETURN(std::string mode,
                            reader.GetString("influence_mode"));
  SCORPION_ASSIGN_OR_RETURN(problem.influence_mode,
                            InfluenceModeFromString(mode));
  SCORPION_RETURN_NOT_OK(reader.Finish());
  return problem;
}

std::string ProblemSpecToJson(const ProblemSpec& problem) {
  return ProblemSpecToJsonValue(problem).Dump();
}

Result<ProblemSpec> ProblemSpecFromJson(const std::string& json) {
  SCORPION_ASSIGN_OR_RETURN(JsonValue value, JsonValue::Parse(json));
  return ProblemSpecFromJsonValue(value);
}

// --- Table -------------------------------------------------------------------

JsonValue TableToJsonValue(const Table& table) {
  JsonValue out = JsonValue::Object();
  JsonValue schema = JsonValue::Array();
  for (const Field& field : table.schema().fields()) {
    JsonValue f = JsonValue::Object();
    f.Add("name", JsonValue::String(field.name));
    f.Add("type", JsonValue::String(DataTypeToWire(field.type)));
    schema.Append(std::move(f));
  }
  out.Add("schema", std::move(schema));
  out.Add("num_rows",
          JsonValue::Number(static_cast<double>(table.num_rows())));
  JsonValue columns = JsonValue::Array();
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    JsonValue j = JsonValue::Object();
    if (col.type() == DataType::kDouble) {
      JsonValue values = JsonValue::Array();
      for (double v : col.doubles()) values.Append(WireDoubleToJson(v));
      j.Add("values", std::move(values));
    } else {
      JsonValue dictionary = JsonValue::Array();
      for (const std::string& s : col.dictionary()) {
        dictionary.Append(JsonValue::String(s));
      }
      j.Add("dictionary", std::move(dictionary));
      JsonValue codes = JsonValue::Array();
      for (int32_t code : col.codes()) {
        codes.Append(JsonValue::Number(static_cast<double>(code)));
      }
      j.Add("codes", std::move(codes));
    }
    columns.Append(std::move(j));
  }
  out.Add("columns", std::move(columns));
  return out;
}

Result<Table> TableFromJsonValue(const JsonValue& value) {
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(value, "table"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* schema_json,
                            reader.GetArray("schema"));
  std::vector<Field> fields;
  for (const JsonValue& item : schema_json->items()) {
    SCORPION_ASSIGN_OR_RETURN(JsonObjectReader field_reader,
                              JsonObjectReader::Make(item, "table field"));
    Field field;
    SCORPION_ASSIGN_OR_RETURN(field.name, field_reader.GetString("name"));
    SCORPION_ASSIGN_OR_RETURN(std::string type,
                              field_reader.GetString("type"));
    SCORPION_ASSIGN_OR_RETURN(field.type, DataTypeFromWire(type));
    SCORPION_RETURN_NOT_OK(field_reader.Finish());
    fields.push_back(std::move(field));
  }
  SCORPION_ASSIGN_OR_RETURN(double rows_raw, reader.GetDouble("num_rows"));
  SCORPION_ASSIGN_OR_RETURN(uint64_t num_rows,
                            CountFromDouble(rows_raw, "table num_rows"));

  Table table{Schema(fields)};
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* columns,
                            reader.GetArray("columns"));
  if (columns->items().size() != fields.size()) {
    return Status::InvalidArgument(
        "table: " + std::to_string(columns->items().size()) +
        " columns for " + std::to_string(fields.size()) + " schema fields");
  }
  for (size_t c = 0; c < fields.size(); ++c) {
    const JsonValue& item = columns->items()[c];
    SCORPION_ASSIGN_OR_RETURN(
        JsonObjectReader col_reader,
        JsonObjectReader::Make(item, "table column '" + fields[c].name + "'"));
    if (fields[c].type == DataType::kDouble) {
      SCORPION_ASSIGN_OR_RETURN(const JsonValue* values,
                                col_reader.GetArray("values"));
      std::vector<double> data;
      data.reserve(values->items().size());
      for (const JsonValue& v : values->items()) {
        SCORPION_ASSIGN_OR_RETURN(
            double d,
            WireDoubleFromJson(v, "table column '" + fields[c].name + "'"));
        data.push_back(d);
      }
      SCORPION_RETURN_NOT_OK(
          table.column(static_cast<int>(c)).SetDoubleData(std::move(data)));
    } else {
      SCORPION_ASSIGN_OR_RETURN(const JsonValue* dictionary,
                                col_reader.GetArray("dictionary"));
      SCORPION_ASSIGN_OR_RETURN(
          std::vector<std::string> dict,
          StringArray(dictionary, "table column dictionary"));
      SCORPION_ASSIGN_OR_RETURN(const JsonValue* codes,
                                col_reader.GetArray("codes"));
      SCORPION_ASSIGN_OR_RETURN(std::vector<int> code_ints,
                                IntArray(codes, "table column codes"));
      std::vector<int32_t> code_data(code_ints.begin(), code_ints.end());
      SCORPION_RETURN_NOT_OK(
          table.column(static_cast<int>(c))
              .SetCategoricalData(std::move(code_data), std::move(dict)));
    }
    SCORPION_RETURN_NOT_OK(col_reader.Finish());
  }
  SCORPION_RETURN_NOT_OK(reader.Finish());
  SCORPION_RETURN_NOT_OK(table.FinalizeColumnwiseBuild());
  if (table.num_rows() != num_rows) {
    return Status::InvalidArgument(
        "table: declared " + std::to_string(num_rows) + " rows but columns " +
        "carry " + std::to_string(table.num_rows()));
  }
  return table;
}

std::string TableToJson(const Table& table) {
  return TableToJsonValue(table).Dump();
}

Result<Table> TableFromJson(const std::string& json) {
  SCORPION_ASSIGN_OR_RETURN(JsonValue value, JsonValue::Parse(json));
  return TableFromJsonValue(value);
}

// --- GroupByQuery ------------------------------------------------------------

JsonValue GroupByQueryToJsonValue(const GroupByQuery& query) {
  JsonValue out = JsonValue::Object();
  out.Add("aggregate", JsonValue::String(query.aggregate));
  out.Add("agg_attr", JsonValue::String(query.agg_attr));
  JsonValue group_by = JsonValue::Array();
  for (const std::string& attr : query.group_by) {
    group_by.Append(JsonValue::String(attr));
  }
  out.Add("group_by", std::move(group_by));
  return out;
}

Result<GroupByQuery> GroupByQueryFromJsonValue(const JsonValue& value) {
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(value, "group_by_query"));
  GroupByQuery query;
  SCORPION_ASSIGN_OR_RETURN(query.aggregate, reader.GetString("aggregate"));
  SCORPION_ASSIGN_OR_RETURN(query.agg_attr, reader.GetString("agg_attr"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* group_by,
                            reader.GetArray("group_by"));
  SCORPION_ASSIGN_OR_RETURN(query.group_by,
                            StringArray(group_by, "group_by_query group_by"));
  SCORPION_RETURN_NOT_OK(reader.Finish());
  return query;
}

// --- ExplainRequest ----------------------------------------------------------

std::string ExplainRequest::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Add("version", JsonValue::Number(static_cast<double>(kWireVersion)));
  JsonValue outliers = JsonValue::Array();
  for (const OutlierFlag& flag : outliers_) {
    JsonValue o = JsonValue::Object();
    o.Add("key", JsonValue::String(flag.key));
    o.Add("error", JsonValue::Number(flag.error));
    outliers.Append(std::move(o));
  }
  out.Add("outliers", std::move(outliers));
  JsonValue holdouts = JsonValue::Array();
  for (const std::string& key : holdouts_) {
    holdouts.Append(JsonValue::String(key));
  }
  out.Add("holdouts", std::move(holdouts));
  JsonValue attrs = JsonValue::Array();
  for (const std::string& attr : attributes_) {
    attrs.Append(JsonValue::String(attr));
  }
  out.Add("attributes", std::move(attrs));
  out.Add("algorithm", JsonValue::String(AlgorithmToString(algorithm_)));
  out.Add("c", JsonValue::Number(c_));
  out.Add("lambda", JsonValue::Number(lambda_));
  out.Add("influence_mode",
          JsonValue::String(InfluenceModeToString(influence_mode_)));
  out.Add("top_k", JsonValue::Number(static_cast<double>(top_k_)));
  out.Add("what_if", JsonValue::Bool(what_if_));
  out.Add("priority", JsonValue::Number(static_cast<double>(priority_)));
  if (deadline_seconds_.has_value()) {
    out.Add("deadline_seconds", JsonValue::Number(*deadline_seconds_));
  }
  return out.Dump();
}

Result<ExplainRequest> ExplainRequest::FromJson(const std::string& json) {
  SCORPION_ASSIGN_OR_RETURN(JsonValue value, JsonValue::Parse(json));
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader reader,
                            JsonObjectReader::Make(value, "explain_request"));
  SCORPION_ASSIGN_OR_RETURN(int64_t version, reader.GetInt("version"));
  if (version != kWireVersion) {
    return reader.Error("unsupported version " + std::to_string(version));
  }

  ExplainRequest request;
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* outliers,
                            reader.GetArray("outliers"));
  for (const JsonValue& item : outliers->items()) {
    SCORPION_ASSIGN_OR_RETURN(
        JsonObjectReader flag_reader,
        JsonObjectReader::Make(item, "explain_request outlier"));
    OutlierFlag flag;
    SCORPION_ASSIGN_OR_RETURN(flag.key, flag_reader.GetString("key"));
    SCORPION_ASSIGN_OR_RETURN(flag.error, flag_reader.GetDouble("error"));
    SCORPION_RETURN_NOT_OK(flag_reader.Finish());
    request.Flag(std::move(flag.key), flag.error);
  }
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* holdouts,
                            reader.GetArray("holdouts"));
  SCORPION_ASSIGN_OR_RETURN(
      request.holdouts_, StringArray(holdouts, "explain_request holdouts"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* attrs,
                            reader.GetArray("attributes"));
  SCORPION_ASSIGN_OR_RETURN(
      request.attributes_,
      StringArray(attrs, "explain_request attributes"));
  SCORPION_ASSIGN_OR_RETURN(std::string algorithm,
                            reader.GetString("algorithm"));
  SCORPION_ASSIGN_OR_RETURN(request.algorithm_,
                            AlgorithmFromString(algorithm));
  SCORPION_ASSIGN_OR_RETURN(request.c_, reader.GetDouble("c"));
  SCORPION_ASSIGN_OR_RETURN(request.lambda_, reader.GetDouble("lambda"));
  SCORPION_ASSIGN_OR_RETURN(std::string mode,
                            reader.GetString("influence_mode"));
  SCORPION_ASSIGN_OR_RETURN(request.influence_mode_,
                            InfluenceModeFromString(mode));
  SCORPION_ASSIGN_OR_RETURN(int64_t top_k, reader.GetInt("top_k"));
  if (top_k < 0) return reader.Error("top_k must be non-negative");
  request.top_k_ = static_cast<size_t>(top_k);
  SCORPION_ASSIGN_OR_RETURN(request.what_if_, reader.GetBool("what_if"));
  SCORPION_ASSIGN_OR_RETURN(int64_t priority, reader.GetInt("priority"));
  request.priority_ = static_cast<int>(priority);
  if (reader.Has("deadline_seconds")) {
    SCORPION_ASSIGN_OR_RETURN(double deadline,
                              reader.GetDouble("deadline_seconds"));
    request.deadline_seconds_ = deadline;
  }
  SCORPION_RETURN_NOT_OK(reader.Finish());
  SCORPION_RETURN_NOT_OK(request.Validate());
  return request;
}

// --- ExplainResponse ---------------------------------------------------------

namespace {

JsonValue RankedPredicateToJson(const RankedPredicate& rp) {
  JsonValue out = JsonValue::Object();
  out.Add("predicate", PredicateToJsonValue(rp.pred));
  out.Add("influence", ScoreToJson(rp.influence));
  out.Add("display", JsonValue::String(rp.display));
  return out;
}

Result<RankedPredicate> RankedPredicateFromJson(const JsonValue& value) {
  SCORPION_ASSIGN_OR_RETURN(
      JsonObjectReader reader,
      JsonObjectReader::Make(value, "response predicate"));
  RankedPredicate rp;
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* pred,
                            reader.GetMember("predicate"));
  SCORPION_ASSIGN_OR_RETURN(rp.pred, PredicateFromJsonValue(*pred));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* influence,
                            reader.GetMember("influence"));
  SCORPION_ASSIGN_OR_RETURN(rp.influence,
                            ScoreFromJson(*influence, "response influence"));
  SCORPION_ASSIGN_OR_RETURN(rp.display, reader.GetString("display"));
  SCORPION_RETURN_NOT_OK(reader.Finish());
  return rp;
}

}  // namespace

std::string ExplainResponse::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Add("version", JsonValue::Number(static_cast<double>(kWireVersion)));
  out.Add("algorithm", JsonValue::String(AlgorithmToString(algorithm)));
  JsonValue preds = JsonValue::Array();
  for (const RankedPredicate& rp : predicates) {
    preds.Append(RankedPredicateToJson(rp));
  }
  out.Add("predicates", std::move(preds));
  JsonValue entries = JsonValue::Array();
  for (const WhatIfEntry& entry : what_if) {
    JsonValue e = JsonValue::Object();
    e.Add("key", JsonValue::String(entry.key));
    // Sentinel encoding: `updated` is NaN when the winning predicate
    // annihilates a group whose aggregate is undefined on the empty bag.
    e.Add("original", ScoreToJson(entry.original));
    e.Add("updated", ScoreToJson(entry.updated));
    e.Add("tuples_removed",
          JsonValue::Number(static_cast<double>(entry.tuples_removed)));
    e.Add("is_outlier", JsonValue::Bool(entry.is_outlier));
    e.Add("is_holdout", JsonValue::Bool(entry.is_holdout));
    entries.Append(std::move(e));
  }
  out.Add("what_if", std::move(entries));
  JsonValue cps = JsonValue::Array();
  for (const CheckpointEntry& cp : checkpoints) {
    JsonValue c = JsonValue::Object();
    c.Add("elapsed_seconds", JsonValue::Number(cp.elapsed_seconds));
    c.Add("influence", ScoreToJson(cp.influence));
    c.Add("predicate", PredicateToJsonValue(cp.pred));
    cps.Append(std::move(c));
  }
  out.Add("checkpoints", std::move(cps));
  out.Add("naive_exhausted", JsonValue::Bool(naive_exhausted));
  JsonValue s = JsonValue::Object();
  s.Add("runtime_seconds", JsonValue::Number(stats.runtime_seconds));
  s.Add("cache_partitions_hit", JsonValue::Bool(stats.cache_partitions_hit));
  s.Add("cache_result_hit", JsonValue::Bool(stats.cache_result_hit));
  s.Add("predicate_scores",
        JsonValue::Number(static_cast<double>(stats.predicate_scores)));
  s.Add("group_deltas",
        JsonValue::Number(static_cast<double>(stats.group_deltas)));
  s.Add("tuple_scores",
        JsonValue::Number(static_cast<double>(stats.tuple_scores)));
  s.Add("rows_filtered",
        JsonValue::Number(static_cast<double>(stats.rows_filtered)));
  s.Add("match_cache_hits",
        JsonValue::Number(static_cast<double>(stats.match_cache_hits)));
  out.Add("stats", std::move(s));
  return out.Dump();
}

Result<ExplainResponse> ExplainResponse::FromJson(const std::string& json) {
  SCORPION_ASSIGN_OR_RETURN(JsonValue value, JsonValue::Parse(json));
  SCORPION_ASSIGN_OR_RETURN(
      JsonObjectReader reader,
      JsonObjectReader::Make(value, "explain_response"));
  SCORPION_ASSIGN_OR_RETURN(int64_t version, reader.GetInt("version"));
  if (version != kWireVersion) {
    return reader.Error("unsupported version " + std::to_string(version));
  }

  ExplainResponse response;
  SCORPION_ASSIGN_OR_RETURN(std::string algorithm,
                            reader.GetString("algorithm"));
  SCORPION_ASSIGN_OR_RETURN(response.algorithm,
                            AlgorithmFromString(algorithm));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* preds,
                            reader.GetArray("predicates"));
  for (const JsonValue& item : preds->items()) {
    SCORPION_ASSIGN_OR_RETURN(RankedPredicate rp,
                              RankedPredicateFromJson(item));
    response.predicates.push_back(std::move(rp));
  }
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* entries,
                            reader.GetArray("what_if"));
  for (const JsonValue& item : entries->items()) {
    SCORPION_ASSIGN_OR_RETURN(
        JsonObjectReader entry_reader,
        JsonObjectReader::Make(item, "response what_if entry"));
    WhatIfEntry entry;
    SCORPION_ASSIGN_OR_RETURN(entry.key, entry_reader.GetString("key"));
    SCORPION_ASSIGN_OR_RETURN(const JsonValue* original,
                              entry_reader.GetMember("original"));
    SCORPION_ASSIGN_OR_RETURN(
        entry.original, ScoreFromJson(*original, "what_if original"));
    SCORPION_ASSIGN_OR_RETURN(const JsonValue* updated,
                              entry_reader.GetMember("updated"));
    SCORPION_ASSIGN_OR_RETURN(entry.updated,
                              ScoreFromJson(*updated, "what_if updated"));
    SCORPION_ASSIGN_OR_RETURN(double removed,
                              entry_reader.GetDouble("tuples_removed"));
    SCORPION_ASSIGN_OR_RETURN(
        entry.tuples_removed,
        CountFromDouble(removed, "response tuples_removed"));
    SCORPION_ASSIGN_OR_RETURN(entry.is_outlier,
                              entry_reader.GetBool("is_outlier"));
    SCORPION_ASSIGN_OR_RETURN(entry.is_holdout,
                              entry_reader.GetBool("is_holdout"));
    SCORPION_RETURN_NOT_OK(entry_reader.Finish());
    response.what_if.push_back(std::move(entry));
  }
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* cps,
                            reader.GetArray("checkpoints"));
  for (const JsonValue& item : cps->items()) {
    SCORPION_ASSIGN_OR_RETURN(
        JsonObjectReader cp_reader,
        JsonObjectReader::Make(item, "response checkpoint"));
    CheckpointEntry cp;
    SCORPION_ASSIGN_OR_RETURN(cp.elapsed_seconds,
                              cp_reader.GetDouble("elapsed_seconds"));
    SCORPION_ASSIGN_OR_RETURN(const JsonValue* influence,
                              cp_reader.GetMember("influence"));
    SCORPION_ASSIGN_OR_RETURN(
        cp.influence, ScoreFromJson(*influence, "checkpoint influence"));
    SCORPION_ASSIGN_OR_RETURN(const JsonValue* pred,
                              cp_reader.GetMember("predicate"));
    SCORPION_ASSIGN_OR_RETURN(cp.pred, PredicateFromJsonValue(*pred));
    SCORPION_RETURN_NOT_OK(cp_reader.Finish());
    response.checkpoints.push_back(std::move(cp));
  }
  SCORPION_ASSIGN_OR_RETURN(response.naive_exhausted,
                            reader.GetBool("naive_exhausted"));
  SCORPION_ASSIGN_OR_RETURN(const JsonValue* stats,
                            reader.GetObject("stats"));
  SCORPION_ASSIGN_OR_RETURN(JsonObjectReader stats_reader,
                            JsonObjectReader::Make(*stats, "response stats"));
  SCORPION_ASSIGN_OR_RETURN(response.stats.runtime_seconds,
                            stats_reader.GetDouble("runtime_seconds"));
  SCORPION_ASSIGN_OR_RETURN(response.stats.cache_partitions_hit,
                            stats_reader.GetBool("cache_partitions_hit"));
  SCORPION_ASSIGN_OR_RETURN(response.stats.cache_result_hit,
                            stats_reader.GetBool("cache_result_hit"));
  struct CounterField {
    const char* key;
    uint64_t* slot;
  };
  CounterField counters[] = {
      {"predicate_scores", &response.stats.predicate_scores},
      {"group_deltas", &response.stats.group_deltas},
      {"tuple_scores", &response.stats.tuple_scores},
      {"rows_filtered", &response.stats.rows_filtered},
      {"match_cache_hits", &response.stats.match_cache_hits},
  };
  for (const CounterField& field : counters) {
    SCORPION_ASSIGN_OR_RETURN(double raw, stats_reader.GetDouble(field.key));
    SCORPION_ASSIGN_OR_RETURN(*field.slot,
                              CountFromDouble(raw, field.key));
  }
  SCORPION_RETURN_NOT_OK(stats_reader.Finish());
  SCORPION_RETURN_NOT_OK(reader.Finish());
  return response;
}

}  // namespace scorpion
