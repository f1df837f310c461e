// JSON wire format for the public API types. ExplainRequest / ExplainResponse
// expose ToJson/FromJson as members (declared on the types, implemented
// here); Predicate and ProblemSpec are core types the api layer serializes
// via these free functions, so src/core keeps no JSON dependency.
//
// Every FromJson is strict: malformed documents, type mismatches, out-of-
// domain values, and unknown fields are all InvalidArgument (a document from
// a newer schema is rejected, never half-applied). Every ToJson is
// deterministic and bit-stable through a parse/re-serialize cycle (see
// common/json.h).
#pragma once

#include <string>

#include "common/json.h"
#include "common/result.h"
#include "core/options.h"
#include "core/problem.h"
#include "predicate/predicate.h"
#include "query/groupby.h"
#include "table/table.h"

namespace scorpion {

/// Wire names for the Algorithm enum ("NAIVE" / "DT" / "MC", matching
/// AlgorithmToString) and the InfluenceMode enum ("delete" / "mean_shift").
Result<Algorithm> AlgorithmFromString(const std::string& name);
const char* InfluenceModeToString(InfluenceMode mode);
Result<InfluenceMode> InfluenceModeFromString(const std::string& name);

/// Predicate <-> JSON value tree / document. Set clauses carry dictionary
/// codes; the optional display string on response predicates is where
/// humans look.
JsonValue PredicateToJsonValue(const Predicate& pred);
Result<Predicate> PredicateFromJsonValue(const JsonValue& value);
std::string PredicateToJson(const Predicate& pred);
Result<Predicate> PredicateFromJson(const std::string& json);

/// ProblemSpec <-> JSON (index-based, the resolved form of a request).
JsonValue ProblemSpecToJsonValue(const ProblemSpec& problem);
Result<ProblemSpec> ProblemSpecFromJsonValue(const JsonValue& value);
std::string ProblemSpecToJson(const ProblemSpec& problem);
Result<ProblemSpec> ProblemSpecFromJson(const std::string& json);

/// Table <-> JSON: schema (names + types), row count, and the full encoded
/// column payloads — double values for continuous columns, dictionary plus
/// codes for categorical ones. The deserialized table reproduces the
/// sender's encoding exactly (same dictionary order, same codes), so wire
/// predicates carrying dictionary codes and content fingerprints both stay
/// valid across the hop. Finite doubles ride as JSON numbers (the writer is
/// shortest-round-trip, so the bit pattern survives); non-finite ones as
/// 16-hex-digit bit-pattern strings, preserving NaN payloads.
JsonValue TableToJsonValue(const Table& table);
Result<Table> TableFromJsonValue(const JsonValue& value);
std::string TableToJson(const Table& table);
Result<Table> TableFromJson(const std::string& json);

/// Doubles that must survive the wire bit-exactly (table data, influence
/// scores). Finite values ride as JSON numbers through the shortest-round-
/// trip writer; non-finite ones (JSON has no syntax for them) as
/// 16-hex-digit bit-pattern strings, NaN payload included. The reader
/// rejects a finite value in bit-pattern form, so each double has exactly
/// one encoding; `context` prefixes its error messages.
JsonValue WireDoubleToJson(double v);
Result<double> WireDoubleFromJson(const JsonValue& value,
                                  const std::string& context);

/// GroupByQuery <-> JSON.
JsonValue GroupByQueryToJsonValue(const GroupByQuery& query);
Result<GroupByQuery> GroupByQueryFromJsonValue(const JsonValue& value);

}  // namespace scorpion
