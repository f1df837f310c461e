// JSON wire format: round-trip property tests over randomized predicates,
// problems, requests and responses (FromJson(ToJson(x)) == x and
// ToJson(FromJson(ToJson(x))) byte-identical to ToJson(x)), plus strict
// rejection of unknown fields and malformed documents.
#include "api/serialization.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "api/explain_request.h"
#include "api/explain_response.h"
#include "common/json.h"
#include "common/random.h"
#include "reference/json_number.h"

namespace scorpion {
namespace {

// --- Randomized generators ---------------------------------------------------

/// A double that survives text round trips interestingly: mix of integers,
/// "nice" decimals and full-precision noise.
double RandomDouble(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return static_cast<double>(rng.UniformInt(-1000, 1000));
    case 1:
      return rng.Uniform(-10.0, 10.0);
    case 2:
      return rng.Uniform(-1e12, 1e12);
    default:
      return rng.Uniform(0.0, 1.0) * std::pow(10.0, rng.UniformInt(-20, 20));
  }
}

std::string RandomKey(Rng& rng, const char* prefix) {
  std::string key = prefix;
  key += std::to_string(rng.UniformInt(0, 1'000'000));
  if (rng.Bernoulli(0.2)) key += "\"quoted\\weird\n\tkey\x01";
  return key;
}

Predicate RandomPredicate(Rng& rng) {
  Predicate pred;
  int num_ranges = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < num_ranges; ++i) {
    RangeClause clause;
    clause.attr = "r" + std::to_string(i);
    // Bounded magnitudes: at astronomic scales lo + width == lo and the
    // clause would be an (invalid) empty range.
    clause.lo = rng.Uniform(-1e9, 1e9);
    clause.hi = clause.lo + rng.Uniform(0.5, 1e6);
    clause.hi_inclusive = rng.Bernoulli(0.5);
    EXPECT_TRUE(pred.AddRange(clause).ok());
  }
  int num_sets = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < num_sets; ++i) {
    SetClause clause;
    clause.attr = "s" + std::to_string(i);
    int n = static_cast<int>(rng.UniformInt(1, 6));
    for (int j = 0; j < n; ++j) {
      clause.codes.push_back(static_cast<int32_t>(rng.UniformInt(0, 500)));
    }
    EXPECT_TRUE(pred.AddSet(clause).ok());
  }
  return pred;
}

ProblemSpec RandomProblem(Rng& rng) {
  ProblemSpec problem;
  int num_outliers = static_cast<int>(rng.UniformInt(1, 5));
  for (int i = 0; i < num_outliers; ++i) {
    problem.outliers.push_back(static_cast<int>(rng.UniformInt(0, 100)));
    problem.error_vectors.push_back(rng.Bernoulli(0.5) ? 1.0
                                                       : RandomDouble(rng));
  }
  int num_holdouts = static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < num_holdouts; ++i) {
    problem.holdouts.push_back(static_cast<int>(rng.UniformInt(0, 100)));
  }
  problem.lambda = rng.Uniform(0.0, 1.0);
  problem.c = rng.Uniform(0.0, 2.0);
  int num_attrs = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < num_attrs; ++i) {
    problem.attributes.push_back(RandomKey(rng, "attr"));
  }
  problem.influence_mode =
      rng.Bernoulli(0.5) ? InfluenceMode::kDelete : InfluenceMode::kMeanShift;
  return problem;
}

ExplainRequest RandomRequest(Rng& rng) {
  ExplainRequest request;
  int num_outliers = static_cast<int>(rng.UniformInt(1, 5));
  for (int i = 0; i < num_outliers; ++i) {
    std::string key = "o" + std::to_string(i) + RandomKey(rng, "_");
    double error = rng.Bernoulli(0.5) ? (rng.Bernoulli(0.5) ? 1.0 : -1.0)
                                      : rng.Uniform(0.1, 3.0);
    request.Flag(key, error);
  }
  int num_holdouts = static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < num_holdouts; ++i) {
    request.Holdout("h" + std::to_string(i) + RandomKey(rng, "_"));
  }
  std::vector<std::string> attrs;
  int num_attrs = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < num_attrs; ++i) {
    attrs.push_back("a" + std::to_string(i));
  }
  request.WithAttributes(std::move(attrs));
  Algorithm algorithms[] = {Algorithm::kNaive, Algorithm::kDT, Algorithm::kMC};
  request.WithAlgorithm(algorithms[rng.UniformInt(0, 2)]);
  request.WithC(rng.Uniform(0.0, 2.0));
  request.WithLambda(rng.Uniform(0.0, 1.0));
  request.WithInfluenceMode(rng.Bernoulli(0.5) ? InfluenceMode::kDelete
                                               : InfluenceMode::kMeanShift);
  request.WithTopK(static_cast<size_t>(rng.UniformInt(0, 10)));
  request.WithWhatIf(rng.Bernoulli(0.8));
  request.WithPriority(static_cast<int>(rng.UniformInt(-5, 5)));
  if (rng.Bernoulli(0.5)) {
    request.WithDeadlineAfter(rng.Uniform(0.0, 100.0));
  }
  return request;
}

ExplainResponse RandomResponse(Rng& rng) {
  ExplainResponse response;
  Algorithm algorithms[] = {Algorithm::kNaive, Algorithm::kDT, Algorithm::kMC};
  response.algorithm = algorithms[rng.UniformInt(0, 2)];
  int num_preds = static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < num_preds; ++i) {
    RankedPredicate rp;
    rp.pred = RandomPredicate(rng);
    // Non-finite influence is legitimate (annihilated AVG groups score
    // -inf) and must survive the wire via the sentinel encoding.
    rp.influence = rng.Bernoulli(0.15)
                       ? -std::numeric_limits<double>::infinity()
                       : RandomDouble(rng);
    rp.display = RandomKey(rng, "display");
    response.predicates.push_back(std::move(rp));
  }
  int num_what_if = static_cast<int>(rng.UniformInt(0, 5));
  for (int i = 0; i < num_what_if; ++i) {
    WhatIfEntry entry;
    entry.key = RandomKey(rng, "group");
    entry.original = RandomDouble(rng);
    entry.updated = RandomDouble(rng);
    entry.tuples_removed = static_cast<uint64_t>(rng.UniformInt(0, 1 << 20));
    entry.is_outlier = rng.Bernoulli(0.3);
    entry.is_holdout = !entry.is_outlier && rng.Bernoulli(0.3);
    response.what_if.push_back(std::move(entry));
  }
  if (rng.Bernoulli(0.4)) {
    int num_cps = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < num_cps; ++i) {
      CheckpointEntry cp;
      cp.elapsed_seconds = rng.Uniform(0.0, 60.0);
      cp.influence = RandomDouble(rng);
      cp.pred = RandomPredicate(rng);
      response.checkpoints.push_back(std::move(cp));
    }
    response.naive_exhausted = rng.Bernoulli(0.5);
  }
  response.stats.runtime_seconds = rng.Uniform(0.0, 10.0);
  response.stats.cache_partitions_hit = rng.Bernoulli(0.3);
  response.stats.cache_result_hit = rng.Bernoulli(0.3);
  response.stats.predicate_scores = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
  response.stats.group_deltas = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
  response.stats.tuple_scores = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
  response.stats.rows_filtered = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
  response.stats.match_cache_hits =
      static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
  return response;
}

// --- Round-trip properties ---------------------------------------------------

TEST(JsonRoundTrip, RandomizedPredicates) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    Predicate pred = RandomPredicate(rng);
    std::string json = PredicateToJson(pred);
    auto parsed = PredicateFromJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
    EXPECT_EQ(*parsed, pred) << json;
    EXPECT_EQ(PredicateToJson(*parsed), json) << "re-serialization drifted";
  }
}

TEST(JsonRoundTrip, RandomizedProblemSpecs) {
  Rng rng(103);
  for (int trial = 0; trial < 200; ++trial) {
    ProblemSpec problem = RandomProblem(rng);
    std::string json = ProblemSpecToJson(problem);
    auto parsed = ProblemSpecFromJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
    EXPECT_EQ(parsed->outliers, problem.outliers);
    EXPECT_EQ(parsed->holdouts, problem.holdouts);
    EXPECT_EQ(parsed->error_vectors, problem.error_vectors);
    EXPECT_EQ(parsed->lambda, problem.lambda);
    EXPECT_EQ(parsed->c, problem.c);
    EXPECT_EQ(parsed->attributes, problem.attributes);
    EXPECT_EQ(parsed->influence_mode, problem.influence_mode);
    EXPECT_EQ(ProblemSpecToJson(*parsed), json);
  }
}

TEST(JsonRoundTrip, RandomizedRequestsBitIdentical) {
  Rng rng(107);
  for (int trial = 0; trial < 200; ++trial) {
    ExplainRequest request = RandomRequest(rng);
    std::string json = request.ToJson();
    auto parsed = ExplainRequest::FromJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
    EXPECT_EQ(*parsed, request) << json;
    EXPECT_EQ(parsed->ToJson(), json) << "re-serialization drifted";
  }
}

TEST(JsonRoundTrip, RandomizedResponses) {
  Rng rng(109);
  for (int trial = 0; trial < 150; ++trial) {
    ExplainResponse response = RandomResponse(rng);
    std::string json = response.ToJson();
    auto parsed = ExplainResponse::FromJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
    EXPECT_EQ(*parsed, response) << json;
    EXPECT_EQ(parsed->ToJson(), json) << "re-serialization drifted";
  }
}

// --- Strictness --------------------------------------------------------------

TEST(JsonStrictness, UnknownFieldsAreRejectedEverywhere) {
  ExplainRequest request = ExplainRequest()
                               .FlagTooHigh("12PM")
                               .Holdout("11AM")
                               .WithAttributes({"sensorid"});
  std::string json = request.ToJson();

  // Top-level unknown field.
  std::string with_extra = json;
  with_extra.insert(with_extra.size() - 1, ",\"shiny_new_knob\":true");
  auto r1 = ExplainRequest::FromJson(with_extra);
  ASSERT_TRUE(r1.status().IsInvalidArgument());
  EXPECT_NE(r1.status().message().find("shiny_new_knob"), std::string::npos);

  // Nested unknown field (inside an outlier flag).
  std::string nested =
      json.substr(0, json.find("\"error\":1}")) +
      "\"error\":1,\"weight\":2}" +
      json.substr(json.find("\"error\":1}") + std::string("\"error\":1}").size());
  auto r2 = ExplainRequest::FromJson(nested);
  ASSERT_TRUE(r2.status().IsInvalidArgument());
  EXPECT_NE(r2.status().message().find("weight"), std::string::npos);

  // Same for predicates and responses.
  auto p = PredicateFromJson(
      "{\"ranges\":[],\"sets\":[],\"bonus\":1}");
  EXPECT_TRUE(p.status().IsInvalidArgument());
  auto ps = ProblemSpecFromJson(
      "{\"outliers\":[0],\"holdouts\":[],\"error_vectors\":[1],"
      "\"lambda\":0.5,\"c\":1,\"attributes\":[\"a\"],"
      "\"influence_mode\":\"delete\",\"extra\":0}");
  EXPECT_TRUE(ps.status().IsInvalidArgument());
}

TEST(JsonStrictness, MalformedDocumentsAreRejected) {
  const char* malformed[] = {
      "",                                  // empty
      "{",                                 // truncated object
      "[1,2",                              // truncated array
      "{\"version\":1,}",                  // trailing comma
      "{\"version\" 1}",                   // missing colon
      "{'version':1}",                     // single quotes
      "{\"version\":01}",                  // leading zero
      "{\"version\":1} trailing",          // trailing garbage
      "{\"version\":NaN}",                 // bare NaN literal
      "{\"a\":1,\"a\":2}",                 // duplicate member
      "{\"s\":\"\\q\"}",                   // bad escape
      "{\"s\":\"\\ud800\"}",               // unpaired surrogate
      "\"unterminated",                    // unterminated string
      "{\"version\":1e999}",               // overflowing number
  };
  for (const char* doc : malformed) {
    EXPECT_TRUE(JsonValue::Parse(doc).status().IsInvalidArgument())
        << "accepted: " << doc;
    EXPECT_FALSE(ExplainRequest::FromJson(doc).ok()) << doc;
    EXPECT_FALSE(ExplainResponse::FromJson(doc).ok()) << doc;
  }
}

TEST(JsonStrictness, TypeAndDomainMismatchesAreRejected) {
  ExplainRequest valid = ExplainRequest()
                             .FlagTooHigh("12PM")
                             .WithAttributes({"sensorid"});
  std::string json = valid.ToJson();

  struct Rewrite {
    const char* from;
    const char* to;
  };
  const Rewrite rewrites[] = {
      {"\"version\":1", "\"version\":2"},          // future schema
      {"\"version\":1", "\"version\":1.5"},        // non-integer version
      {"\"algorithm\":\"DT\"", "\"algorithm\":\"GREEDY\""},
      {"\"influence_mode\":\"delete\"", "\"influence_mode\":\"explode\""},
      {"\"lambda\":0.5", "\"lambda\":\"high\""},   // wrong type
      {"\"lambda\":0.5", "\"lambda\":2"},          // out of domain
      {"\"c\":1", "\"c\":-1"},                     // out of domain
      {"\"top_k\":0", "\"top_k\":-3"},             // negative count
      {"\"outliers\":[{\"key\":\"12PM\",\"error\":1}]",
       "\"outliers\":[]"},                         // no outliers
      {"\"error\":1", "\"error\":0"},              // zero weight
  };
  for (const Rewrite& rewrite : rewrites) {
    std::string mutated = json;
    size_t pos = mutated.find(rewrite.from);
    ASSERT_NE(pos, std::string::npos) << rewrite.from;
    mutated.replace(pos, std::string(rewrite.from).size(), rewrite.to);
    EXPECT_FALSE(ExplainRequest::FromJson(mutated).ok())
        << "accepted: " << rewrite.to;
  }

  // A missing required field is as bad as an unknown one.
  std::string no_lambda = json;
  size_t pos = no_lambda.find(",\"lambda\":0.5");
  ASSERT_NE(pos, std::string::npos);
  no_lambda.erase(pos, std::string(",\"lambda\":0.5").size());
  auto r = ExplainRequest::FromJson(no_lambda);
  ASSERT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().message().find("lambda"), std::string::npos);
}

TEST(JsonStrictness, OutOfRangeIntegersAreRejectedNotCast) {
  // These parsers face untrusted input; out-of-range doubles must be
  // rejected by a range check, never reach the (undefined) narrowing cast.
  auto codes = PredicateFromJson(
      "{\"ranges\":[],\"sets\":[{\"attr\":\"a\",\"codes\":[1e300]}]}");
  EXPECT_TRUE(codes.status().IsInvalidArgument());
  auto outliers = ProblemSpecFromJson(
      "{\"outliers\":[1e300],\"holdouts\":[],\"error_vectors\":[1],"
      "\"lambda\":0.5,\"c\":1,\"attributes\":[\"a\"],"
      "\"influence_mode\":\"delete\"}");
  EXPECT_TRUE(outliers.status().IsInvalidArgument());
  std::string big_version = ExplainRequest()
                                .FlagTooHigh("k")
                                .WithAttributes({"a"})
                                .ToJson();
  big_version.replace(big_version.find("\"version\":1"),
                      std::string("\"version\":1").size(),
                      "\"version\":1e18");
  EXPECT_TRUE(
      ExplainRequest::FromJson(big_version).status().IsInvalidArgument());
}

TEST(JsonRoundTrip, NonFiniteWhatIfValuesSurviveTheWire) {
  // `updated` is NaN when the winning predicate annihilates a group whose
  // aggregate is undefined on the empty bag (e.g. AVG); the sentinel
  // encoding must carry it through instead of emitting null.
  ExplainResponse response;
  WhatIfEntry entry;
  entry.key = "12PM";
  entry.original = 56.67;
  entry.updated = std::numeric_limits<double>::quiet_NaN();
  entry.tuples_removed = 3;
  entry.is_outlier = true;
  response.what_if.push_back(entry);
  response.what_if.push_back(WhatIfEntry{
      "1PM", 50.0, -std::numeric_limits<double>::infinity(), 2, true, false});

  std::string json = response.ToJson();
  auto parsed = ExplainResponse::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  ASSERT_EQ(parsed->what_if.size(), 2u);
  EXPECT_TRUE(std::isnan(parsed->what_if[0].updated));
  EXPECT_EQ(parsed->what_if[0].original, 56.67);
  EXPECT_EQ(parsed->what_if[1].updated,
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(parsed->ToJson(), json);
}

TEST(JsonNumbers, ShortestFormSurvivesRoundTrips) {
  // The writer's shortest-round-trip rendering is what makes re-serialized
  // documents byte-identical; spot-check representative values.
  Rng rng(113);
  for (int trial = 0; trial < 2000; ++trial) {
    double v = RandomDouble(rng);
    std::string text = JsonNumberToString(v);
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->number_value(), v) << text;
    EXPECT_EQ(JsonNumberToString(parsed->number_value()), text);
  }
  EXPECT_EQ(JsonNumberToString(0.1), "0.1");
  EXPECT_EQ(JsonNumberToString(5.0), "5");
  EXPECT_EQ(JsonNumberToString(-0.0), "-0");
  EXPECT_EQ(JsonNumberToString(1e300), "1e+300");
  // Power-of-two boundaries, where %g at the shortest digit count can miss
  // the narrow half of the round-trip interval and needs one digit more,
  // and the denormals.
  EXPECT_EQ(JsonNumberToString(std::ldexp(1.0, -1017)),
            "7.1202363472230444e-307");
  EXPECT_EQ(JsonNumberToString(std::ldexp(1.0, -1007)),
            "7.2911220195563975e-304");
  EXPECT_EQ(JsonNumberToString(std::numeric_limits<double>::denorm_min()),
            "5e-324");
  EXPECT_EQ(JsonNumberToString(-std::numeric_limits<double>::denorm_min()),
            "-5e-324");
  EXPECT_EQ(JsonNumberToString(std::numeric_limits<double>::min()),
            "2.2250738585072014e-308");
  EXPECT_EQ(JsonNumberToString(std::nextafter(
                std::numeric_limits<double>::min(), 0.0)),
            "2.225073858507201e-308");
  EXPECT_EQ(JsonNumberToString(std::numeric_limits<double>::max()),
            "1.7976931348623157e+308");
}

TEST(JsonNumbers, MatchesTheDigitSearchReference) {
  // The writer starts its %g search at std::to_chars' shortest digit count;
  // the reference searches from one digit. Both must print the same bytes.
  const auto expect_same = [](double v) {
    EXPECT_EQ(JsonNumberToString(v), reference::JsonNumberToString(v))
        << std::hexfloat << v;
  };
  // Every power of two with its one-ulp neighbours, denormals included.
  for (int e = -1074; e <= 1023; ++e) {
    const double v = std::ldexp(1.0, e);
    for (double x : {v, std::nextafter(v, 0.0),
                     std::nextafter(v, std::numeric_limits<double>::max())}) {
      expect_same(x);
      expect_same(-x);
    }
  }
  Rng rng(211);
  for (int i = 0; i < 20000; ++i) {
    // Raw bit patterns (NaNs, infinities and denormals included).
    const uint64_t bits = rng.engine()();
    double raw;
    std::memcpy(&raw, &bits, sizeof(raw));
    expect_same(raw);
    // Uniform reals, and two-decimal values like the workloads' prices.
    expect_same(rng.Uniform(-1e6, 1e6));
    expect_same(static_cast<double>(rng.UniformInt(-1000000, 1000000)) /
                100.0);
  }
}

TEST(JsonStrings, EscapesSurviveRoundTrips) {
  JsonValue obj = JsonValue::Object();
  obj.Add("k\"e\\y\n", JsonValue::String("v\t\r\x01\x1f" "normal ✓"));
  std::string dumped = obj.Dump();
  auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.ok()) << dumped;
  EXPECT_EQ(parsed->members()[0].first, "k\"e\\y\n");
  EXPECT_EQ(parsed->members()[0].second.string_value(),
            "v\t\r\x01\x1f" "normal ✓");
  EXPECT_EQ(parsed->Dump(), dumped);
  // \u escapes (incl. surrogate pairs) decode to UTF-8.
  auto unicode = JsonValue::Parse("\"\\u00e9\\ud83d\\ude00\"");
  ASSERT_TRUE(unicode.ok());
  EXPECT_EQ(unicode->string_value(), "\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(JsonEscapeString("plain"), "plain");
  EXPECT_EQ(JsonEscapeString("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscapeString("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscapeString("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscapeString(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace scorpion
