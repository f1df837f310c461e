// Public API surface: ExplainRequest builder validation and key resolution,
// Engine::Open / Dataset handles, byte-identity of dataset.Explain against
// the internal Scorpion engine, the built-in what-if view, and the async
// path (ExplainAsync == Explain, deadlines, cancellation, priorities).
#include "api/dataset.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "core/scorer.h"
#include "core/scorpion.h"
#include "eval/experiment.h"
#include "test_helpers.h"
#include "workload/synth.h"

namespace scorpion {
namespace {

using testing_helpers::PaperQuery;
using testing_helpers::PaperSensorsTable;

ExplainRequest PaperRequest() {
  return ExplainRequest()
      .FlagTooHigh("12PM")
      .FlagTooHigh("1PM")
      .Holdout("11AM")
      .WithAttributes({"sensorid", "voltage"})
      .WithLambda(0.8)
      .WithC(0.5);
}

EngineOptions TinyEngineOptions() {
  EngineOptions options;
  options.engine.dt.min_partition_size = 1;
  return options;
}

// --- ExplainRequest builder --------------------------------------------------

TEST(ExplainRequestBuilder, FluentCallsAccumulate) {
  ExplainRequest request = ExplainRequest()
                               .FlagTooHigh("a")
                               .FlagTooLow("b")
                               .Flag("c", 2.5)
                               .Holdout("d")
                               .Holdouts({"e", "f"})
                               .WithAttributes({"x", "y"})
                               .WithAlgorithm(Algorithm::kMC)
                               .WithC(0.25)
                               .WithLambda(0.75)
                               .WithInfluenceMode(InfluenceMode::kMeanShift)
                               .WithTopK(3)
                               .WithWhatIf(false)
                               .WithPriority(7)
                               .WithDeadlineAfter(1.5);
  ASSERT_EQ(request.outliers().size(), 3u);
  EXPECT_EQ(request.outliers()[0], (OutlierFlag{"a", +1.0}));
  EXPECT_EQ(request.outliers()[1], (OutlierFlag{"b", -1.0}));
  EXPECT_EQ(request.outliers()[2], (OutlierFlag{"c", 2.5}));
  EXPECT_EQ(request.holdouts(), (std::vector<std::string>{"d", "e", "f"}));
  EXPECT_EQ(request.attributes(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(request.algorithm(), Algorithm::kMC);
  EXPECT_EQ(request.c(), 0.25);
  EXPECT_EQ(request.lambda(), 0.75);
  EXPECT_EQ(request.influence_mode(), InfluenceMode::kMeanShift);
  EXPECT_EQ(request.top_k(), 3u);
  EXPECT_FALSE(request.what_if());
  EXPECT_EQ(request.priority(), 7);
  ASSERT_TRUE(request.deadline_seconds().has_value());
  EXPECT_EQ(*request.deadline_seconds(), 1.5);
  EXPECT_TRUE(request.Validate().ok());
  EXPECT_FALSE(request.WithoutDeadline().deadline_seconds().has_value());
}

TEST(ExplainRequestBuilder, ValidateCatchesKeyLevelMistakes) {
  // No outliers at all.
  EXPECT_TRUE(ExplainRequest()
                  .WithAttributes({"x"})
                  .Validate()
                  .IsInvalidArgument());
  // Duplicate outlier key.
  EXPECT_TRUE(ExplainRequest()
                  .FlagTooHigh("a")
                  .FlagTooLow("a")
                  .WithAttributes({"x"})
                  .Validate()
                  .IsInvalidArgument());
  // Duplicate hold-out key.
  EXPECT_TRUE(ExplainRequest()
                  .FlagTooHigh("a")
                  .Holdout("b")
                  .Holdout("b")
                  .WithAttributes({"x"})
                  .Validate()
                  .IsInvalidArgument());
  // Key flagged both ways.
  EXPECT_TRUE(ExplainRequest()
                  .FlagTooHigh("a")
                  .Holdout("a")
                  .WithAttributes({"x"})
                  .Validate()
                  .IsInvalidArgument());
  // Zero / non-finite error weight.
  EXPECT_TRUE(ExplainRequest()
                  .Flag("a", 0.0)
                  .WithAttributes({"x"})
                  .Validate()
                  .IsInvalidArgument());
  EXPECT_TRUE(ExplainRequest()
                  .Flag("a", std::numeric_limits<double>::quiet_NaN())
                  .WithAttributes({"x"})
                  .Validate()
                  .IsInvalidArgument());
  // Knob domains (incl. the NaN-passes-range-checks trap).
  EXPECT_TRUE(PaperRequest().WithLambda(1.5).Validate().IsInvalidArgument());
  EXPECT_TRUE(PaperRequest()
                  .WithLambda(std::numeric_limits<double>::quiet_NaN())
                  .Validate()
                  .IsInvalidArgument());
  EXPECT_TRUE(PaperRequest().WithC(-0.1).Validate().IsInvalidArgument());
  EXPECT_TRUE(PaperRequest()
                  .WithC(std::numeric_limits<double>::infinity())
                  .Validate()
                  .IsInvalidArgument());
  // Missing / duplicate attributes.
  EXPECT_TRUE(ExplainRequest()
                  .FlagTooHigh("a")
                  .Validate()
                  .IsInvalidArgument());
  EXPECT_TRUE(PaperRequest()
                  .WithAttributes({"x", "x"})
                  .Validate()
                  .IsInvalidArgument());
  // Negative / non-finite deadline.
  EXPECT_TRUE(
      PaperRequest().WithDeadlineAfter(-1.0).Validate().IsInvalidArgument());
  EXPECT_TRUE(PaperRequest()
                  .WithDeadlineAfter(std::numeric_limits<double>::infinity())
                  .Validate()
                  .IsInvalidArgument());
}

TEST(ExplainRequestBuilder, ResolveBindsKeysToIndicesOnce) {
  Table table = PaperSensorsTable();
  auto qr = ExecuteGroupBy(table, PaperQuery());
  ASSERT_TRUE(qr.ok());

  auto problem = PaperRequest().Resolve(*qr);
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();
  EXPECT_EQ(problem->outliers, (std::vector<int>{1, 2}));
  EXPECT_EQ(problem->holdouts, (std::vector<int>{0}));
  EXPECT_EQ(problem->error_vectors, (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(problem->lambda, 0.8);
  EXPECT_EQ(problem->c, 0.5);
  EXPECT_EQ(problem->attributes,
            (std::vector<std::string>{"sensorid", "voltage"}));

  // Unknown keys are one clean KeyError naming the key — the replacement
  // for the old per-key CHECK_OK(FindResult(...)) + ValueOrDie() pattern.
  auto missing = PaperRequest().FlagTooHigh("2PM").Resolve(*qr);
  EXPECT_TRUE(missing.status().IsKeyError());
  EXPECT_NE(missing.status().message().find("2PM"), std::string::npos);
}

// --- Engine / Dataset --------------------------------------------------------

TEST(EngineOpen, ExecutesQueryAndReportsErrors) {
  Table table = PaperSensorsTable();
  Engine engine;
  auto dataset = engine.Open(table, PaperQuery());
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->result().results.size(), 3u);
  EXPECT_EQ(&dataset->table(), &table);

  GroupByQuery bad = PaperQuery();
  bad.agg_attr = "nope";
  EXPECT_TRUE(engine.Open(table, bad).status().IsKeyError());
}

TEST(DatasetExplain, MatchesTheInternalEngineByteForByte) {
  // The acceptance criterion: a deterministic-mode dataset.Explain() must be
  // byte-identical to the pre-redesign Scorpion::Explain() on the same
  // problem — the facade adds a surface, not a behaviour.
  SynthOptions opts = SynthPreset(2, /*easy=*/true, /*seed=*/21);
  opts.tuples_per_group = 300;
  auto synth = GenerateSynth(opts);
  ASSERT_TRUE(synth.ok());

  Engine engine;
  auto dataset = engine.Open(synth->table, synth->query);
  ASSERT_TRUE(dataset.ok());

  ExplainRequest base;
  for (const std::string& key : synth->outlier_keys) base.FlagTooHigh(key);
  base.Holdouts(synth->holdout_keys)
      .WithAttributes(synth->attributes)
      .WithLambda(0.5);

  for (Algorithm algorithm : {Algorithm::kDT, Algorithm::kMC}) {
    for (double c : {0.5, 0.2, 0.5 /* exact-c repeat hits the cache */}) {
      ExplainRequest request =
          ExplainRequest(base).WithAlgorithm(algorithm).WithC(c);
      auto response = dataset->Explain(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();

      Scorpion direct;  // fresh engine: no session reuse
      direct.mutable_options().algorithm = algorithm;
      auto problem = dataset->Resolve(request);
      ASSERT_TRUE(problem.ok());
      auto expected = direct.Explain(synth->table, dataset->result(),
                                     *problem);
      ASSERT_TRUE(expected.ok());

      ASSERT_EQ(response->predicates.size(), expected->predicates.size());
      for (size_t i = 0; i < expected->predicates.size(); ++i) {
        EXPECT_EQ(response->predicates[i].pred, expected->predicates[i].pred)
            << "rank " << i;
        EXPECT_EQ(response->predicates[i].influence,
                  expected->predicates[i].influence)
            << "rank " << i;
      }
    }
  }
  // The repeated (algorithm, c) pairs must have come from this dataset's
  // session, not recomputation.
  auto cached = dataset->Explain(ExplainRequest(base).WithC(0.5));
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->stats.cache_result_hit);
}

TEST(DatasetExplain, WhatIfViewMatchesHandRolledScorerLoop) {
  Table table = PaperSensorsTable();
  EngineOptions options = TinyEngineOptions();
  Engine engine(options);
  auto dataset = engine.Open(table, PaperQuery());
  ASSERT_TRUE(dataset.ok());

  ExplainRequest request = PaperRequest();
  auto response = dataset->Explain(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_FALSE(response->predicates.empty());
  EXPECT_EQ(response->best().display, "sensorid in {'3'}");

  // The response's what-if view must equal the loop quickstart.cpp used to
  // hand-roll from Scorer internals.
  auto problem = dataset->Resolve(request);
  ASSERT_TRUE(problem.ok());
  auto scorer = Scorer::Make(table, dataset->result(), *problem);
  ASSERT_TRUE(scorer.ok());
  auto bound = response->best().pred.Bind(table);
  ASSERT_TRUE(bound.ok());
  ASSERT_EQ(response->what_if.size(), dataset->result().results.size());
  for (int i = 0; i < static_cast<int>(response->what_if.size()); ++i) {
    const AggregateResult& r = dataset->result().results[i];
    const WhatIfEntry& entry = response->what_if[static_cast<size_t>(i)];
    Selection matched = *bound->Filter(r.input_group);
    EXPECT_EQ(entry.key, r.key_string);
    EXPECT_EQ(entry.original, r.value);
    EXPECT_EQ(entry.updated, scorer->UpdatedValue(i, matched));
    EXPECT_EQ(entry.tuples_removed, matched.size());
  }
  // The paper's annotations: 12PM/1PM outliers, 11AM hold-out.
  EXPECT_FALSE(response->what_if[0].is_outlier);
  EXPECT_TRUE(response->what_if[0].is_holdout);
  EXPECT_TRUE(response->what_if[1].is_outlier);
  EXPECT_TRUE(response->what_if[2].is_outlier);
  // Deleting sensor 3's reading must pull 12PM's average back to normal.
  EXPECT_NEAR(response->what_if[1].updated, 35.0, 1e-9);
}

TEST(DatasetExplain, DifferentAnnotationSetsDoNotShareSessions) {
  // Sessions are valid for one annotation set only. Two requests on the
  // same dataset with different outliers must not serve each other's
  // cached results (the exact-c fast path keys only on c within a
  // session); each must match a fresh dataset's answer.
  SynthOptions opts = SynthPreset(2, /*easy=*/true, /*seed=*/31);
  opts.tuples_per_group = 250;
  auto synth = GenerateSynth(opts);
  ASSERT_TRUE(synth.ok());

  Engine engine;
  auto dataset = engine.Open(synth->table, synth->query);
  ASSERT_TRUE(dataset.ok());

  ExplainRequest first;
  for (const std::string& key : synth->outlier_keys) first.FlagTooHigh(key);
  first.Holdouts(synth->holdout_keys)
      .WithAttributes(synth->attributes)
      .WithLambda(0.5)
      .WithC(0.5);
  // Same c, same attributes — but a different annotation set: swap the
  // outlier/hold-out roles and change lambda.
  ExplainRequest second;
  for (const std::string& key : synth->holdout_keys) second.FlagTooLow(key);
  second.Holdouts(synth->outlier_keys)
      .WithAttributes(synth->attributes)
      .WithLambda(0.9)
      .WithC(0.5);

  auto r1 = dataset->Explain(first);
  ASSERT_TRUE(r1.ok());
  auto r2 = dataset->Explain(second);
  ASSERT_TRUE(r2.ok());
  // The second request ran cold — nothing of the first problem's session
  // may leak into it.
  EXPECT_FALSE(r2->stats.cache_result_hit);
  EXPECT_FALSE(r2->stats.cache_partitions_hit);

  auto fresh = engine.Open(synth->table, synth->query);
  ASSERT_TRUE(fresh.ok());
  auto expected = fresh->Explain(second);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(r2->predicates, expected->predicates);

  // And each request still hits its own session on repeat.
  auto r1_again = dataset->Explain(first);
  ASSERT_TRUE(r1_again.ok());
  EXPECT_TRUE(r1_again->stats.cache_result_hit);
  EXPECT_EQ(r1_again->predicates, r1->predicates);
}

TEST(DatasetExplainAsync, HandleSurvivesDatasetMove) {
  Table table = PaperSensorsTable();
  Engine engine(TinyEngineOptions());
  auto opened = engine.Open(table, PaperQuery());
  ASSERT_TRUE(opened.ok());

  auto handle = opened->ExplainAsync(PaperRequest());
  ASSERT_TRUE(handle.ok());
  // Move the Dataset out from under the pending handle; the handle shares
  // ownership of the query result, so Get() must still work.
  Dataset moved = std::move(*opened);
  auto response = handle->Get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->best().display, "sensorid in {'3'}");
  // The moved-to dataset remains fully usable.
  auto again = moved.Explain(PaperRequest());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->predicates, response->predicates);
}

TEST(DatasetExplain, WhatIfViewCanBeDisabled) {
  // The what-if view costs a pass over the table, so latency-sensitive
  // repeat callers (e.g. polling a cached c) can opt out per request.
  Table table = PaperSensorsTable();
  Engine engine(TinyEngineOptions());
  auto dataset = engine.Open(table, PaperQuery());
  ASSERT_TRUE(dataset.ok());

  auto lean = dataset->Explain(PaperRequest().WithWhatIf(false));
  ASSERT_TRUE(lean.ok());
  EXPECT_TRUE(lean->what_if.empty());
  auto full = dataset->Explain(PaperRequest());
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->what_if.empty());
  EXPECT_EQ(lean->predicates, full->predicates);
}

TEST(DatasetExplain, TopKOverridesEngineDefault) {
  Table table = PaperSensorsTable();
  Engine engine(TinyEngineOptions());
  auto dataset = engine.Open(table, PaperQuery());
  ASSERT_TRUE(dataset.ok());

  auto full = dataset->Explain(PaperRequest());
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full->predicates.size(), 1u);

  auto top1 = dataset->Explain(PaperRequest().WithTopK(1));
  ASSERT_TRUE(top1.ok());
  ASSERT_EQ(top1->predicates.size(), 1u);
  EXPECT_EQ(top1->best().pred, full->best().pred);
}

TEST(DatasetExplain, SurfacesResolutionAndEngineErrors) {
  Table table = PaperSensorsTable();
  Engine engine(TinyEngineOptions());
  auto dataset = engine.Open(table, PaperQuery());
  ASSERT_TRUE(dataset.ok());

  // Bad key -> KeyError before the engine ever runs.
  EXPECT_TRUE(dataset->Explain(PaperRequest().FlagTooHigh("nope"))
                  .status()
                  .IsKeyError());
  // Unknown attribute -> engine-level error, propagated.
  EXPECT_FALSE(
      dataset->Explain(PaperRequest().WithAttributes({"ghost"})).ok());
  // MC on AVG (not anti-monotonic) stays gated.
  EXPECT_TRUE(dataset->Explain(PaperRequest().WithAlgorithm(Algorithm::kMC))
                  .status()
                  .IsInvalidArgument());
}

// --- Async path --------------------------------------------------------------

TEST(DatasetExplainAsync, MatchesSynchronousExplain) {
  SynthOptions opts = SynthPreset(2, /*easy=*/true, /*seed=*/23);
  opts.tuples_per_group = 250;
  auto synth = GenerateSynth(opts);
  ASSERT_TRUE(synth.ok());

  Engine engine;
  auto dataset = engine.Open(synth->table, synth->query);
  ASSERT_TRUE(dataset.ok());

  ExplainRequest base;
  for (const std::string& key : synth->outlier_keys) base.FlagTooHigh(key);
  base.Holdouts(synth->holdout_keys)
      .WithAttributes(synth->attributes)
      .WithLambda(0.5);

  // Submit the whole sweep, then compare against sync runs on a *separate*
  // dataset (so neither path feeds the other's cache).
  auto reference = engine.Open(synth->table, synth->query);
  ASSERT_TRUE(reference.ok());

  std::vector<PendingExplanation> pending;
  const std::vector<double> cs = {0.5, 0.3, 0.1};
  for (double c : cs) {
    auto handle = dataset->ExplainAsync(ExplainRequest(base).WithC(c));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    EXPECT_GT(handle->id(), 0u);
    pending.push_back(std::move(*handle));
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    ASSERT_TRUE(pending[i].valid());
    auto async_response = pending[i].Get();
    ASSERT_TRUE(async_response.ok()) << async_response.status().ToString();
    EXPECT_FALSE(pending[i].valid());

    auto sync_response =
        reference->Explain(ExplainRequest(base).WithC(cs[i]));
    ASSERT_TRUE(sync_response.ok());
    // Identical content up to cache/runtime stats.
    EXPECT_EQ(async_response->predicates, sync_response->predicates);
    EXPECT_EQ(async_response->what_if, sync_response->what_if);
    EXPECT_EQ(async_response->algorithm, sync_response->algorithm);

    // Get() is one-shot.
    EXPECT_TRUE(pending[i].Get().status().IsInvalidArgument());
  }
  EXPECT_EQ(engine.service_stats().completed, cs.size());
}

TEST(DatasetExplain, WarmStartModeOnlyImprovesInfluence) {
  // EngineOptions::cross_c_warm_start, the one public Section 8.3.3 switch:
  // merges warm-started from the dataset's session can only improve (or
  // tie) a cold run's influence, on the sync and the async path alike —
  // and on this fixture they do change the ranking at some c, which shows
  // the switch reaches both paths.
  SynthOptions opts = SynthPreset(2, /*easy=*/true, /*seed=*/67);
  opts.num_groups = 6;
  opts.tuples_per_group = 250;
  auto synth = GenerateSynth(opts);
  ASSERT_TRUE(synth.ok());

  EngineOptions options;
  options.num_workers = 1;  // descending-c completion order, like Figure 16
  options.cross_c_warm_start = true;
  Engine engine(options);
  auto sync_dataset = engine.Open(synth->table, synth->query);
  auto async_dataset = engine.Open(synth->table, synth->query);
  ASSERT_TRUE(sync_dataset.ok());
  ASSERT_TRUE(async_dataset.ok());

  ExplainRequest base;
  for (const std::string& key : synth->outlier_keys) base.FlagTooHigh(key);
  base.Holdouts(synth->holdout_keys)
      .WithAttributes(synth->attributes)
      .WithLambda(0.5);

  const auto differs = [](const ExplainResponse& warm,
                          const Explanation& cold) {
    if (warm.predicates.size() != cold.predicates.size()) return true;
    for (size_t i = 0; i < cold.predicates.size(); ++i) {
      if (!(warm.predicates[i].pred == cold.predicates[i].pred) ||
          warm.predicates[i].influence != cold.predicates[i].influence) {
        return true;
      }
    }
    return false;
  };
  bool sync_differed = false;
  bool async_differed = false;
  for (double c : {0.5, 0.3, 0.1}) {
    const ExplainRequest request = ExplainRequest(base).WithC(c);
    auto warm_sync = sync_dataset->Explain(request);
    ASSERT_TRUE(warm_sync.ok()) << warm_sync.status().ToString();
    auto pending = async_dataset->ExplainAsync(request);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    auto warm_async = pending->Get();
    ASSERT_TRUE(warm_async.ok()) << warm_async.status().ToString();

    Scorpion cold;
    auto problem = sync_dataset->Resolve(request);
    ASSERT_TRUE(problem.ok());
    auto direct =
        cold.Explain(synth->table, sync_dataset->result(), *problem);
    ASSERT_TRUE(direct.ok());
    // Extra warm-start seeds can only improve (or tie) the merge.
    EXPECT_GE(warm_sync->predicates.front().influence,
              direct->best().influence - 1e-12)
        << "c=" << c;
    EXPECT_GE(warm_async->predicates.front().influence,
              direct->best().influence - 1e-12)
        << "c=" << c;
    sync_differed |= differs(*warm_sync, *direct);
    async_differed |= differs(*warm_async, *direct);
  }
  EXPECT_TRUE(sync_differed);
  EXPECT_TRUE(async_differed);
}

TEST(DatasetExplainAsync, ExpiredDeadlineAndInvalidRequests) {
  Table table = PaperSensorsTable();
  Engine engine(TinyEngineOptions());
  auto dataset = engine.Open(table, PaperQuery());
  ASSERT_TRUE(dataset.ok());

  // Invalid request: rejected at resolution, nothing is submitted.
  auto bad = dataset->ExplainAsync(PaperRequest().FlagTooHigh("nope"));
  EXPECT_TRUE(bad.status().IsKeyError());
  EXPECT_EQ(engine.service_stats().submitted, 0u);

  // A deadline of zero seconds expires before the worker starts on any
  // machine: the future must carry DeadlineExceeded.
  auto handle = dataset->ExplainAsync(PaperRequest().WithDeadlineAfter(0.0));
  ASSERT_TRUE(handle.ok());
  auto result = handle->Get();
  // Zero deadline usually expires first, but a fast worker may legitimately
  // start in time; both outcomes are contractual.
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsDeadlineExceeded())
        << result.status().ToString();
  }
}

TEST(DatasetExplainAsync, DroppedHandleAndDatasetKeepQueryResultAlive) {
  // A caller may fire-and-forget: drop the PendingExplanation AND the
  // Dataset while the job is still queued. The job's shared ownership of
  // the query result must keep it alive until the worker finishes (the
  // table is borrowed by contract and outlives the engine here).
  Table table = PaperSensorsTable();
  Engine engine(TinyEngineOptions());
  {
    auto dataset = engine.Open(table, PaperQuery());
    ASSERT_TRUE(dataset.ok());
    auto handle = dataset->ExplainAsync(PaperRequest());
    ASSERT_TRUE(handle.ok());
  }  // both dropped here
  ServiceStatsSnapshot stats;
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = engine.service_stats();
  } while (stats.completed + stats.failed + stats.cancelled < 1);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(DatasetExplainAsync, CancelQueuedRequest) {
  Table table = PaperSensorsTable();
  EngineOptions options = TinyEngineOptions();
  options.num_workers = 0;  // nothing drains the queue
  Engine engine(options);
  auto dataset = engine.Open(table, PaperQuery());
  ASSERT_TRUE(dataset.ok());

  EXPECT_FALSE(engine.Cancel(123));  // service not even started yet

  auto handle = dataset->ExplainAsync(PaperRequest());
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(engine.Cancel(handle->id()));
  EXPECT_TRUE(handle->Get().status().IsCancelled());
  EXPECT_FALSE(engine.Cancel(handle->id()));
}

/// A 6-group, 2-D SYNTH SUM table and the request flagging its outliers.
struct SynthCase {
  SynthDataset synth;
  ExplainRequest request;
};

SynthCase MakeSynthCase(uint64_t seed) {
  SynthOptions opts = SynthPreset(2, /*easy=*/true, seed);
  opts.num_groups = 6;
  opts.tuples_per_group = 250;
  SynthCase out;
  out.synth = GenerateSynth(opts).ValueOrDie();
  out.synth.query.aggregate = "SUM";
  for (const std::string& key : out.synth.outlier_keys) {
    out.request.FlagTooHigh(key);
  }
  out.request.Holdouts(out.synth.holdout_keys)
      .WithAttributes(out.synth.attributes)
      .WithLambda(0.5);
  return out;
}

void ExpectSamePredicates(const Explanation& expected,
                          const ExplainResponse& actual) {
  ASSERT_EQ(expected.predicates.size(), actual.predicates.size());
  for (size_t i = 0; i < expected.predicates.size(); ++i) {
    EXPECT_EQ(expected.predicates[i].pred, actual.predicates[i].pred)
        << "rank " << i;
    EXPECT_EQ(expected.predicates[i].influence, actual.predicates[i].influence)
        << "rank " << i;
  }
}

TEST(DatasetExplainAsync, ConcurrentSubmitsMatchDirectExplainByteForByte) {
  // 8 concurrent clients, 56 mixed-c requests over 2 datasets, on an Engine
  // whose one 2-thread scoring pool serves all 4 async workers (so TSan
  // races the shared pool and each dataset's shared session). Every
  // response must be byte-identical to a direct serial Scorpion::Explain()
  // of the same request, and the repeats must hit the session cache.
  SynthCase cases[2] = {MakeSynthCase(17), MakeSynthCase(29)};
  const std::vector<double> cs = {0.5, 0.3, 0.1};

  EngineOptions options;
  options.engine.num_threads = 2;
  options.num_workers = 4;
  Engine engine(options);
  std::vector<Dataset> datasets;
  for (const SynthCase& sc : cases) {
    auto opened = engine.Open(sc.synth.table, sc.synth.query);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    datasets.push_back(std::move(*opened));
  }

  // Direct serial baselines, one per (dataset, c).
  Explanation expected[2][3];
  for (int d = 0; d < 2; ++d) {
    for (size_t ci = 0; ci < cs.size(); ++ci) {
      auto problem =
          datasets[d].Resolve(ExplainRequest(cases[d].request).WithC(cs[ci]));
      ASSERT_TRUE(problem.ok()) << problem.status().ToString();
      Scorpion direct;  // default options: kDT, num_threads = 1
      auto e = direct.Explain(cases[d].synth.table, datasets[d].result(),
                              *problem);
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      expected[d][ci] = std::move(*e);
    }
  }

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 7;
  struct Issued {
    int dataset;
    size_t c_index;
    Result<PendingExplanation> pending;
  };
  std::vector<std::vector<Issued>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int d = (t + r) % 2;
        const size_t ci = static_cast<size_t>(t + 2 * r) % cs.size();
        per_client[t].push_back(
            {d, ci,
             datasets[d].ExplainAsync(
                 ExplainRequest(cases[d].request).WithC(cs[ci]))});
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (auto& issued_list : per_client) {
    for (Issued& issued : issued_list) {
      ASSERT_TRUE(issued.pending.ok()) << issued.pending.status().ToString();
      auto response = issued.pending->Get();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ExpectSamePredicates(expected[issued.dataset][issued.c_index],
                           *response);
    }
  }

  ServiceStatsSnapshot snap = engine.service_stats();
  EXPECT_EQ(snap.submitted,
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(snap.completed, snap.submitted);
  EXPECT_EQ(snap.shed, 0u);
  // 56 requests over 6 (dataset, c) pairs: the repeats must reuse session
  // state.
  EXPECT_GT(snap.cache_partition_hits + snap.cache_result_hits, 0u);
  EXPECT_GT(snap.p95_latency_seconds, 0.0);
  EXPECT_GE(snap.p95_latency_seconds, snap.p50_latency_seconds);
}

TEST(DatasetExplainAsync, ServesNaiveAndMCAlgorithms) {
  // The request's algorithm overrides the engine default on the async path,
  // and the rest of EngineOptions::engine (here NAIVE's knobs) reaches the
  // run.
  SynthCase sc = MakeSynthCase(61);
  EngineOptions options;
  options.num_workers = 2;
  options.engine.naive.num_continuous_splits = 5;
  options.engine.naive.time_budget_seconds = 120.0;
  Engine engine(options);
  auto dataset = engine.Open(sc.synth.table, sc.synth.query);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  const ExplainRequest request = ExplainRequest(sc.request).WithC(0.5);
  auto mc = dataset->ExplainAsync(
      ExplainRequest(request).WithAlgorithm(Algorithm::kMC));
  auto naive = dataset->ExplainAsync(
      ExplainRequest(request).WithAlgorithm(Algorithm::kNaive));
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();

  auto problem = dataset->Resolve(request);
  ASSERT_TRUE(problem.ok());
  for (Algorithm algorithm : {Algorithm::kMC, Algorithm::kNaive}) {
    ScorpionOptions direct_options = options.engine;
    direct_options.algorithm = algorithm;
    auto direct = Scorpion(direct_options)
                      .Explain(sc.synth.table, dataset->result(), *problem);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto served = (algorithm == Algorithm::kMC ? *mc : *naive).Get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->algorithm, algorithm);
    ExpectSamePredicates(*direct, *served);
  }
}

}  // namespace
}  // namespace scorpion
