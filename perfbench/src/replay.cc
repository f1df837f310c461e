#include "replay.h"

#include <limits>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "core/dt.h"
#include "core/mc.h"
#include "core/merger.h"
#include "core/scorer.h"

namespace perfbench {

using namespace scorpion;

namespace {

void CountScorer(Tracer& tracer, ScorerStats& stats) {
  tracer.Count("scorer.predicate_scores", stats.predicate_scores.load());
  tracer.Count("scorer.rows_filtered", stats.rows_filtered.load());
  tracer.Count("scorer.match_cache_hits", stats.match_cache_hits.load());
  tracer.Count("scorer.tuple_scores", stats.tuple_scores.load());
  tracer.Count("table.blocks_none", stats.blocks_pruned_none.load());
  tracer.Count("table.blocks_all", stats.blocks_pruned_all.load());
  tracer.Count("table.blocks_partial", stats.blocks_partial.load());
  tracer.Count("table.rows_skipped_by_pruning",
               stats.rows_skipped_by_pruning.load());
  tracer.Count("table.selection_conversions",
               stats.bitmap_to_vector.load() + stats.vector_to_bitmap.load());
  tracer.Count("predicate.candidate_batches", stats.candidate_batches.load());
  tracer.Count("predicate.blocks_shared",
               stats.blocks_shared_across_candidates.load());
}

/// The seed LiveDataset::Refresh parks on a session whose partitions were
/// built over an older generation (ExplainSession::BeginDeltaRefresh).
std::unique_ptr<SessionDeltaSeed> DeltaSeed(const ReplaySession& session,
                                            size_t num_rows) {
  if (session.partitions.empty() || session.num_rows >= num_rows) {
    return nullptr;
  }
  auto seed = std::make_unique<SessionDeltaSeed>();
  seed->old_num_rows = session.num_rows;
  for (const ScoredPredicate& sp : session.partitions) {
    if (sp.matches != nullptr) {
      seed->matches_by_pred[sp.pred.ToString(nullptr)] = sp.matches;
    }
  }
  seed->old_index_by_key = session.index_by_key;
  return seed;
}

Result<std::vector<ScoredPredicate>> ReplayDT(Tracer& tracer,
                                              const ScorpionOptions& options,
                                              const Table& table,
                                              const QueryResult& result,
                                              const ProblemSpec& problem,
                                              const Scorer& scorer,
                                              ReplaySession* session) {
  if (session->partitions.empty() || session->num_rows != table.num_rows()) {
    std::unique_ptr<SessionDeltaSeed> seed =
        DeltaSeed(*session, table.num_rows());
    DTPartitioner dt(scorer, options.dt);
    Result<std::vector<ScoredPredicate>> partitions = [&] {
      Tracer::Span span(tracer, "dt.run");
      return dt.Run();
    }();
    SCORPION_RETURN_NOT_OK(partitions.status());
    tracer.Count("dt.nodes", static_cast<double>(dt.stats().nodes));
    tracer.Count("dt.tuple_influences",
                 static_cast<double>(dt.stats().tuple_influences));
    size_t seed_hits = 0;  // groups whose matches the delta seed extended
    {
      Tracer::Span span(tracer, "dt.match_cache");
      for (ScoredPredicate& sp : *partitions) {
        SCORPION_ASSIGN_OR_RETURN(
            sp.matches,
            scorer.BuildMatchCacheExtended(sp.pred, seed.get(), &seed_hits));
      }
    }
    tracer.Count("storage.delta_seed_hits", static_cast<double>(seed_hits));
    session->partitions = partitions.MoveValueUnsafe();
    session->num_rows = table.num_rows();
    session->index_by_key.clear();
    for (size_t i = 0; i < result.results.size(); ++i) {
      session->index_by_key[result.results[i].key_string] =
          static_cast<int>(i);
    }
  }
  std::vector<ScoredPredicate> partitions = session->partitions;
  for (ScoredPredicate& sp : partitions) {
    sp.influence = -std::numeric_limits<double>::infinity();
  }
  Result<DomainMap> domains = [&] {
    Tracer::Span span(tracer, "predicate.domains");
    return ComputeDomains(table, problem.attributes);
  }();
  SCORPION_RETURN_NOT_OK(domains.status());
  Merger merger(scorer, domains.MoveValueUnsafe(), options.merger);
  Result<std::vector<ScoredPredicate>> merged = [&] {
    Tracer::Span span(tracer, "merger.run");
    return merger.Run(std::move(partitions));
  }();
  SCORPION_RETURN_NOT_OK(merged.status());
  const MergerStats& stats = merger.stats();
  tracer.Count("merger.exact_scores", stats.exact_scores.load());
  tracer.Count("merger.estimated_scores", stats.estimated_scores.load());
  tracer.Count("merger.merges_accepted", stats.merges_accepted.load());
  std::vector<ScoredPredicate> out = merged.MoveValueUnsafe();
  for (ScoredPredicate& sp : out) sp.matches.reset();
  return out;
}

}  // namespace

Result<std::vector<ScoredPredicate>> ReplaySearch(
    Tracer& tracer, const Table& table, const QueryResult& result,
    const ProblemSpec& problem, Algorithm algorithm, ReplaySession* session) {
  // Engine defaults, as Dataset::Explain runs them (serial scoring).
  const ScorpionOptions options;
  Result<Scorer> made = [&] {
    Tracer::Span span(tracer, "scorer.make");
    return Scorer::Make(table, result, problem);
  }();
  SCORPION_RETURN_NOT_OK(made.status());
  Scorer scorer = made.MoveValueUnsafe();
  scorer.set_enable_block_pruning(options.enable_block_pruning);
  scorer.set_enable_candidate_batching(options.enable_candidate_batching);

  std::vector<ScoredPredicate> ranked;
  if (algorithm == Algorithm::kMC) {
    MCPartitioner mc(scorer, options.mc, options.merger);
    Result<std::vector<ScoredPredicate>> out = [&] {
      Tracer::Span span(tracer, "mc.run");
      return mc.Run();
    }();
    SCORPION_RETURN_NOT_OK(out.status());
    tracer.Count("mc.predicates_scored",
                 static_cast<double>(mc.stats().predicates_scored));
    tracer.Count("mc.predicates_pruned",
                 static_cast<double>(mc.stats().predicates_pruned));
    tracer.Count("mc.iterations", static_cast<double>(mc.stats().iterations));
    ranked = out.MoveValueUnsafe();
  } else if (algorithm == Algorithm::kDT) {
    SCORPION_ASSIGN_OR_RETURN(ranked, ReplayDT(tracer, options, table, result,
                                               problem, scorer, session));
  } else {
    return Status::InvalidArgument("the benchmark replays DT and MC only");
  }
  if (ranked.size() > options.top_k) ranked.resize(options.top_k);
  CountScorer(tracer, scorer.stats());
  return ranked;
}

Status ReplayWhatIf(Tracer& tracer, const Table& table,
                    const QueryResult& result, const ProblemSpec& problem,
                    const ExplainResponse& response) {
  std::vector<double> updated;
  std::vector<uint64_t> removed;
  {
    Tracer::Span span(tracer, "api.what_if");
    SCORPION_ASSIGN_OR_RETURN(Scorer scorer,
                              Scorer::Make(table, result, problem));
    SCORPION_ASSIGN_OR_RETURN(BoundPredicate bound,
                              response.best().pred.Bind(table));
    scorer.ConfigureBound(&bound);
    for (size_t i = 0; i < result.results.size(); ++i) {
      SCORPION_ASSIGN_OR_RETURN(Selection matched,
                                bound.Filter(result.results[i].input_group));
      updated.push_back(scorer.UpdatedValue(static_cast<int>(i), matched));
      removed.push_back(matched.size());
    }
  }
  if (response.what_if.size() != updated.size()) {
    return Status::Internal("what-if replay: group count differs");
  }
  for (size_t i = 0; i < updated.size(); ++i) {
    const WhatIfEntry& entry = response.what_if[i];
    const bool same_value =
        entry.updated == updated[i] ||
        (entry.updated != entry.updated && updated[i] != updated[i]);
    if (!same_value || entry.tuples_removed != removed[i]) {
      return Status::Internal("what-if replay differs for group " +
                              entry.key);
    }
  }
  return Status::OK();
}

Status ReplayWire(Tracer& tracer, const ExplainRequest& request,
                  const ExplainResponse& response) {
  {
    Tracer::Span span(tracer, "api.request_json");
    SCORPION_ASSIGN_OR_RETURN(ExplainRequest back,
                              ExplainRequest::FromJson(request.ToJson()));
    if (!(back == request)) {
      return Status::Internal("request JSON round trip differs");
    }
  }
  Tracer::Span span(tracer, "api.response_json");
  const std::string json = response.ToJson();
  tracer.Count("api.response_json_bytes", static_cast<double>(json.size()));
  SCORPION_ASSIGN_OR_RETURN(ExplainResponse back,
                            ExplainResponse::FromJson(json));
  if (!(back == response)) {
    return Status::Internal("response JSON round trip differs");
  }
  return Status::OK();
}

}  // namespace perfbench
