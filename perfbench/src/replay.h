// Traced replay of one explain request through the public entry points of
// each src/ module, mirroring what Dataset::Explain runs internally:
//
//   DT:      Scorer::Make -> DTPartitioner::Run -> Scorer::BuildMatchCache
//            per partition -> ComputeDomains -> Merger::Run
//   MC:      Scorer::Make -> MCPartitioner::Run
//   what-if: Scorer::Make, Predicate::Bind, BoundPredicate::Filter and
//            Scorer::UpdatedValue per result group
//   wire:    ExplainRequest / ExplainResponse ToJson + FromJson
//
// Each stage runs inside a Tracer span and adds its work counters. The
// replay uses the engine defaults Dataset::Explain runs with, so its ranked
// list must be bit-identical to the response it replays.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "api/dataset.h"
#include "core/scored_predicate.h"
#include "trace.h"

namespace perfbench {

/// What a replayed annotation set keeps across c values and generations,
/// the way the engine's ExplainSession does: the DT partitions with their
/// match caches and the table they were built over.
struct ReplaySession {
  std::vector<scorpion::ScoredPredicate> partitions;  // empty until cold
  size_t num_rows = 0;
  /// Result index per group key at the time the partitions were built
  /// (the delta seed needs it after groups shift).
  std::map<std::string, int> index_by_key;
};

/// Replays the search of one explain and returns its ranked list (top-k,
/// match caches dropped). For DT, `session` supplies and receives the
/// cached partitions; a session built over fewer rows is extended with a
/// delta seed, as LiveDataset::Refresh arranges for the engine.
scorpion::Result<std::vector<scorpion::ScoredPredicate>> ReplaySearch(
    Tracer& tracer, const scorpion::Table& table,
    const scorpion::QueryResult& result, const scorpion::ProblemSpec& problem,
    scorpion::Algorithm algorithm, ReplaySession* session);

/// Replays the response's what-if view and checks it bit for bit.
scorpion::Status ReplayWhatIf(Tracer& tracer, const scorpion::Table& table,
                              const scorpion::QueryResult& result,
                              const scorpion::ProblemSpec& problem,
                              const scorpion::ExplainResponse& response);

/// Round-trips the request and the response through the JSON wire format
/// and checks that both come back equal.
scorpion::Status ReplayWire(Tracer& tracer,
                            const scorpion::ExplainRequest& request,
                            const scorpion::ExplainResponse& response);

}  // namespace perfbench
