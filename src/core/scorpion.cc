#include "core/scorpion.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "core/dt.h"
#include "core/mc.h"
#include "core/merger.h"

namespace scorpion {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Attaches per-group match Selections (Scorer::BuildMatchCache) to each
/// partition. Done once when fresh DT partitions enter a session: filtering
/// is c-agnostic like the partitions themselves, so every later run against
/// the session rescoras them without touching the table. When `seed` is
/// non-null (a live-table delta refresh), predicates the previous
/// generation already cached extend their matches over only the appended
/// rows; `*seed_hits` accumulates how many groups were served that way.
/// Statuses land in per-index slots; the first error in partition order
/// wins.
Status AttachMatchCaches(const Scorer& scorer,
                         std::vector<ScoredPredicate>* partitions,
                         const SessionDeltaSeed* seed, size_t* seed_hits) {
  std::vector<Status> statuses(partitions->size());
  std::vector<size_t> hits(partitions->size(), 0);
  ParallelForOver(scorer.thread_pool(), 0, partitions->size(), [&](size_t i) {
    auto built = scorer.BuildMatchCacheExtended((*partitions)[i].pred, seed,
                                                &hits[i]);
    if (built.ok()) {
      (*partitions)[i].matches = built.MoveValueUnsafe();
    } else {
      statuses[i] = built.status();
    }
  });
  for (const Status& st : statuses) {
    SCORPION_RETURN_NOT_OK(st);
  }
  if (seed_hits != nullptr) {
    for (size_t h : hits) *seed_hits += h;
  }
  return Status::OK();
}

}  // namespace

bool ExplainSession::LookupMergedLocked(
    double c, std::vector<ScoredPredicate>* out) const {
  auto it = merged_by_c_.find(c);
  if (it == merged_by_c_.end()) return false;
  it->second.stamp = NextStamp();
  *out = it->second.merged;
  return true;
}

std::vector<ScoredPredicate> ExplainSession::WarmSeedsLocked(double c) const {
  // The map is descending, so entries with key > c form a prefix; the last
  // of them is the smallest such c'. Exact c hits are handled before this
  // is consulted.
  const std::vector<ScoredPredicate>* best = nullptr;
  for (const auto& [cached_c, entry] : merged_by_c_) {
    if (cached_c > c) {
      best = &entry.merged;
    } else {
      break;
    }
  }
  return best != nullptr ? *best : std::vector<ScoredPredicate>{};
}

void ExplainSession::StoreMergedLocked(double c,
                                       std::vector<ScoredPredicate> merged) {
  MergedEntry& entry = merged_by_c_[c];
  entry.merged = std::move(merged);
  entry.stamp = NextStamp();
  while (merged_by_c_.size() > kMaxMergedEntries) {
    // Evict the least-recently-used c (never the one just stamped).
    auto victim = merged_by_c_.begin();
    for (auto it = merged_by_c_.begin(); it != merged_by_c_.end(); ++it) {
      if (it->second.stamp.load() < victim->second.stamp.load()) victim = it;
    }
    merged_by_c_.erase(victim);
  }
}

const char* AlgorithmToString(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kNaive:
      return "NAIVE";
    case Algorithm::kDT:
      return "DT";
    case Algorithm::kMC:
      return "MC";
  }
  return "?";
}

void ExplainSession::DropStateLocked() {
  has_partitions_ = false;
  partitions_.clear();
  merged_by_c_.clear();
  seed_.reset();
}

void ExplainSession::Clear() {
  WriterMutexLock lock(mu_);
  DropStateLocked();
}

bool ExplainSession::AdvanceKeyLocked(uint64_t generation, size_t num_rows) {
  if (!key_.set || key_.generation < generation) {
    DropStateLocked();
    SetKeyLocked(generation, num_rows);
    return true;
  }
  return KeyUsableLocked(generation, num_rows);
}

bool ExplainSession::BeginDeltaRefresh(uint64_t new_generation,
                                       size_t new_num_rows,
                                       const QueryResult& old_result) {
  WriterMutexLock lock(mu_);
  std::unique_ptr<SessionDeltaSeed> seed;
  // A seed only makes sense when the session's cached state belongs to a
  // strictly smaller table (rows only grow under live ingest) and at least
  // one partition carries a match cache to extend.
  if (has_partitions_ && key_.set && key_.num_rows < new_num_rows) {
    seed = std::make_unique<SessionDeltaSeed>();
    seed->old_num_rows = key_.num_rows;
    for (const ScoredPredicate& sp : partitions_) {
      if (sp.matches != nullptr) {
        seed->matches[sp.pred] = sp.matches;
      }
    }
    for (size_t i = 0; i < old_result.results.size(); ++i) {
      seed->old_index_by_key[old_result.results[i].key_string] =
          static_cast<int>(i);
    }
    if (seed->matches.empty()) seed.reset();
  }
  DropStateLocked();
  SetKeyLocked(new_generation, new_num_rows);
  seed_ = std::move(seed);
  return seed_ != nullptr;
}

Scorpion::Scorpion(ScorpionOptions options) : options_(std::move(options)) {}

ThreadPool* Scorpion::EnsurePool() {
  if (external_pool_ != nullptr) return external_pool_;
  int want = options_.num_threads;
  if (want == 0) want = ThreadPool::DefaultNumThreads();
  if (want <= 1) {
    pool_.reset();
    return nullptr;
  }
  if (pool_ == nullptr || pool_->num_threads() != want) {
    pool_ = std::make_unique<ThreadPool>(want);
  }
  return pool_.get();
}

Result<Explanation> Scorpion::Explain(const Table& table,
                                      const QueryResult& result,
                                      const ProblemSpec& problem,
                                      ExplainSession* session,
                                      bool cross_c_warm_start) {
  WallTimer timer;

  // Data identity of this run. Cached session state is only read or written
  // when the session's DataKey matches — the guard that keeps a run pinned
  // to an old live-table generation from exchanging state with a session
  // that BeginDeltaRefresh has re-keyed under it (and vice versa).
  const uint64_t cur_generation = table.generation();
  const size_t cur_num_rows = table.num_rows();

  // Fast path: an exact-c session hit needs no scorer, partitioner or
  // merger — probe before paying Scorer::Make's per-group state build.
  if (options_.algorithm == Algorithm::kDT && session != nullptr) {
    Explanation out;
    bool hit = false;
    {
      ReaderMutexLock lock(session->mu_);
      hit = session->KeyUsableLocked(cur_generation, cur_num_rows) &&
            session->LookupMergedLocked(problem.c, &out.predicates);
    }
    if (hit) {
      out.algorithm = options_.algorithm;
      out.cache_result_hit = true;
      if (out.predicates.size() > options_.top_k) {
        out.predicates.resize(options_.top_k);
      }
      if (out.predicates.empty()) {
        return Status::Internal("search produced no predicates");
      }
      out.runtime_seconds = timer.ElapsedSeconds();
      return out;
    }
  }

  SCORPION_ASSIGN_OR_RETURN(Scorer scorer, Scorer::Make(table, result, problem));
  scorer.set_thread_pool(EnsurePool());
  scorer.set_enable_block_pruning(options_.enable_block_pruning);
  scorer.set_enable_candidate_batching(options_.enable_candidate_batching);

  Explanation out;
  out.algorithm = options_.algorithm;

  switch (options_.algorithm) {
    case Algorithm::kNaive: {
      NaivePartitioner naive(scorer, options_.naive);
      SCORPION_ASSIGN_OR_RETURN(NaiveResult nr, naive.Run());
      if (std::isfinite(nr.best.influence)) {
        out.predicates.push_back(std::move(nr.best));
      }
      out.naive_checkpoints = std::move(nr.checkpoints);
      out.naive_exhausted = nr.exhausted;
      break;
    }
    case Algorithm::kDT: {
      std::vector<ScoredPredicate> partitions;
      std::vector<ScoredPredicate> warm_seeds;
      bool have_partitions = false;
      if (session != nullptr) {
        ReaderMutexLock lock(session->mu_);
        // A key mismatch is settled under the exclusive lock below.
        if (session->KeyUsableLocked(cur_generation, cur_num_rows)) {
          if (session->LookupMergedLocked(problem.c, &out.predicates)) {
            // An exact-c entry stored since the fast-path probe above is
            // still a whole-answer hit.
            out.cache_result_hit = true;
          } else {
            if (session->has_partitions_) {
              partitions = session->partitions_;
              have_partitions = true;
              out.cache_partitions_hit = true;
            }
            if (cross_c_warm_start) {
              warm_seeds = session->WarmSeedsLocked(problem.c);
            }
          }
        }
      }
      if (out.cache_result_hit) break;
      if (!have_partitions && session != nullptr) {
        // Exclusive lock around the whole computation: concurrent requests
        // on this session block here and reuse the winner's partitions
        // instead of each recomputing them.
        WriterMutexLock lock(session->mu_);
        // Re-check everything: a concurrent same-(key, c) request may have
        // stored a result — or a delta refresh may have re-keyed the
        // session — while we waited for the lock. A run over an older
        // generation than the key falls through to a sessionless DT below.
        if (session->AdvanceKeyLocked(cur_generation, cur_num_rows)) {
          if (session->LookupMergedLocked(problem.c, &out.predicates)) {
            out.cache_result_hit = true;
          } else {
            if (session->has_partitions_) {
              partitions = session->partitions_;
              out.cache_partitions_hit = true;
            } else {
              DTPartitioner dt(scorer, options_.dt);
              SCORPION_ASSIGN_OR_RETURN(partitions, dt.Run());
              // Cache the c-agnostic match Selections with the partitions,
              // so later runs (any c) skip re-filtering the table entirely.
              // A delta seed parked by BeginDeltaRefresh extends the
              // previous generation's matches over only the appended rows;
              // it is one-shot, consumed here.
              size_t seed_hits = 0;
              SCORPION_RETURN_NOT_OK(AttachMatchCaches(
                  scorer, &partitions, session->seed_.get(), &seed_hits));
              session->seed_.reset();
              out.session_delta_refreshed = seed_hits > 0;
              session->partitions_ = partitions;
              session->has_partitions_ = true;
            }
            have_partitions = true;
            if (cross_c_warm_start && warm_seeds.empty()) {
              warm_seeds = session->WarmSeedsLocked(problem.c);
            }
          }
        }
      }
      if (out.cache_result_hit) break;
      if (!have_partitions) {
        DTPartitioner dt(scorer, options_.dt);
        SCORPION_ASSIGN_OR_RETURN(partitions, dt.Run());
      }
      // Influence scores depend on c; force the merger to rescore.
      for (ScoredPredicate& sp : partitions) {
        sp.influence = kNegInf;
      }
      for (const ScoredPredicate& sp : warm_seeds) {
        ScoredPredicate seed = sp;
        seed.influence = kNegInf;
        partitions.push_back(std::move(seed));
      }
      SCORPION_ASSIGN_OR_RETURN(DomainMap domains,
                                ComputeDomains(table, problem.attributes));
      Merger merger(scorer, std::move(domains), options_.merger);
      SCORPION_ASSIGN_OR_RETURN(std::vector<ScoredPredicate> merged,
                                merger.Run(std::move(partitions)));
      // Match caches live on the session's partitions only; results keep
      // their footprint small.
      for (ScoredPredicate& sp : merged) sp.matches.reset();
      if (session != nullptr) {
        WriterMutexLock lock(session->mu_);
        // Store only into a session still keyed to this run's generation;
        // a refresh while we merged makes this result stale for the
        // session (though still correct for this run's pinned snapshot).
        if (session->AdvanceKeyLocked(cur_generation, cur_num_rows)) {
          session->StoreMergedLocked(problem.c, merged);
        }
      }
      out.predicates = std::move(merged);
      break;
    }
    case Algorithm::kMC: {
      MCPartitioner mc(scorer, options_.mc, options_.merger);
      SCORPION_ASSIGN_OR_RETURN(out.predicates, mc.Run());
      break;
    }
  }

  if (out.predicates.size() > options_.top_k) {
    out.predicates.resize(options_.top_k);
  }
  if (out.predicates.empty()) {
    return Status::Internal("search produced no predicates");
  }
  out.runtime_seconds = timer.ElapsedSeconds();
  out.scorer_stats = scorer.stats();
  return out;
}

}  // namespace scorpion
