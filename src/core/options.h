// Tuning knobs for the search algorithms. Defaults follow the paper's
// experimental setup where it states one (15 equi-width splits for NAIVE/MC,
// inflection point p = 0.5 for DT's threshold curve, 95% sampling confidence).
#pragma once

#include <cstddef>
#include <cstdint>

namespace scorpion {

/// Which partitioning algorithm the Scorpion facade runs.
enum class Algorithm : int {
  kNaive = 0,  // Section 4.2, exhaustive with a time budget
  kDT = 1,     // Section 6.1, regression-tree partitioning
  kMC = 2,     // Section 6.2, bottom-up subspace search
};

const char* AlgorithmToString(Algorithm algorithm);

/// Knobs for the DT partitioner (Section 6.1).
struct DTOptions {
  /// Minimum / maximum multiplicative error of the threshold curve
  /// (tau_min, tau_max in Figure 4).
  double tau_min = 0.025;
  double tau_max = 0.25;
  /// Inflection point of the threshold curve; the paper fixes p = 0.5.
  double inflection_p = 0.5;
  /// Stop splitting below this many (unsampled) tuples per node.
  size_t min_partition_size = 16;
  /// Hard recursion depth cap.
  int max_depth = 12;
  /// Continuous split candidates per attribute per node (quantiles).
  int num_split_candidates = 3;
  /// Most frequent categorical values considered as split candidates.
  int max_discrete_split_values = 32;
  /// Enables Section 6.1.2 sampling.
  bool use_sampling = false;
  /// Epsilon: expected fraction of the dataset that is influential, used to
  /// size the initial sample so it contains influential tuples w.p. >= 95%.
  double epsilon = 0.01;
  /// Sampling floor so small nodes keep enough tuples for stable statistics.
  size_t min_sample_size = 64;
  uint64_t seed = 42;
};

/// Knobs for the MC partitioner (Section 6.2).
struct MCOptions {
  /// Equi-width units per continuous attribute (paper: 15).
  int num_continuous_splits = 15;
  /// High-cardinality guard: for categorical attributes with more distinct
  /// values than this, only the values with the highest summed tuple
  /// influence seed single-attribute units.
  int max_discrete_values = 64;
  /// Cap on candidate predicates per iteration (after pruning).
  size_t max_candidates_per_iteration = 4096;
  /// Cap on intersect iterations (also bounded by the attribute count).
  int max_iterations = 8;
};

/// Knobs for the NAIVE partitioner (Section 4.2 + the Section 8.2
/// complexity-ordered, budgeted variant).
struct NaiveOptions {
  /// Equi-width splits per continuous attribute (paper: 15).
  int num_continuous_splits = 15;
  /// Maximum clauses per predicate (attributes referenced).
  int max_clauses = 2;
  /// Maximum values per discrete set clause.
  int max_discrete_set_size = 2;
  /// Wall-clock budget; the best-so-far predicate is returned at expiry.
  /// The paper ran NAIVE for up to 40 minutes; benches use smaller budgets.
  double time_budget_seconds = 60.0;
  /// Best-so-far checkpoints are recorded at least this often (seconds),
  /// mirroring the paper's 10-second convergence logging for Figure 11.
  double checkpoint_interval_seconds = 1.0;
};

/// Knobs for the Merger (Sections 4.3 and 6.3).
struct MergerOptions {
  /// Only expand seeds whose influence is in the top quartile
  /// (first Section 6.3 optimization).
  bool top_quartile_only = true;
  /// Use the cached-tuple volume approximation to rank candidate merges for
  /// incrementally removable aggregates (second Section 6.3 optimization).
  /// Accepted merges are always re-scored exactly.
  bool use_cached_tuple_estimate = true;
  /// Only merge predicates constraining the same attribute set. The MC
  /// partitioner requires this (CLIQUE merges adjacent units within one
  /// subspace; a bounding box across different attribute sets drops clauses
  /// and can collapse to TRUE). DT leaves it off: its partitions tile the
  /// space and cross-set hulls are legitimate.
  bool same_attributes_only = false;
  /// Cap on successful expansions per seed.
  int max_expansions_per_seed = 64;
  /// Cap on merge candidates evaluated per expansion step.
  size_t max_candidates_per_step = 256;
};

/// Top-level options for the Scorpion facade.
struct ScorpionOptions {
  Algorithm algorithm = Algorithm::kDT;
  DTOptions dt;
  MCOptions mc;
  NaiveOptions naive;
  MergerOptions merger;
  /// How many ranked predicates to return.
  size_t top_k = 5;
  /// Data parallelism for the scoring hot paths (per-group influence, DT
  /// tuple influences, Merger candidate scoring). 1 = serial; 0 = one thread
  /// per hardware core. Results are bit-identical at every setting: parallel
  /// work writes to per-index slots and all reductions stay serial in index
  /// order (see src/common/thread_pool.h).
  int num_threads = 1;
  /// Zone-map block pruning in the filter data plane (see
  /// src/table/block_stats.h): classify each ~4096-row block against the
  /// predicate from per-block statistics, skip blocks that cannot match,
  /// word-fill blocks that fully match, and run the SIMD kernels only on
  /// the rest. Bit-identical output either way; the switch exists so the
  /// benches can A/B it and as an escape hatch. Governs every predicate
  /// this engine binds (scorer-internal binds and the API what-if bind);
  /// standalone Predicate::Bind() users (e.g. the eval harness helpers)
  /// follow the process-wide SetBlockPruningDefault() instead.
  bool enable_block_pruning = true;
  /// When enabled (default), scoring loops that hold many candidate
  /// predicates differing in one clause — DT split search, Merger
  /// expansion, NAIVE enumeration — evaluate them as a CandidateBatch:
  /// each block's column slice is loaded once and scored against the whole
  /// candidate set (see predicate/candidate_batch.h). Bit-identical output
  /// either way; the switch exists so the benches can A/B it and as an
  /// escape hatch.
  bool enable_candidate_batching = true;
};

}  // namespace scorpion
