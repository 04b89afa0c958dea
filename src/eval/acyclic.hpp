// Yannakakis' algorithm for acyclic conjunctive queries (no comparisons):
// the classical tractability result the paper's Theorem 2 generalizes.
// Decision in O(q · n log n); full evaluation in time polynomial in input
// plus output via a semijoin full-reducer followed by an upward
// join-and-project pass.
//
// Since the physical-plan refactor, this evaluator lowers the query through
// plan/planner.hpp (which reproduces the exact semijoin-then-join schedule
// as a PlanNode DAG) and runs the shared plan executor; AcyclicStats is kept
// as a backward-compatible mirror of the PlanStats counters.
#ifndef PARAQUERY_EVAL_ACYCLIC_H_
#define PARAQUERY_EVAL_ACYCLIC_H_

#include <cstdint>

#include "common/status.hpp"
#include "plan/plan.hpp"
#include "plan/plan_cache.hpp"
#include "query/conjunctive_query.hpp"
#include "relational/database.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {

/// Options for the acyclic evaluator.
struct AcyclicOptions {
  /// Unified resource guard (preferred; see ResourceLimits).
  ResourceLimits limits;
  /// Parallel runtime binding (default: sequential plan execution).
  RuntimeOptions runtime;
  /// Cross-query plan cache (optional, engine-owned): when set, the query
  /// is canonicalized and its Yannakakis plan — inputs, join tree, and all —
  /// is fetched/stored under its CanonicalCqSignature and the database
  /// generation, skipping S_j materialization and planning on a hit.
  PlanCache* plan_cache = nullptr;
  /// DEPRECATED alias for limits.max_rows: abort operators whose output
  /// exceeds this many rows (0 = off). Used only when limits.max_rows == 0.
  uint64_t max_rows = 0;
  /// Run the downward semijoin pass before the upward join pass. Disabling
  /// it (ablation E7b) keeps correctness but loses the output-sensitivity
  /// guarantee: dangling tuples inflate intermediate joins.
  bool full_reducer = true;

  ResourceLimits EffectiveLimits() const {
    return limits.MergedWith(max_rows, /*legacy_max_steps=*/0);
  }
};

/// Statistics reported by the evaluator. Mirrors the plan executor's
/// PlanStats (the authoritative counters surfaced via EngineStats::plan).
struct AcyclicStats {
  size_t semijoins = 0;
  size_t joins = 0;
  size_t peak_intermediate_rows = 0;
  /// S_j materializations that came out as zero-copy views over the stored
  /// relation's row block (atom had no constants/repeated variables).
  size_t shared_atom_storage = 0;
  /// Project calls answered by a storage-sharing view instead of a row copy
  /// (no-op projections in the upward join-and-project pass).
  size_t zero_copy_projections = 0;
};

/// Decides Q(d) != {} for an acyclic comparison-free conjunctive query.
/// `plan_stats`, when given, receives the shared executor's counters.
Result<bool> AcyclicNonempty(const Database& db, const ConjunctiveQuery& q,
                             const AcyclicOptions& options = {},
                             AcyclicStats* stats = nullptr,
                             PlanStats* plan_stats = nullptr);

/// Computes Q(d) for an acyclic comparison-free conjunctive query, sorted
/// and deduplicated. With `sort_output` false the answer is left unsorted
/// (still duplicate-free: the plan root deduplicates the head bindings), for
/// callers that sort once over a union of answers.
Result<Relation> AcyclicEvaluate(const Database& db, const ConjunctiveQuery& q,
                                 const AcyclicOptions& options = {},
                                 AcyclicStats* stats = nullptr,
                                 PlanStats* plan_stats = nullptr,
                                 bool sort_output = true);

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_ACYCLIC_H_
