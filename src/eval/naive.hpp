// Naive evaluation of conjunctive queries (with arbitrary comparison atoms).
// This is the textbook combined-complexity algorithm the paper's analysis
// targets: worst case n^{O(q)}. It serves as ground truth for every other
// engine and as the baseline exhibiting "parameter in the exponent" in the
// benchmarks.
//
// Since the physical-plan refactor, NaiveEvaluateCq lowers the query through
// the cyclic planner (greedy smallest-relation-first order with
// bound-variable propagation) and runs the shared plan executor. Memory
// profile: the executor MATERIALIZES each intermediate join (memory tracks
// the largest satisfying-prefix set), where the old DFS enumerated bindings
// in O(q·n) memory at the same time complexity — set ResourceLimits, or use
// BacktrackEvaluateCq, when intermediates may dwarf the output. The decision
// entry points keep the indexed backtracking search: they stop at the first
// witness, which a materializing executor cannot, and the search consumes
// the same GreedyAtomOrder the planner uses. The backtracking FULL evaluator
// remains available (BacktrackEvaluateCq) as the constant-memory path and
// the plan-independent oracle for differential tests.
#ifndef PARAQUERY_EVAL_NAIVE_H_
#define PARAQUERY_EVAL_NAIVE_H_

#include <cstdint>

#include "common/status.hpp"
#include "plan/plan.hpp"
#include "plan/plan_cache.hpp"
#include "query/conjunctive_query.hpp"
#include "relational/database.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {

/// Options for the naive evaluator.
struct NaiveOptions {
  /// Unified resource guard (preferred; see ResourceLimits). For the
  /// backtracking entry points max_steps counts search steps; for the
  /// plan-based evaluator it counts rows produced by operators.
  ResourceLimits limits;
  /// Parallel runtime binding for the plan-based evaluator (ignored by the
  /// backtracking entry points, which are inherently sequential searches).
  RuntimeOptions runtime;
  /// Cross-query plan cache (optional, engine-owned), used by the
  /// plan-based evaluator only: repeated cyclic queries reuse their greedy
  /// left-deep plan under the CanonicalCqSignature + database generation.
  PlanCache* plan_cache = nullptr;
  /// Plan-based evaluator: let the planner place Materialize boundaries so
  /// eligible chains run vectorized over columnar storage (results are
  /// byte-identical either way; see PlannerOptions::vectorize).
  bool vectorize = true;
  /// Plan-based evaluator: route comparison-free cyclic queries through the
  /// hypertree decomposition + worst-case-optimal multiway join (results are
  /// byte-identical either way; see PlannerOptions::wcoj).
  bool wcoj = true;
  /// DEPRECATED alias for limits.max_steps: abort with ResourceExhausted
  /// after this many steps (0 = off). Used only when limits.max_steps == 0.
  uint64_t max_steps = 0;

  ResourceLimits EffectiveLimits() const {
    return limits.MergedWith(/*legacy_max_rows=*/0, max_steps);
  }
};

/// Computes the full answer Q(d) via the cyclic planner + shared executor,
/// sorted and deduplicated. `plan_stats`, when given, receives the
/// executor's counters. With `sort_output` false the answer is left
/// unsorted, for callers that sort once over a union of answers.
Result<Relation> NaiveEvaluateCq(const Database& db, const ConjunctiveQuery& q,
                                 const NaiveOptions& options = {},
                                 PlanStats* plan_stats = nullptr,
                                 bool sort_output = true);

/// Computes Q(d) with the indexed backtracking search (no plan, no
/// materialized intermediates). Reference oracle for differential tests.
Result<Relation> BacktrackEvaluateCq(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const NaiveOptions& options = {});

/// Decides Q(d) != {} (backtracking; stops at the first witness).
Result<bool> NaiveCqNonempty(const Database& db, const ConjunctiveQuery& q,
                             const NaiveOptions& options = {});

/// Decides t ∈ Q(d) by binding the head and testing nonemptiness.
Result<bool> NaiveCqContains(const Database& db, const ConjunctiveQuery& q,
                             const std::vector<Value>& tuple,
                             const NaiveOptions& options = {});

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_NAIVE_H_
