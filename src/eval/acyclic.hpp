// Yannakakis' algorithm for acyclic conjunctive queries (no comparisons):
// the classical tractability result the paper's Theorem 2 generalizes.
// Decision in O(q · n log n); full evaluation in time polynomial in input
// plus output via a semijoin full-reducer followed by an upward
// join-and-project pass.
//
// Since the physical-plan refactor, this evaluator lowers the query through
// plan/planner.hpp (which reproduces the exact semijoin-then-join schedule
// as a PlanNode DAG) and runs the shared plan executor; its operator
// counters are the executor's PlanStats. The reducer is
// EvalContext::planner.full_reducer; a single-edge join tree plans none,
// since its one join drops the dangling tuples itself.
#ifndef PARAQUERY_EVAL_ACYCLIC_H_
#define PARAQUERY_EVAL_ACYCLIC_H_

#include "common/status.hpp"
#include "eval/context.hpp"
#include "query/conjunctive_query.hpp"
#include "relational/database.hpp"

namespace paraquery {

/// Decides Q(d) != {} for an acyclic comparison-free conjunctive query.
/// `plan_stats`, when given, receives the shared executor's counters.
Result<bool> AcyclicNonempty(const Database& db, const ConjunctiveQuery& q,
                             const EvalContext& ctx = {},
                             PlanStats* plan_stats = nullptr);

/// Computes Q(d) for an acyclic comparison-free conjunctive query, sorted
/// and deduplicated. With `sort_output` false the answer is left unsorted
/// (still duplicate-free: the plan root deduplicates the head bindings), for
/// callers that sort once over a union of answers. With a plan cache, the
/// plan of the query's canonical form is fetched/stored under its
/// CanonicalCqSignature and the database generation, skipping S_j
/// materialization and planning on a hit.
Result<Relation> AcyclicEvaluate(const Database& db, const ConjunctiveQuery& q,
                                 const EvalContext& ctx = {},
                                 PlanStats* plan_stats = nullptr,
                                 bool sort_output = true);

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_ACYCLIC_H_
