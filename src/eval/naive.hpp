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
//
// Every entry point takes the shared EvalContext. ctx.limits.max_steps
// counts search steps for the backtracking entry points and rows produced
// by operators for the plan-based evaluator; the backtracking entry points
// are inherently sequential and use ctx.runtime only for abort polling
// (query_ctx). With a plan cache, repeated cyclic queries reuse their plan
// under the CanonicalCqSignature + database generation.
#ifndef PARAQUERY_EVAL_NAIVE_H_
#define PARAQUERY_EVAL_NAIVE_H_

#include "common/status.hpp"
#include "eval/context.hpp"
#include "query/conjunctive_query.hpp"
#include "relational/database.hpp"

namespace paraquery {

/// Computes the full answer Q(d) via the cyclic planner + shared executor,
/// sorted and deduplicated. `plan_stats`, when given, receives the
/// executor's counters. With `sort_output` false the answer is left
/// unsorted, for callers that sort once over a union of answers.
Result<Relation> NaiveEvaluateCq(const Database& db, const ConjunctiveQuery& q,
                                 const EvalContext& ctx = {},
                                 PlanStats* plan_stats = nullptr,
                                 bool sort_output = true);

/// Computes Q(d) with the indexed backtracking search (no plan, no
/// materialized intermediates). Reference oracle for differential tests.
Result<Relation> BacktrackEvaluateCq(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const EvalContext& ctx = {});

/// Decides Q(d) != {} (backtracking; stops at the first witness).
Result<bool> NaiveCqNonempty(const Database& db, const ConjunctiveQuery& q,
                             const EvalContext& ctx = {});

/// Decides t ∈ Q(d) by binding the head and testing nonemptiness.
Result<bool> NaiveCqContains(const Database& db, const ConjunctiveQuery& q,
                             const std::vector<Value>& tuple,
                             const EvalContext& ctx = {});

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_NAIVE_H_
