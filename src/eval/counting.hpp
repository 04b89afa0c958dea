// Counting evaluation for conjunctive queries: answers COUNT(*) and
// per-group counting queries (AnswerSpec) without materializing the join
// output. Acyclic comparison-free queries run the counting-Yannakakis
// schedule (semijoin reducer passes, then an upward multiplicity-folding
// pass of Aggregate + SemijoinCount nodes). Comparison-free cyclic queries
// fold over the hypertree-decomposition bag tree, each bag counted down to
// its interface (the variables it shares with a neighbor bag, plus its
// group keys): a bag joined by a binary chain sums its private variables
// out in a fused join-count (plan/plan.hpp MakeJoinCount), and a child bag
// whose counts cover its parent's interface is multiplied in inside the
// parent's kernel, so neither bag is materialized; a bag with a cyclic core
// runs a leapfrog multiway join under an Aggregate. Everything else
// enumerates the distinct body-variable assignments through the general
// planner and aggregates at the root — all under the caller's
// ResourceLimits, all through the shared plan executor.
#ifndef PARAQUERY_EVAL_COUNTING_H_
#define PARAQUERY_EVAL_COUNTING_H_

#include "common/status.hpp"
#include "eval/context.hpp"
#include "query/conjunctive_query.hpp"
#include "relational/database.hpp"

namespace paraquery {

/// Evaluates a counting CQ (`q.answer.counting()` must hold). The result is
/// the counting answer shape: COUNT(*) yields a single-column single-row
/// relation holding the count (a 0 row when the query is empty); a grouped
/// count yields one row per nonempty group — the group keys in head order
/// plus the trailing count — sorted by group. `plan_stats`, when given,
/// receives the shared executor's counters (peak_intermediate_rows stays
/// bounded by the input and semijoin sizes on the counting-Yannakakis route,
/// and a fused bag contributes only its interface groups).
/// Counting plans are cached under "cq-cnt:" + CanonicalCqSignature — the
/// signature carries the answer shape, so a counting plan is never served
/// for a tuple query over the same text (or vice versa).
Result<Relation> CountingEvaluate(const Database& db,
                                  const ConjunctiveQuery& q,
                                  const EvalContext& ctx = {},
                                  PlanStats* plan_stats = nullptr);

/// Groups `distinct_rows` (assumed duplicate-free) by the value tuple at
/// `group_cols` and returns one row per group — the group values followed by
/// the member count — sorted by group. Empty `group_cols` yields the scalar
/// shape: a single [n] row (including [0] for an empty input). Shared by the
/// active-domain and union-of-CQs counting routes, which count materialized
/// enumerations.
Relation GroupCountRows(const Relation& distinct_rows,
                        const std::vector<int>& group_cols);

/// Groups the rows of `rows` (assumed duplicate-free) by the value tuple at
/// `group_cols` (nonempty) and sums each group's weight: the value at
/// `weight_col`, or 1 per row when `weight_col` is negative. Returns one row
/// per group whose sum is nonzero — the group values followed by the sum —
/// sorted by group, or OutOfRange when a sum overflows. A single group
/// column whose value range (KeyRange) has fewer than 2 × |rows| values sums
/// into an array over that range; any other grouping sorts the rows, group
/// columns first, with SortDedupRows and sums the runs.
Result<Relation> SumGroups(const Relation& rows,
                           const std::vector<int>& group_cols, int weight_col,
                           const ParallelForFn& pfor = {});

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_COUNTING_H_
