// Positive-query evaluation via expansion into a union of conjunctive
// queries (the paper's Theorem 1 upper-bound route for parameter q: the
// expansion is exponential in q but each disjunct is a plain CQ).
// Syntactically identical disjuncts (equal up to variable renaming) are
// evaluated once; every disjunct runs through the shared plan executor under
// the caller's EvalContext, passed on unchanged — limits, plan cache and
// planner options included — and the per-disjunct PlanStats aggregate into
// the caller's `plan_stats`. Acyclic comparison-free disjuncts take the
// Yannakakis plan, the rest the cyclic plan. With a scheduler, disjuncts
// evaluate as concurrent tasks (results merge in disjunct order, so the
// answer is identical to the sequential evaluation), and each disjunct's
// plan may itself execute morsel-parallel. The plan cache is safe under
// parallel disjunct evaluation because disjuncts are signature-deduplicated
// first.
#ifndef PARAQUERY_EVAL_UCQ_H_
#define PARAQUERY_EVAL_UCQ_H_

#include <cstdint>

#include "common/status.hpp"
#include "eval/context.hpp"
#include "query/positive_query.hpp"
#include "relational/database.hpp"

namespace paraquery {

/// Options for the UCQ evaluator.
struct UcqOptions {
  /// Cap on the number of disjuncts produced by the expansion.
  uint64_t max_disjuncts = 100'000;
};

/// Instrumentation for one EvaluatePositive/PositiveNonempty call.
struct UcqStats {
  /// Disjuncts produced by the expansion / dropped as syntactic duplicates /
  /// actually evaluated (nonempty-mode short-circuits may stop early).
  size_t disjuncts_expanded = 0;
  size_t disjuncts_deduped = 0;
  size_t disjuncts_evaluated = 0;
  size_t acyclic_disjuncts = 0;  // routed to the Yannakakis plan
  size_t naive_disjuncts = 0;    // routed to the cyclic plan
  /// Counting route (EvaluatePositiveCount): inclusion–exclusion subset
  /// intersections actually computed, and subsets skipped because a
  /// sub-subset's intersection was already known empty.
  size_t ie_subsets = 0;
  size_t ie_pruned = 0;
};

/// Computes Q(d) for a positive query.
Result<Relation> EvaluatePositive(const Database& db, const PositiveQuery& q,
                                  const EvalContext& ctx = {},
                                  const UcqOptions& options = {},
                                  UcqStats* stats = nullptr,
                                  PlanStats* plan_stats = nullptr);

/// Decides Q(d) != {} (short-circuits across disjuncts).
Result<bool> PositiveNonempty(const Database& db, const PositiveQuery& q,
                              const EvalContext& ctx = {},
                              const UcqOptions& options = {},
                              UcqStats* stats = nullptr,
                              PlanStats* plan_stats = nullptr);

/// Counting evaluation of a positive query whose AnswerSpec is counting
/// (`q.fo().answer`): counts the distinct free-variable assignments
/// satisfying the formula, grouped by the head's group keys (COUNT(*) for
/// an empty head). Each signature-deduplicated disjunct is evaluated ONCE,
/// in tuples mode over the full free-variable head; the per-group sizes of
/// the union then come from inclusion–exclusion over disjunct subsets
/// (increasing popcount, pruning supersets of empty intersections) — the
/// union itself is never materialized on that path. Degenerate shapes (one
/// disjunct, no free variables) and expansions beyond the subset budget
/// fall back to counting the materialized union directly; both paths give
/// identical answers. Result shape matches CountingEvaluate: [count] for
/// COUNT(*) (a [0] row when empty), else group keys + count sorted by group.
Result<Relation> EvaluatePositiveCount(const Database& db,
                                       const PositiveQuery& q,
                                       const EvalContext& ctx = {},
                                       const UcqOptions& options = {},
                                       UcqStats* stats = nullptr,
                                       PlanStats* plan_stats = nullptr);

// CanonicalCqSignature moved to plan/plan_cache.hpp (included above): the
// disjunct dedup and the plan cache share one notion of query identity.

/// Expands `q` into at most `max_disjuncts` CQs and drops syntactic
/// duplicates (CanonicalCqSignature). The single expansion path shared by
/// the evaluator and EXPLAIN's plan rendering; fills the expansion counters
/// of `stats` when given.
Result<std::vector<ConjunctiveQuery>> ExpandDedupedDisjuncts(
    const PositiveQuery& q, uint64_t max_disjuncts, UcqStats* stats = nullptr);

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_UCQ_H_
