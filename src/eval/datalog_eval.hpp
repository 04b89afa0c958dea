// Bottom-up (semi-naive) Datalog evaluation. With EDB/IDB arities bounded by
// r, the fixpoint is reached within n^r stages and each stage evaluates
// conjunctive queries — the structure behind the paper's remark that
// bounded-arity Datalog is W[1]-complete, while unbounded IDB arity provably
// forces the query size into the exponent (Vardi).
//
// Since the physical-plan refactor, each (rule, delta position) variant is
// lowered once by plan/planner.hpp to a left-deep join plan over slot-bound
// scans (delta pinned first, then greedy smallest-first) and re-executed by
// the shared plan executor every iteration; static EDB atoms keep their
// program-wide cached materializations and memoized join indexes.
//
// Under the EvalContext: ctx.limits.max_rows bounds the total derived IDB
// tuples, and both row members are enforced on every rule-plan execution.
// With a scheduler, the independent (rule, delta position) firings of one
// semi-naive round run as concurrent tasks — newly derived tuples are
// applied to the IDB state in variant order after the round's barrier — and
// each firing's plan may execute morsel-parallel. The fixpoint (and the goal
// relation) is identical to the single-threaded run; iteration/firing
// counts may differ, because the sequential engine lets a firing observe
// tuples derived earlier in the same round while the parallel round is a
// pure Jacobi step. With a plan cache, a variant's first firing fetches the
// rule-body plan compiled by a previous program run (keyed by the rule's
// canonical signature, delta position, planner options and database
// generation) instead of re-running PlanRuleBody. Hits are CLONED into the
// run — concurrent firings never share mutable plan nodes — with their Scan
// join-index pointers rebound to this run's EDB caches; the >10x
// delta-drift re-planning still applies on top and refreshes the cached
// entry.
#ifndef PARAQUERY_EVAL_DATALOG_EVAL_H_
#define PARAQUERY_EVAL_DATALOG_EVAL_H_

#include <cstdint>

#include "common/status.hpp"
#include "eval/context.hpp"
#include "query/datalog.hpp"
#include "relational/database.hpp"

namespace paraquery {

/// Options for the Datalog engine.
struct DatalogOptions {
  /// Abort after this many fixpoint iterations (0 = off).
  uint64_t max_iterations = 0;
};

/// Instrumentation.
struct DatalogStats {
  size_t iterations = 0;
  size_t derived_tuples = 0;  // total IDB tuples at fixpoint
  /// Rules that actually fired (all body atoms nonempty). Firings skipped
  /// because some body atom was empty are counted separately.
  size_t rule_firings = 0;
  size_t skipped_firings = 0;
  /// Program-wide EDB atom cache (keyed by relation id + the atom's
  /// selection/projection signature): distinct materializations built vs
  /// body-atom slots served by an existing one through a relabeled view.
  size_t edb_materializations = 0;
  size_t edb_cache_hits = 0;
  /// Rule-body plans built (PlanRuleBody invocations) vs firings answered
  /// by a reused plan (re-execution across iterations, or a variant served
  /// by the cross-run plan cache) vs plans rebuilt because the observed
  /// delta size drifted >10x from the size the variant was planned at
  /// (rule_firings = plans_built + plan_reuses + replans).
  size_t plans_built = 0;
  size_t plan_reuses = 0;
  size_t replans = 0;
};

/// Computes the goal relation of `program` over `db` (semi-naive fixpoint).
/// `plan_stats`, when given, receives the shared executor's counters
/// aggregated over every rule firing — the memoized EDB join indexes show up
/// there as index_builds / index_hits.
Result<Relation> EvaluateDatalog(const Database& db,
                                 const DatalogProgram& program,
                                 const EvalContext& ctx = {},
                                 const DatalogOptions& options = {},
                                 DatalogStats* stats = nullptr,
                                 PlanStats* plan_stats = nullptr);

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_DATALOG_EVAL_H_
