// Cost-aware lowering from classified queries to physical plans.
//
//   * Acyclic comparison-free CQs lower along a GYO join tree to the exact
//     Yannakakis schedule: upward semijoins, downward semijoins (the full
//     reducer), then the upward join-and-project pass — one Semijoin/HashJoin
//     node per operator call of the textbook algorithm. A single-edge tree
//     skips the reducer, whose work its one join does anyway. The head
//     projection fuses into the last join when it drops an attribute (a
//     join-project HashJoin; see ProjectHead).
//   * Comparison-free cyclic CQs lower along a generalized hypertree
//     decomposition, with worst-case-optimal multiway joins inside the
//     cyclic bags (PlannerOptions::wcoj).
//   * CQs with comparison atoms (and cyclic CQs with wcoj off) lower to a
//     left-deep HashJoin chain in the greedy smallest-relation-first
//     connected order, with comparison atoms applied as Select nodes at
//     the earliest point where all their variables are bound, and a
//     Project+Dedup head. Two atoms whose head drops a variable lower to
//     one fused join-project that applies the comparisons inside the join.
//   * Datalog rule bodies lower to reusable left-deep plans over slot-bound
//     scans (slot i = body position i) so the semi-naive engine plans each
//     (rule, delta position) variant once and re-executes it every iteration.
#ifndef PARAQUERY_PLAN_PLANNER_H_
#define PARAQUERY_PLAN_PLANNER_H_

#include <string>
#include <vector>

#include "common/status.hpp"
#include "plan/plan.hpp"
#include "plan/route.hpp"
#include "query/conjunctive_query.hpp"
#include "query/datalog.hpp"
#include "relational/database.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {

/// Planner choices. Each one changes the plan's shape, never its answer; the
/// plan cache keys on them through PlannerCacheTag.
struct PlannerOptions {
  /// Tuple plans over a join tree: run the semijoin reducer (acyclic plans:
  /// both passes; hypertree bag plans: the downward pass). Disabling it
  /// (ablation E7b) keeps correctness but loses the output-sensitivity
  /// guarantee: dangling tuples inflate intermediate joins. It only affects
  /// plans that run a reducer: a single-edge join tree, a counting plan and
  /// a decision plan ignore it.
  bool full_reducer = true;
  /// No effect; read or set only by pqbench; delete with its uses (ROADMAP
  /// item 2).
  bool vectorize = true;
  /// Route comparison-free cyclic CQs through a generalized hypertree
  /// decomposition: Yannakakis over the bag tree with a worst-case-optimal
  /// leapfrog multiway join inside each cyclic bag (kMultiwayJoin), child
  /// bag outputs fused into parent intersections (sideways information
  /// passing). Results are byte-identical to the binary chain; off keeps
  /// the historical left-deep HashJoin plans everywhere.
  bool wcoj = true;
};

/// The planner-option part of a plan-cache key: one digit per
/// PlannerOptions field that shapes a plan (every field but the inert
/// `vectorize`), so a plan built under one setting is never served under
/// another. Every cache key of a planner-built plan carries it.
std::string PlannerCacheTag(const PlannerOptions& options);

/// A lowered plan plus everything needed to run it: the slot-bound input
/// relations (the S_j materializations; scans reference them by slot), the
/// head terms for mapping bindings to answers, and the query's variable
/// names for rendering.
struct PhysicalPlan {
  PlanNodePtr root;
  std::vector<NamedRelation> inputs;
  std::vector<Term> head;
  VarTable vars;
  /// Inputs bound to a stored relation's storage or to the set form cached
  /// on it (plan-time stat, merged into PlanStats::shared_atom_storage on
  /// execution).
  size_t shared_atom_storage = 0;

  std::string Render() const { return RenderPlan(*root, &vars); }
};

/// The plan of DecideRoute(q, options), over the query after the comparison
/// closure: PlanCountingCq, PlanAcyclicCq or PlanCyclicCq (on the Theorem 2
/// route, the relational plan; IneqPlanText renders the color-coding one).
Result<PhysicalPlan> PlanConjunctive(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const PlannerOptions& options = {});

/// Full-evaluation Yannakakis plan (rejects comparisons / cyclic queries).
Result<PhysicalPlan> PlanAcyclicCq(const Database& db,
                                   const ConjunctiveQuery& q,
                                   const PlannerOptions& options = {});

/// Decision plan: the upward semijoin pass only; the root's result is
/// nonempty iff Q(d) is nonempty.
Result<PhysicalPlan> PlanAcyclicDecision(const Database& db,
                                         const ConjunctiveQuery& q,
                                         const PlannerOptions& options = {});

/// The general plan for arbitrary CQs: multiway joins over a hypertree
/// decomposition under the WCOJ gate (RouteDecision::wcoj), else a greedy
/// left-deep join chain with the comparisons as selections.
Result<PhysicalPlan> PlanCyclicCq(const Database& db,
                                  const ConjunctiveQuery& q,
                                  const PlannerOptions& options = {});

/// Counting plan for a CQ with `answer.counting()`. Acyclic comparison-free
/// queries get the counting-Yannakakis schedule without a reducer: an
/// upward pass over the raw scans where each subtree folds into its parent
/// as per-key multiplicities (Aggregate + SemijoinCount), which drops
/// dangling tuples itself — the full join output is never materialized, so
/// peak intermediate rows stay bounded by the input sizes. Cyclic queries that pass the WCOJ gate run the same
/// counting pass over the hypertree-decomposition bag tree (leapfrog multiway joins inside
/// cyclic bags). Everything else falls back to enumerating the distinct
/// assignments to all body variables through the general planner and
/// aggregating at the root, under the same ResourceLimits.
/// The executed root's columns are the group keys in head order plus the
/// trailing count column; a scalar COUNT(*) emits one row — or none when the
/// query is empty (the eval layer supplies the 0 row).
Result<PhysicalPlan> PlanCountingCq(const Database& db,
                                    const ConjunctiveQuery& q,
                                    const PlannerOptions& options = {});

/// Binds `plan`'s input slots and runs the shared executor. Returns the
/// root's binding relation (attributes = head variables for CQ plans);
/// callers map it through the head with BindingsToAnswers. `runtime` binds
/// the parallel task scheduler (default: sequential execution).
Result<NamedRelation> ExecutePhysicalPlan(PhysicalPlan& plan,
                                          const ResourceLimits& limits,
                                          PlanStats* stats = nullptr,
                                          const RuntimeOptions& runtime = {});

/// The greedy atom order shared by the cyclic planner and the naive
/// backtracking search: repeatedly pick the smallest not-yet-chosen atom
/// among those sharing a bound variable (falling back to the smallest
/// remaining when none connects). `pinned_first` (when >= 0) is forced to
/// the front — the semi-naive delta position. Returns a permutation of
/// [0, attrs.size()).
std::vector<size_t> GreedyAtomOrder(
    const std::vector<const std::vector<AttrId>*>& attrs,
    const std::vector<size_t>& sizes, int num_vars, int pinned_first = -1);

/// Convenience overload over materialized atom relations.
std::vector<size_t> GreedyAtomOrder(const std::vector<NamedRelation>& rels,
                                    int num_vars, int pinned_first = -1);

/// Lowers one Datalog rule body to a reusable left-deep plan over slot-bound
/// scans (slot i = body position i; `attrs[i]`/`sizes[i]` describe the input
/// occupying that slot at build time, `caches[i]` is the shared join-index
/// memo for static EDB atoms or null). The root projects to the rule's
/// distinct head variables. `delta_pos` (or -1) is pinned first in the join
/// order. `distinct` (optional, per slot per column) seeds the cardinality
/// model. The body must be nonempty. Scan labels render the constants that
/// `dict` (nullable) holds as codes by their strings.
Result<PlanNodePtr> PlanRuleBody(
    const DatalogRule& rule, const std::vector<std::vector<AttrId>>& attrs,
    const std::vector<size_t>& sizes,
    const std::vector<JoinIndexCache*>& caches, int delta_pos,
    const std::vector<std::vector<double>>& distinct = {},
    const Dictionary* dict = nullptr);

}  // namespace paraquery

#endif  // PARAQUERY_PLAN_PLANNER_H_
