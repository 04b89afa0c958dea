// Physical plan IR: the one executable representation every evaluator lowers
// to. A plan is a DAG of PlanNodes (shared subplans are permitted — the
// Yannakakis schedule reuses reduced relations in several places) over the
// operators the paper's algorithms are stated in: Scan (an S_j input slot),
// Select, Project, HashJoin, Semijoin and Dedup, plus the physical
// additions Materialize, MultiwayJoin, Aggregate and SemijoinCount. A
// HashJoin may fuse its parent's work: a projection (join-project) or a
// count (join-count, which the counting planner uses to sum each hypertree
// bag down to its interface without materializing the bag). A union of
// conjunctive queries is not one plan: the UCQ evaluator runs each
// disjunct's plan, sorts each answer in the disjunct's task and merges the
// sorted answers once.
//
// The planner (planner.hpp) lowers classified queries to plans; the executor
// (executor.hpp) runs any plan on the RowBlock/RowIndex kernels and fills in
// per-node actual row counts next to the planner's estimates. RenderPlan
// prints the indented tree EXPLAIN shows.
#ifndef PARAQUERY_PLAN_PLAN_H_
#define PARAQUERY_PLAN_PLAN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "query/term.hpp"
#include "relational/named_relation.hpp"
#include "relational/predicate.hpp"
#include "relational/row_index.hpp"

namespace paraquery {

/// Unified resource guard, carried from EngineOptions through the
/// EvalContext (eval/context.hpp) to every evaluator and plan execution.
struct ResourceLimits {
  /// Abort (ResourceExhausted) when a single operator's output exceeds this
  /// many rows (0 = off). Scans are inputs and are exempt.
  uint64_t max_rows = 0;
  /// Abort (ResourceExhausted) when the total rows produced by all operators
  /// of one plan execution exceed this (0 = off).
  uint64_t max_steps = 0;
  /// Abort (DeadlineExceeded) when the query has run for this many wall-clock
  /// milliseconds (0 = off). Armed by the Engine into a QueryContext at the
  /// start of each Run; evaluators called directly honor it only when the
  /// caller threads a QueryContext through RuntimeOptions::query_ctx.
  uint64_t max_wall_ms = 0;
  /// Abort (ResourceExhausted) when RowBlock storage allocated during the
  /// query exceeds this many bytes (0 = off). Same arming path as
  /// max_wall_ms.
  uint64_t max_bytes = 0;
};

/// Physical operators.
enum class PlanOp {
  kScan,      // read input slot `input_slot` (an S_j or an IDB/delta view)
  kSelect,    // filter by `predicate` (columns index the child's attrs)
  kProject,   // keep `attrs`, optionally deduplicating
  kHashJoin,  // natural join, right side probed through a RowIndex. When
              // `attrs` omits a child attribute (JoinProjectedOut) the node
              // is a fused join-project π_attrs(L ⋈ R) with set semantics;
              // when `attrs` ends with kCountAttr it is a fused join-count
              // (MakeJoinCount), with an optional third child, its weight.
              // Both run as grouped kernels (runtime/parallel_ops.hpp
              // JoinProject, JoinCount) that never materialize the join
  kSemijoin,  // left ⋉ right
  kDedup,     // explicit set-semantics enforcement
  kMaterialize,  // representation boundary: executes its child chain through
                 // the vectorized columnar pipeline (selection vectors over
                 // column stripes) and materializes the result back to rows
                 // for the row-at-a-time consumer above
  kMultiwayJoin,  // worst-case-optimal n-ary join: intersects all children
                  // attribute-by-attribute with leapfrog triejoin over
                  // per-child sorted tries (relational/leapfrog.hpp). attrs
                  // is the global attribute order; every child's attrs must
                  // be a subset of it
  kAggregate,      // group by `attrs` minus the trailing kCountAttr column
                   // and emit per-group counts: sums the child's kCountAttr
                   // multiplicity column when present, else counts rows.
                   // Output rows appear in first-occurrence group order.
  kSemijoinCount,  // multiplicity-weighted semijoin: left rows that match
                   // the right on the shared REGULAR attributes survive,
                   // with multiplicity = left mult x (sum of matching right
                   // mult). The counting-Yannakakis upward step.
};

const char* PlanOpName(PlanOp op);

/// Reserved attribute id of the implicit multiplicity/count column carried
/// by counting plans (kAggregate output, kSemijoinCount output). Negative so
/// it can never collide with a query variable id; renders as "#count".
inline constexpr AttrId kCountAttr = -2;

/// True iff `attrs` ends with the multiplicity column.
inline bool HasCountAttr(const std::vector<AttrId>& attrs) {
  return !attrs.empty() && attrs.back() == kCountAttr;
}

/// Physical representation a node executes in. Planner-assigned: nodes on a
/// chain under a kMaterialize boundary are tagged kColumnar and run as
/// vectorized stages; everything else stays row-at-a-time. The tag is purely
/// physical — a columnar node computes exactly the rows its row twin would.
enum class PlanRepr {
  kRow,
  kColumnar,
};

/// Counters shared by every plan execution: the one operator-level stats
/// record every evaluator reports through its `plan_stats` out-parameter.
/// Evaluator-specific structs (DatalogStats, UcqStats, IneqStats) keep only
/// their non-operator counters (fixpoint iterations, disjuncts, colorings).
struct PlanStats {
  size_t scans = 0;
  size_t selects = 0;
  size_t projections = 0;
  size_t semijoins = 0;
  size_t joins = 0;
  size_t dedups = 0;
  /// Worst-case-optimal multiway joins executed (leapfrog triejoin).
  size_t multiway_joins = 0;
  /// Counting operators executed (counting-Yannakakis / COUNT plans).
  size_t aggregates = 0;
  size_t semijoin_counts = 0;
  /// Semijoin, Aggregate, SemijoinCount and fused HashJoin executions
  /// keyed through a dense KeyRange array or key runs rather than a
  /// RowIndex.
  size_t dense_keys = 0;
  /// Largest operator output (scans excluded) seen during execution.
  size_t peak_intermediate_rows = 0;
  /// Total rows produced by operators (the ResourceLimits::max_steps meter).
  uint64_t rows_produced = 0;
  /// S_j scans bound to the stored relation's storage or to the set form
  /// cached on it (plan time): zero-copy inputs shared across plans.
  size_t shared_atom_storage = 0;
  /// Project calls answered by a storage-sharing view instead of a row copy.
  size_t zero_copy_projections = 0;
  /// JoinIndexCache activity (memoized join indexes over cached scans).
  size_t index_builds = 0;
  size_t index_hits = 0;
  /// Parallel runtime activity (all zero on single-threaded executions):
  /// structural tasks handed to the scheduler (plan subtrees, UCQ
  /// disjuncts, Datalog rule firings), morsels processed by data-parallel
  /// operators, and wall-clock seconds summed over plan executions.
  size_t parallel_tasks = 0;
  size_t morsels = 0;
  double wall_seconds = 0;
  /// Column batches processed by vectorized pipeline stages (0 when every
  /// operator ran row-at-a-time).
  size_t vec_batches = 0;

  void Merge(const PlanStats& o);
  std::string ToString() const;
};

/// Memo of RowIndexes over one materialized relation, keyed by probe-column
/// list. Scan nodes may carry one; HashJoins whose probe side is such a scan
/// reuse the built index across executions (e.g. semi-naive iterations over
/// a static EDB atom). The indexed relation must stay alive and unmodified
/// for the cache's lifetime; any storage-sharing view may probe it.
class JoinIndexCache {
 public:
  /// Thread-safe: concurrent Datalog rule firings share one cache per EDB
  /// materialization. Returned references stay valid (deque storage) for
  /// the cache's lifetime. A bound `pfor` parallelizes a cache-miss build
  /// (the built index is identical either way; see RowIndex).
  const RowIndex& GetOrBuild(const Relation& rel, const std::vector<int>& cols,
                             PlanStats* stats, const ParallelForFn& pfor = {});

 private:
  std::mutex mutex_;
  std::deque<std::pair<std::vector<int>, RowIndex>> indexes_;
};

struct PlanNode;
using PlanNodePtr = std::shared_ptr<PlanNode>;

/// One physical operator. Nodes may be shared between parents (DAG); the
/// executor evaluates each node at most once per execution.
struct PlanNode {
  static constexpr uint64_t kNotExecuted = ~uint64_t{0};

  PlanOp op = PlanOp::kScan;
  std::vector<PlanNodePtr> children;
  /// Output attributes (query variable ids).
  std::vector<AttrId> attrs;
  /// Human-readable annotation: relation/atom text for Scan, predicate text
  /// for Select, ...
  std::string label;
  /// Planner's cardinality estimate (< 0: unknown, rendered as "?").
  double est_rows = -1.0;
  /// Per-attribute distinct-value estimates parallel to `attrs` (empty =
  /// unknown, entries < 0 = unknown). Scans seed them from
  /// Relation::DistinctCount; Make* constructors propagate them and use
  /// them for System-R style join selectivities.
  std::vector<double> attr_distinct;

  // --- kScan payload ---
  int input_slot = -1;
  JoinIndexCache* index_cache = nullptr;

  // --- kSelect payload (columns index this node's attrs) ---
  // Also carried by kHashJoin as a pushed post-filter: the kernel drops
  // failing rows during the probe (σ_F(L ⋈ R) without materializing the
  // unfiltered join — the paper's Algorithm 1 step).
  Predicate predicate;

  // --- kProject payload ---
  bool dedup = true;

  /// Physical representation (see PlanRepr). Set by the planner; rendered as
  /// a "[vec]" suffix.
  PlanRepr repr = PlanRepr::kRow;

  /// Filled by the executor (rows of the computed result).
  uint64_t actual_rows = kNotExecuted;
  /// Morsels the executor processed for this operator (0 = it ran
  /// sequentially); rendered next to actual_rows for parallel executions.
  uint64_t actual_morsels = 0;
  /// Column batches a kMaterialize boundary pushed through its vectorized
  /// pipeline (0 = not executed vectorized); rendered as "vec=N".
  uint64_t actual_batches = 0;
  /// Key structure a Semijoin, Aggregate, SemijoinCount or fused HashJoin
  /// probed (a KeyRange-indexed array or key runs, or a RowIndex); rendered
  /// as "key=dense" or "key=hash".
  KeyKind actual_key = KeyKind::kNone;
  /// Cumulative wall nanoseconds spent computing this node, children
  /// included (the compute recursion runs through the children). Filled only
  /// when the executor runs with timing armed (tracing or EXPLAIN ANALYZE);
  /// 0 otherwise. Summed across executions of a reused plan.
  uint64_t actual_ns = 0;

  /// Clears actual_rows/actual_morsels recursively (before re-executing a
  /// cached plan).
  void ResetActuals();
};

PlanNodePtr MakeScan(int slot, std::vector<AttrId> attrs, std::string label,
                     double est_rows, JoinIndexCache* cache = nullptr,
                     std::vector<double> attr_distinct = {});
PlanNodePtr MakeSelect(PlanNodePtr child, Predicate predicate);
PlanNodePtr MakeProject(PlanNodePtr child, std::vector<AttrId> attrs,
                        bool dedup);
/// `post_filter` is applied inside the join kernel; its columns index the
/// join row (left attrs, then right-only attrs). A filtered plain join runs
/// the sequential probe rather than the morsel-parallel fast path.
///
/// A nonempty `project` (a subset of the join's attributes that drops at
/// least one, in output order) makes the node a fused join-project: attrs =
/// `project`, and the executor computes the distinct rows of
/// π_project(σ_post_filter(L ⋈ R)) in one grouped pass, never materializing
/// the join. A fused join may therefore filter too: the filter still
/// indexes the join row, not `project`. The planners emit it through
/// ProjectHead. EXPLAIN renders the dropped attributes, then the filter,
/// e.g. "HashJoin(x, z) project-out(y) $0<$2".
PlanNodePtr MakeHashJoin(PlanNodePtr left, PlanNodePtr right,
                         Predicate post_filter = {},
                         std::vector<AttrId> project = {});

/// The head projection π_head(root) of a plan whose `root` is a set. It is
/// `root` itself when `head` equals root's attrs. When root is a plain or
/// filtered HashJoin (neither fused already nor a join-count) and `head` is
/// nonempty and drops one of its attributes, the projection fuses into that
/// join, filter included (MakeHashJoin's `project`). Otherwise it is a
/// deduplicating Project.
PlanNodePtr ProjectHead(const PlanNodePtr& root,
                        const std::vector<AttrId>& head);

/// The attributes a kHashJoin node projects away — or, for a join-count,
/// sums out: its children's attributes absent from its own attrs, in child
/// order. Empty for a plain join.
std::vector<AttrId> JoinProjectedOut(const PlanNode& n);

/// Fused join-count γ_{group; #count}(left ⋈ right): attrs are
/// `group_attrs` (each an attribute of the join) plus kCountAttr, and the
/// executor counts each group's join rows in one grouped kernel
/// (runtime/parallel_ops.hpp JoinCount), never materializing the join. Both
/// children are regular (no kCountAttr). The output is what
/// MakeAggregate(MakeHashJoin(left, right), group_attrs) computes, ordered
/// by group. A non-null `weight` must itself be an unweighted join-count
/// over the same group attributes that draws the same ones from its left
/// child (JoinCountKey); it becomes a third child whose counts multiply in,
/// as MakeSemijoinCount(join_count, weight) would — a group without a
/// weight count drops out — while the kernel computes both joins' counts
/// group by group, materializing neither. The counting planner emits
/// join-counts for the hypertree bags whose join is a binary chain, with
/// the bag's private variables summed out. EXPLAIN renders those, e.g.
/// "HashJoin(y, w, #count) count-out(z)".
PlanNodePtr MakeJoinCount(PlanNodePtr left, PlanNodePtr right,
                          std::vector<AttrId> group_attrs,
                          PlanNodePtr weight = nullptr);

/// True for a fused join-count node (a kHashJoin whose attrs end with
/// kCountAttr).
bool IsJoinCount(const PlanNode& n);

/// The group attributes a join-count over `left` draws from that child
/// (the kernel's grouping key K), sorted.
std::vector<AttrId> JoinCountKey(const std::vector<AttrId>& left,
                                 const std::vector<AttrId>& group_attrs);

PlanNodePtr MakeSemijoin(PlanNodePtr left, PlanNodePtr right);
PlanNodePtr MakeDedup(PlanNodePtr child);
/// Representation boundary over `child` (same attrs/estimates). The executor
/// runs the chain below it vectorized when eligible (vec_pipeline.hpp) and
/// falls back to executing the child row-at-a-time otherwise.
PlanNodePtr MakeMaterialize(PlanNodePtr child);
/// Worst-case-optimal multiway join of `children` over the global attribute
/// order `attrs` (every child's attrs must be a subset). The cardinality
/// estimate is an AGM-flavored fractional power of the product of the child
/// estimates — (Π|R_i|)^(v/2m) for v attributes over m children — which
/// lands on the worst-case bounds of the standard cores (N^{3/2} for the
/// triangle, N^2 for the 4-clique) instead of the binary chain's N^2 / N^3.
PlanNodePtr MakeMultiwayJoin(std::vector<PlanNodePtr> children,
                             std::vector<AttrId> attrs);
/// Hash aggregation: group `child` by `group_attrs` (each must be a regular
/// attr of the child) and append the kCountAttr count column. When the child
/// itself carries a kCountAttr column its values are summed per group;
/// otherwise each row counts 1. A scalar COUNT(*) is `group_attrs = {}` —
/// note it emits NO row for an empty input (the eval layer supplies the 0).
PlanNodePtr MakeAggregate(PlanNodePtr child, std::vector<AttrId> group_attrs);
/// Counting semijoin `left ⋉# right`: output attrs are left's regular attrs,
/// then right's regular attrs absent from left, then kCountAttr. For each
/// left row matching the right on the shared regular attrs, emits one row
/// per matching DISTINCT right row extension with multiplicity
/// left_mult x right_mult; when the right adds no new regular attrs the
/// matches collapse to one output row with the right multiplicities summed.
/// Non-matching left rows are dropped (the semijoin filter).
PlanNodePtr MakeSemijoinCount(PlanNodePtr left, PlanNodePtr right);

/// Deep-copies a plan DAG (shared subplans stay shared within the clone),
/// with actual_rows/actual_morsels reset. When `slot_caches` is non-null,
/// each cloned Scan's index_cache is rebound to (*slot_caches)[input_slot]
/// (nullptr when the slot is out of range) — cross-run reuse of cached rule
/// plans must not keep join-index pointers into a finished run. The source
/// nodes' structure (op, children, attrs, predicate) is read but never
/// written, so cloning may race only with executor writes to actuals, which
/// the clone does not read.
PlanNodePtr ClonePlan(const PlanNode& root,
                      const std::vector<JoinIndexCache*>* slot_caches = nullptr);
/// Clones several roots in one pass: a subplan shared between roots stays
/// shared between the cloned roots (out[i] is the clone of roots[i]).
std::vector<PlanNodePtr> ClonePlan(const std::vector<const PlanNode*>& roots);

/// Renders the plan as an indented tree, one node per line:
///
///   HashJoin(x, y, z) est=40 actual=31
///     Semijoin(x, y) est=50 actual=44 as #1
///       Scan E(x, y) rows=50
///       Scan E(y, z) rows=50
///     Scan E(y, z) rows=50
///
/// Attributes print as variable names when `vars` is given, ids otherwise.
/// Shared subplans are printed once; later references render as "see #k".
std::string RenderPlan(const PlanNode& root, const VarTable* vars = nullptr);

/// EXPLAIN ANALYZE render: RenderPlan plus per-node wall time when the
/// executor ran with timing armed — "time=" is cumulative (children
/// included), "self=" subtracts the children's cumulative time (clamped at
/// 0; a shared subplan's time is subtracted under each parent that names
/// it). A separate function so EXPLAIN golden renders stay byte-stable.
std::string RenderAnalyzedPlan(const PlanNode& root,
                               const VarTable* vars = nullptr);

}  // namespace paraquery

#endif  // PARAQUERY_PLAN_PLAN_H_
