// Theorem 2: fixed-parameter tractable evaluation of acyclic conjunctive
// queries with inequality (≠) atoms.
//
// Pipeline (exactly the paper's construction, Section 5):
//   1. Split the inequality atoms into I2 (x ≠ c, and x ≠ y whose endpoints
//      co-occur in some relational atom) and I1 (the rest). I2 is folded into
//      the per-atom selections F_j; I1 — the inequalities that would destroy
//      acyclicity — is handled by color coding.
//   2. Let V1 = vars(I1), k = |V1|. For a coloring h : D -> {1..k}, extend
//      each S_j with primed attributes x' = h(x) for x ∈ U_j ∩ V1.
//   3. Compute the attribute sets Y_j = U_j ∪ U'_j ∪ W'_j, where W_j pulls
//      x' up the join tree until the inequality partners meet (Lemma 1: the
//      Y_j form an acyclic hypergraph with the same join tree).
//   4. Algorithm 1 (emptiness): bottom-up pass
//      P_u := σ_F(P_u ⋈ π_{Y_j ∩ Y_u}(P_j)); each I1 atom is checked by F at
//      the least common ancestor of its endpoints' subtrees.
//   5. Algorithm 2 (evaluation): downward semijoin pass, then upward
//      join-and-project computing π_Z without materializing the full join.
//      The join tree is rooted at an atom that covers the head variables
//      when one exists; then every row of Algorithm 1's root extends to a
//      full assignment, π_head of that root is the answer, and Algorithm
//      2's passes are skipped.
//   6. Drive over a family of colorings: Monte Carlo (c·e^k trials, the
//      paper's randomized analysis) or a family certified k-perfect on the
//      values V1 can take (deterministic, exact; for k = 2 the minimal bit
//      family of hashing/coloring.hpp).
//
// Complexity: O(g(k) · q · n log n) per coloring for the decision problem,
// and output-sensitive for evaluation — the parameter never multiplies into
// the exponent of n.
//
// Steps 4–5 are LOWERED onto the physical plan IR: the residual query of a
// coloring compiles once into a PlanNode DAG (upward joins with the I1
// checks pushed into the join kernels, then — unless the head lies in the
// root atom — downward semijoins and upward join-and-project), and every
// coloring re-executes that one plan through
// the shared executor on re-bound hash-extended inputs S'_j — so the
// Theorem 2 engine inherits morsel parallelism, ResourceLimits, PlanStats,
// and .plan rendering. The compiled plan also holds the coloring family
// (ground set and certification), so a plan-cache hit rebuilds neither.
//
// Under the EvalContext: ctx.limits is enforced by the shared executor on
// EVERY per-coloring plan execution (each coloring gets a fresh max_steps
// budget: the bound is per residual query, not per family). With a plan
// cache, the compiled residual plan — S_j inputs, join tree, Y sets, lowered
// DAGs, coloring family — is keyed by the canonical query signature (+
// formula), the IneqOptions that shape the family (driver, seed,
// mc_error_exponent, certification budgets) and the database generation;
// each additional coloring executed against it is credited as a cache hit
// (PlanCache::NoteReuse).
//
// The colorings are independent, so they run concurrently: one scheduler
// task per coloring, each on a private clone of the compiled DAGs (the
// executor writes actuals into the nodes it runs), merged in coloring order
// — answers, PlanStats and EXPLAIN ANALYZE captures match the sequential
// loop's, and the first error in coloring order wins. A width-1 runtime
// runs the same tasks inline, in order, on the compiled DAGs themselves.
// The historical hand-rolled evaluation is gone; its recorded answers live
// on as the differential fixture tests/theorem2_recorded.inc.
#ifndef PARAQUERY_EVAL_INEQUALITY_H_
#define PARAQUERY_EVAL_INEQUALITY_H_

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "eval/context.hpp"
#include "query/conjunctive_query.hpp"
#include "relational/database.hpp"

namespace paraquery {

/// Options for the Theorem 2 engine.
struct IneqOptions {
  enum class Driver {
    /// Certified family when feasible on the ground set, else Monte Carlo.
    kAuto,
    /// The paper's randomized algorithm: c·e^k random colorings.
    kMonteCarlo,
    /// Deterministic family certified k-perfect on the active values of V1;
    /// fails with ResourceExhausted when certification is infeasible.
    kCertified,
  };

  Driver driver = Driver::kAuto;
  /// Error exponent c for Monte Carlo: failure probability <= e^-c per
  /// witness.
  double mc_error_exponent = 4.0;
  uint64_t seed = 0xC0FFEE;
  /// Certification budget: max number of k-subsets of the ground set.
  uint64_t certified_max_subsets = 2'000'000;
  size_t certified_max_members = 100'000;
};

/// Instrumentation reported by the engine.
struct IneqStats {
  int k = 0;                  // |V1|
  size_t i1_atoms = 0;        // inequalities handled by color coding
  size_t i2_atoms = 0;        // inequalities pushed into selections
  size_t family_size = 0;     // colorings available
  const char* family_kind = "";  // "bits" (k = 2 certified) or "random"
  size_t trials = 0;          // colorings actually executed
  bool certified = false;     // family certified k-perfect (exact result)
  size_t peak_rows = 0;       // largest intermediate P_u
};

/// Decides Q(d) != {} for an acyclic conjunctive query with ≠ atoms.
/// With a certified family the answer is exact; with Monte Carlo a `false`
/// is wrong with probability <= e^-c (a `true` is always sound).
/// `plan_stats`, when given, receives the shared executor's counters
/// aggregated over every coloring executed.
Result<bool> IneqNonempty(const Database& db, const ConjunctiveQuery& q,
                          const EvalContext& ctx = {},
                          const IneqOptions& options = {},
                          IneqStats* stats = nullptr,
                          PlanStats* plan_stats = nullptr);

/// Computes Q(d). With a certified family the result is exact; with Monte
/// Carlo each answer tuple is missed with probability <= e^-c.
Result<Relation> IneqEvaluate(const Database& db, const ConjunctiveQuery& q,
                              const EvalContext& ctx = {},
                              const IneqOptions& options = {},
                              IneqStats* stats = nullptr,
                              PlanStats* plan_stats = nullptr);

/// Decides t ∈ Q(d).
Result<bool> IneqContains(const Database& db, const ConjunctiveQuery& q,
                          const std::vector<Value>& tuple,
                          const EvalContext& ctx = {},
                          const IneqOptions& options = {},
                          IneqStats* stats = nullptr);

/// Renders the lowered Theorem 2 evaluation plan (the coloring-independent
/// residual DAG: upward joins + I1 selects, then either the root's head
/// projection, announced as "Algorithm 1 only", or downward semijoins and
/// upward join-and-project) without executing it. Primed hash columns render as
/// name' next to their base variable. Fails where the engine would (cyclic
/// body, non-≠ comparisons).
Result<std::string> IneqPlanText(const Database& db,
                                 const ConjunctiveQuery& q);

class IneqFormula;

/// The Section 5 parameter-q extension: an acyclic comparison-free body
/// plus an arbitrary ∧/∨ formula over ≠ atoms. The hash range grows to
/// k = #variables + #constants of the formula, every formula variable's
/// primed attribute is carried to the root, and φ is applied there as a
/// selection over colors (it cannot be pushed below an ∨). Soundness is
/// unconditional; completeness follows from a coloring injective on the
/// witness values and formula constants, exactly as in Theorem 2.
Result<bool> IneqFormulaNonempty(const Database& db, const ConjunctiveQuery& q,
                                 const IneqFormula& phi,
                                 const EvalContext& ctx = {},
                                 const IneqOptions& options = {},
                                 IneqStats* stats = nullptr,
                                 PlanStats* plan_stats = nullptr);

/// Full evaluation under the formula extension. The relational passes run
/// through the shared executor; φ itself is applied at the root as a
/// per-coloring row filter (an ∧/∨ formula is not a conjunctive Predicate,
/// and its constants take per-coloring colors, so it cannot live inside the
/// cached coloring-independent plan).
Result<Relation> IneqFormulaEvaluate(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const IneqFormula& phi,
                                     const EvalContext& ctx = {},
                                     const IneqOptions& options = {},
                                     IneqStats* stats = nullptr,
                                     PlanStats* plan_stats = nullptr);

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_INEQUALITY_H_
