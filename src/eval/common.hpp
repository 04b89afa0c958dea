// Shared helpers for the evaluators: turning a relational atom into an
// attribute-labelled relation over its variables (the S_j = π_{U_j}
// σ_{F_j}(R_{i_j}) step that every algorithm in the paper starts with), and
// mapping variable bindings through head terms into answer tuples.
#ifndef PARAQUERY_EVAL_COMMON_H_
#define PARAQUERY_EVAL_COMMON_H_

#include <vector>

#include "common/status.hpp"
#include "eval/context.hpp"
#include "query/term.hpp"
#include "relational/database.hpp"
#include "relational/named_relation.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {

/// Builds the relation S over the distinct variables U of `atom` from the
/// stored relation `rel`: selects rows matching the atom's constants and
/// repeated-variable equalities, then projects one column per variable (in
/// order of first occurrence). `filters` are comparison atoms whose variables
/// all occur in the atom (plus var/constant comparisons); they are folded
/// into the selection, implementing the paper's "push the I2 inequalities
/// into F_j". Returns InvalidArgument if the atom arity mismatches or a
/// filter references a variable outside the atom.
Result<NamedRelation> AtomToRelation(const Relation& rel, const Atom& atom,
                                     const std::vector<CompareAtom>& filters = {});

/// Resolves `atom.relation` in `db` and delegates to AtomToRelation.
Result<NamedRelation> AtomToRelation(const Database& db, const Atom& atom,
                                     const std::vector<CompareAtom>& filters = {});

/// Converts variable bindings (a relation whose attributes are VarIds
/// covering every head variable) into answer tuples through `head`:
/// variables are looked up, constants copied, all rows gathered into one
/// buffer. A head that lists exactly the bindings' attributes, in order,
/// maps each row to itself: the answer is then the bindings' own storage
/// (and sorted() flag), not a copy, so callers move the bindings in and a
/// later sort of an exclusively owned result runs in place. With
/// `sort_output` true the result is sorted and deduplicated (sequentially);
/// with false it is the unsorted mapping and may contain duplicates.
/// Evaluators pass false and finish with SortAnswers, so each answer is
/// sorted exactly once: unions (UCQ disjuncts, Theorem 2 colorings) sort
/// each part in its own task and merge the parts (MergeSortedAnswers), and
/// the Datalog fixpoint deduplicates rule firings through its own hash sets.
Relation BindingsToAnswers(NamedRelation bindings,
                           const std::vector<Term>& head,
                           bool sort_output = true);

/// Wraps a row-major answer buffer holding `rows` rows of `arity` values as
/// a Relation. For arity 0 the buffer is empty and any row makes the answer
/// "true" (one empty row).
Relation AnswerRelation(size_t arity, size_t rows, std::vector<Value> values);

/// The answer contract's one sort: sorts `answers` lexicographically and
/// deduplicates, at the evaluator boundary, chunk-parallel over the
/// runtime's scheduler. When EXPLAIN ANALYZE or a tracer is armed the sort
/// is timed (PlanCapture::NoteAnswerSort, an `answer.sort` span); otherwise
/// it reads no clock.
Relation SortAnswers(Relation answers, const RuntimeOptions& runtime);

/// The union's form of that one sort: merges answers that SortAnswers
/// already sorted (each part sorted and duplicate-free, `arity` columns)
/// into one sorted, duplicate-free relation — a balanced tree of linear
/// two-way merges, one merge for two parts — so a later SortAnswers is a
/// no-op. Timed like SortAnswers.
Relation MergeSortedAnswers(const std::vector<Relation>& parts, size_t arity,
                            const RuntimeOptions& runtime);

/// A planner entry point (PlanAcyclicCq, PlanCyclicCq, PlanCountingCq, ...).
using CqPlanner = Result<PhysicalPlan> (*)(const Database&,
                                           const ConjunctiveQuery&,
                                           const PlannerOptions&);

/// The plan-routed evaluators' one plan-fetch path: plans `q` with
/// `plan_cq` — through ctx's plan cache, when bound, as q's canonical form
/// under `key_prefix` + PlannerCacheTag + signature, with the fault point
/// `insert_fault` (or none) before the insert — and executes it. Returns
/// the bindings; `head_out` (if set) receives the head they map through.
Result<NamedRelation> ExecuteCachedPlan(const Database& db,
                                        const ConjunctiveQuery& q,
                                        const EvalContext& ctx,
                                        const char* key_prefix,
                                        CqPlanner plan_cq,
                                        const char* insert_fault,
                                        PlanStats* plan_stats,
                                        std::vector<Term>* head_out = nullptr);

/// True if every variable of `cmp` occurs in `atom_vars`.
bool ComparisonWithin(const CompareAtom& cmp, const std::vector<VarId>& atom_vars);

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_COMMON_H_
