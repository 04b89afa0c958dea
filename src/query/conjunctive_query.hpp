// Conjunctive queries G(t0) :- R_i1(t1), ..., R_is(ts) [, comparisons] —
// the central query class of the paper. Carries optional ≠ / < / ≤ atoms so
// one type serves Theorem 1 (pure CQs), Theorem 2 (acyclic + ≠), and
// Theorem 3 (acyclic + comparisons).
#ifndef PARAQUERY_QUERY_CONJUNCTIVE_QUERY_H_
#define PARAQUERY_QUERY_CONJUNCTIVE_QUERY_H_

#include <string>
#include <vector>

#include "common/status.hpp"
#include "hypergraph/hypergraph.hpp"
#include "query/term.hpp"

namespace paraquery {

class Dictionary;

/// What shape of answer a query asks for. The default (kTuples) is the
/// classical contract: a materialized relation of head tuples. Counting
/// queries (`COUNT(*) :- ...` / `COUNT(x, y) :- ...`) instead ask for the
/// NUMBER of satisfying assignments — total or per group — and the engine is
/// free to answer them without ever materializing the join output.
struct AnswerSpec {
  enum class Kind {
    kTuples,        ///< materialized head tuples (the classical contract)
    kCount,         ///< one scalar: # assignments to all body variables
    kGroupedCount,  ///< per head-tuple group: (group values..., count)
  };
  Kind kind = Kind::kTuples;

  bool counting() const { return kind != Kind::kTuples; }

  static AnswerSpec Tuples() { return {Kind::kTuples}; }
  static AnswerSpec Count() { return {Kind::kCount}; }
  static AnswerSpec GroupedCount() { return {Kind::kGroupedCount}; }

  bool operator==(const AnswerSpec& o) const { return kind == o.kind; }
};

/// A conjunctive query with optional comparison atoms.
class ConjunctiveQuery {
 public:
  /// Head terms t0 (variables must occur in the body: safety).
  std::vector<Term> head;
  /// Relational atoms of the body.
  std::vector<Atom> body;
  /// Comparison atoms (≠, <, ≤; = is only produced by parsing and is
  /// eliminated by the comparison closure).
  std::vector<CompareAtom> comparisons;
  /// Variable names (ids index into this table).
  VarTable vars;
  /// Requested answer shape. For counting queries the head holds the group
  /// keys (empty for the scalar `COUNT(*)`), the count column is implicit,
  /// and the count ranges over assignments to the REMAINING body variables.
  AnswerSpec answer;

  /// Number of distinct variables v (the paper's second parameter).
  int NumVariables() const { return vars.size(); }

  /// Query size q: symbol count of the standard encoding (relation name +
  /// terms per atom, head included, 3 per comparison). This is the paper's
  /// first parameter, up to the constant factor irrelevant for parametrized
  /// statements.
  size_t QuerySize() const;

  /// Variables occurring in the head / body (order of first occurrence).
  std::vector<VarId> HeadVariables() const;
  std::vector<VarId> BodyVariables() const;

  /// True if the query is Boolean (0-ary head).
  bool IsBoolean() const { return head.empty(); }

  /// Hypergraph over variables with one edge per *relational* atom — the
  /// object whose acyclicity defines "acyclic query" in Section 5 (inequality
  /// atoms are deliberately NOT edges).
  Hypergraph BuildHypergraph() const;

  /// True if BuildHypergraph() is acyclic.
  bool IsAcyclic() const;

  /// True if all comparison atoms are ≠.
  bool HasOnlyInequalities() const;
  /// True if some comparison atom is < or ≤.
  bool HasOrderComparisons() const;
  bool HasComparisons() const { return !comparisons.empty(); }

  /// Safety / well-formedness: head variables and comparison variables occur
  /// in relational atoms; term arities are positive; variable ids in range.
  /// Counting queries additionally require the head (the group keys) to be a
  /// list of DISTINCT VARIABLES — constants and repeats have no grouping
  /// meaning.
  Status Validate() const;

  /// Substitutes constants for variables (used to turn the decision problem
  /// "t ∈ Q(d)?" into an emptiness problem, as the paper does). `bindings`
  /// maps VarId -> Value for the variables to replace; the head is replaced
  /// by the empty (Boolean) head.
  ConjunctiveQuery BindHead(const std::vector<Value>& tuple) const;

  /// The query in parser syntax. Constants that `dict` holds as codes
  /// print as their quoted strings; without a dictionary every constant
  /// prints as its integer.
  std::string ToString(const Dictionary* dict = nullptr) const;
};

}  // namespace paraquery

#endif  // PARAQUERY_QUERY_CONJUNCTIVE_QUERY_H_
