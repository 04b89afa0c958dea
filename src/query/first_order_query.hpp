// First-order queries (relational calculus): atoms, comparisons, ∧, ∨, ¬,
// ∃, ∀ over a database schema. This is the most expressive non-recursive
// language in the paper's classification (Theorem 1: W[t]-hard for all t
// under parameter q, W[P]-hard under parameter v).
//
// Variable shadowing is permitted (a quantifier may rebind a variable bound
// or free outside it); the paper's θ_{2i} construction depends on this to
// keep the variable count at k+2.
#ifndef PARAQUERY_QUERY_FIRST_ORDER_QUERY_H_
#define PARAQUERY_QUERY_FIRST_ORDER_QUERY_H_

#include <string>
#include <vector>

#include "common/status.hpp"
#include "query/conjunctive_query.hpp"
#include "query/term.hpp"

namespace paraquery {

/// A first-order query {t0 | φ} with an explicit AST for φ.
class FirstOrderQuery {
 public:
  /// AST node kinds.
  enum class NodeKind { kAtom, kCompare, kAnd, kOr, kNot, kExists, kForall };

  struct Node {
    NodeKind kind = NodeKind::kAtom;
    /// kAtom: index into `atoms`.
    int atom = -1;
    /// kCompare: the comparison.
    CompareAtom compare;
    /// kAnd / kOr: >= 1 children; kNot / kExists / kForall: exactly 1.
    std::vector<int> children;
    /// kExists / kForall: bound variables (>= 1).
    std::vector<VarId> bound;
  };

  /// Output tuple t0; its variables are the intended free variables of root.
  std::vector<Term> head;
  std::vector<Atom> atoms;
  std::vector<Node> nodes;
  int root = -1;
  VarTable vars;
  /// Requested answer shape. For counting formulas (`COUNT(...) := φ`) the
  /// head holds the group keys (a subset of the free variables; empty for
  /// `COUNT(*)`), and the count ranges over the remaining free variables.
  AnswerSpec answer;

  // -- construction helpers (return the new node id) --
  int AddAtomNode(Atom atom);
  int AddCompareNode(CompareAtom compare);
  int AddAnd(std::vector<int> children);
  int AddOr(std::vector<int> children);
  int AddNot(int child);
  int AddExists(std::vector<VarId> bound, int child);
  int AddForall(std::vector<VarId> bound, int child);

  int NumVariables() const { return vars.size(); }

  /// Symbol-count size q of the query (atoms contribute 1 + arity, every
  /// connective/quantifier contributes 1 per node plus bound variables).
  size_t QuerySize() const;

  /// Free variables of node `n` (respecting shadowing), sorted.
  std::vector<VarId> FreeVariables(int n) const;

  /// Free variables of the root.
  std::vector<VarId> FreeVariables() const;

  /// Checks: root set, child ids in range and acyclic (children < parent is
  /// NOT required; an explicit DAG check runs instead), quantifiers bind at
  /// least one variable, free(root) ⊆ head variables. Counting formulas
  /// instead require head variables ⊆ free(root) (the group keys select a
  /// subset of the free variables; the rest are counted over) and a head of
  /// distinct variables.
  Status Validate() const;

  /// True if φ uses only kAtom, kAnd, kOr, kExists (a positive query).
  bool IsPositive() const;

  /// The formula in parser syntax; constants print as ConjunctiveQuery's do.
  std::string ToString(const Dictionary* dict = nullptr) const;
};

}  // namespace paraquery

#endif  // PARAQUERY_QUERY_FIRST_ORDER_QUERY_H_
