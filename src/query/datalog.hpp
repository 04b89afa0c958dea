// Datalog programs: positive rules with recursion (IDB relations defined by
// rules over EDB relations). Section 4 of the paper: with fixed-arity EDB and
// IDB relations, Datalog evaluation is W[1]-complete; without the arity bound
// the query size provably appears in the exponent (Vardi).
#ifndef PARAQUERY_QUERY_DATALOG_H_
#define PARAQUERY_QUERY_DATALOG_H_

#include <string>
#include <vector>

#include "common/status.hpp"
#include "query/term.hpp"
#include "relational/schema.hpp"

namespace paraquery {

class Dictionary;

/// One rule head :- body. Variables are scoped to the rule (each rule has
/// its own variable table).
struct DatalogRule {
  Atom head;
  std::vector<Atom> body;
  VarTable vars;

  /// Safety: every head variable occurs in the body.
  Status Validate() const;

  /// The rule in parser syntax; constants print as ConjunctiveQuery's do.
  std::string ToString(const Dictionary* dict = nullptr) const;
};

/// A Datalog program with a designated goal (output) relation.
class DatalogProgram {
 public:
  std::vector<DatalogRule> rules;
  /// Name of the goal relation (must be an IDB relation).
  std::string goal;

  /// Relations appearing in rule heads, in order of first definition.
  std::vector<std::string> IdbRelations() const;

  /// True if `name` is defined by some rule head.
  bool IsIdb(const std::string& name) const;

  /// Checks rule safety, consistent arities per relation across the program,
  /// and that the goal is an IDB relation.
  Status Validate() const;

  /// Arity of `relation` as used in this program, or -1 if absent.
  int ArityOf(const std::string& relation) const;

  /// Largest IDB arity — the quantity the paper's bounded-arity W[1]
  /// membership argument is parameterized by.
  int MaxIdbArity() const;

  /// Largest number of distinct variables in a single rule (parameter v).
  int MaxRuleVariables() const;

  /// Total symbol count (parameter q).
  size_t QuerySize() const;

  /// One rule per line; constants print as ConjunctiveQuery's do.
  std::string ToString(const Dictionary* dict = nullptr) const;
};

}  // namespace paraquery

#endif  // PARAQUERY_QUERY_DATALOG_H_
