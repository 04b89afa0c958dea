// Row predicates for selections: conjunctions of atomic column/column and
// column/constant constraints. This is exactly the selection language the
// paper's algorithms need (constants in atoms, repeated variables, the I2
// inequalities, comparison atoms, and Algorithm 1's F-selections).
#ifndef PARAQUERY_RELATIONAL_PREDICATE_H_
#define PARAQUERY_RELATIONAL_PREDICATE_H_

#include <span>
#include <string>
#include <vector>

#include "relational/value.hpp"

namespace paraquery {

/// One atomic constraint over a row.
struct Constraint {
  enum class Kind {
    kEqConst,   // row[lhs] == value
    kNeqConst,  // row[lhs] != value
    kLtConst,   // row[lhs] <  value
    kLeConst,   // row[lhs] <= value
    kGtConst,   // row[lhs] >  value
    kGeConst,   // row[lhs] >= value
    kEqCols,    // row[lhs] == row[rhs]
    kNeqCols,   // row[lhs] != row[rhs]
    kLtCols,    // row[lhs] <  row[rhs]
    kLeCols,    // row[lhs] <= row[rhs]
  };

  Kind kind;
  int lhs = 0;     // column index
  int rhs = 0;     // column index (kind *Cols only)
  Value value = 0; // constant (kind *Const only)

  bool Eval(std::span<const Value> row) const;
  /// True for the *Cols kinds, whose `rhs` is a column too.
  bool ReadsRhsColumn() const { return kind >= Kind::kEqCols; }
  std::string ToString() const;

  static Constraint EqConst(int col, Value v) {
    return {Kind::kEqConst, col, 0, v};
  }
  static Constraint NeqConst(int col, Value v) {
    return {Kind::kNeqConst, col, 0, v};
  }
  static Constraint LtConst(int col, Value v) {
    return {Kind::kLtConst, col, 0, v};
  }
  static Constraint LeConst(int col, Value v) {
    return {Kind::kLeConst, col, 0, v};
  }
  static Constraint GtConst(int col, Value v) {
    return {Kind::kGtConst, col, 0, v};
  }
  static Constraint GeConst(int col, Value v) {
    return {Kind::kGeConst, col, 0, v};
  }
  static Constraint EqCols(int a, int b) { return {Kind::kEqCols, a, b, 0}; }
  static Constraint NeqCols(int a, int b) { return {Kind::kNeqCols, a, b, 0}; }
  static Constraint LtCols(int a, int b) { return {Kind::kLtCols, a, b, 0}; }
  static Constraint LeCols(int a, int b) { return {Kind::kLeCols, a, b, 0}; }
};

/// A conjunction of constraints. An empty predicate accepts every row.
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<Constraint> cs) : constraints_(std::move(cs)) {}

  void Add(Constraint c) { constraints_.push_back(c); }
  bool empty() const { return constraints_.empty(); }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// True iff every constraint holds on `row`.
  bool Eval(std::span<const Value> row) const {
    for (const Constraint& c : constraints_) {
      if (!c.Eval(row)) return false;
    }
    return true;
  }

  std::string ToString() const;

 private:
  std::vector<Constraint> constraints_;
};

}  // namespace paraquery

#endif  // PARAQUERY_RELATIONAL_PREDICATE_H_
