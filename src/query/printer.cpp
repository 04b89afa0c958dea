// ToString implementations for query types (round-trips through the parser
// syntax in parser.hpp).

#include <sstream>

#include "query/conjunctive_query.hpp"
#include "query/datalog.hpp"
#include "query/first_order_query.hpp"
#include "relational/dictionary.hpp"

namespace paraquery {

namespace {

const char* OpText(CompareOp op) {
  switch (op) {
    case CompareOp::kNeq:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kEq:
      return "=";
  }
  return "?";
}

// A constant that `dict` (nullable) holds as a code prints as its quoted
// string, as the parser reads it.
void PrintTerm(std::ostringstream& oss, const VarTable& vars, const Term& t,
               const Dictionary* dict) {
  if (t.is_var()) {
    oss << (t.var() >= 0 && t.var() < vars.size() ? vars.name(t.var())
                                                  : "?badvar");
  } else if (dict != nullptr && dict->Contains(t.value())) {
    oss << "'" << dict->Lookup(t.value()) << "'";
  } else {
    oss << t.value();
  }
}

// Head prefix "name(" or "COUNT(" / "COUNT(*" for counting queries.
void PrintHead(std::ostringstream& oss, const VarTable& vars,
               const std::vector<Term>& head, const AnswerSpec& answer,
               const char* tuple_name, const Dictionary* dict) {
  oss << (answer.counting() ? "COUNT" : tuple_name) << "(";
  if (answer.kind == AnswerSpec::Kind::kCount) {
    oss << "*";
  } else {
    for (size_t i = 0; i < head.size(); ++i) {
      if (i > 0) oss << ",";
      PrintTerm(oss, vars, head[i], dict);
    }
  }
  oss << ")";
}

void PrintAtom(std::ostringstream& oss, const VarTable& vars, const Atom& a,
               const Dictionary* dict) {
  oss << a.relation << "(";
  for (size_t i = 0; i < a.terms.size(); ++i) {
    if (i > 0) oss << ",";
    PrintTerm(oss, vars, a.terms[i], dict);
  }
  oss << ")";
}

}  // namespace

std::string ConjunctiveQuery::ToString(const Dictionary* dict) const {
  std::ostringstream oss;
  PrintHead(oss, vars, head, answer, "ans", dict);
  oss << " :- ";
  bool first = true;
  for (const Atom& a : body) {
    if (!first) oss << ", ";
    first = false;
    PrintAtom(oss, vars, a, dict);
  }
  for (const CompareAtom& c : comparisons) {
    if (!first) oss << ", ";
    first = false;
    PrintTerm(oss, vars, c.lhs, dict);
    oss << " " << OpText(c.op) << " ";
    PrintTerm(oss, vars, c.rhs, dict);
  }
  oss << ".";
  return oss.str();
}

std::string FirstOrderQuery::ToString(const Dictionary* dict) const {
  std::ostringstream oss;
  PrintHead(oss, vars, head, answer, "q", dict);
  oss << " := ";
  auto print = [&](auto&& self, int id) -> void {
    const Node& n = nodes[id];
    switch (n.kind) {
      case NodeKind::kAtom:
        PrintAtom(oss, vars, atoms[n.atom], dict);
        break;
      case NodeKind::kCompare:
        PrintTerm(oss, vars, n.compare.lhs, dict);
        oss << " " << OpText(n.compare.op) << " ";
        PrintTerm(oss, vars, n.compare.rhs, dict);
        break;
      case NodeKind::kAnd:
      case NodeKind::kOr: {
        const char* op = n.kind == NodeKind::kAnd ? " and " : " or ";
        oss << "(";
        for (size_t i = 0; i < n.children.size(); ++i) {
          if (i > 0) oss << op;
          self(self, n.children[i]);
        }
        oss << ")";
        break;
      }
      case NodeKind::kNot:
        oss << "not ";
        self(self, n.children[0]);
        break;
      case NodeKind::kExists:
      case NodeKind::kForall:
        oss << (n.kind == NodeKind::kExists ? "exists " : "forall ");
        for (size_t i = 0; i < n.bound.size(); ++i) {
          if (i > 0) oss << ",";
          oss << vars.name(n.bound[i]);
        }
        oss << " . (";
        self(self, n.children[0]);
        oss << ")";
        break;
    }
  };
  if (root >= 0) {
    print(print, root);
  } else {
    oss << "<unset>";
  }
  oss << ".";
  return oss.str();
}

std::string DatalogRule::ToString(const Dictionary* dict) const {
  std::ostringstream oss;
  PrintAtom(oss, vars, head, dict);
  oss << " :- ";
  for (size_t i = 0; i < body.size(); ++i) {
    if (i > 0) oss << ", ";
    PrintAtom(oss, vars, body[i], dict);
  }
  oss << ".";
  return oss.str();
}

}  // namespace paraquery
