#include "query/datalog.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>

namespace paraquery {

Status DatalogRule::Validate() const {
  std::set<VarId> body_vars;
  for (const Atom& a : body) {
    if (a.relation.empty()) {
      return Status::InvalidArgument("rule body atom with empty relation");
    }
    for (const Term& t : a.terms) {
      if (t.is_var()) body_vars.insert(t.var());
    }
  }
  for (const Term& t : head.terms) {
    if (t.is_var() && body_vars.count(t.var()) == 0) {
      return Status::InvalidArgument(internal::StrCat(
          "unsafe rule: head variable '", vars.name(t.var()),
          "' does not occur in the body"));
    }
  }
  return Status::OK();
}

std::vector<std::string> DatalogProgram::IdbRelations() const {
  std::vector<std::string> out;
  for (const DatalogRule& r : rules) {
    if (std::find(out.begin(), out.end(), r.head.relation) == out.end()) {
      out.push_back(r.head.relation);
    }
  }
  return out;
}

bool DatalogProgram::IsIdb(const std::string& name) const {
  for (const DatalogRule& r : rules) {
    if (r.head.relation == name) return true;
  }
  return false;
}

Status DatalogProgram::Validate() const {
  if (rules.empty()) {
    return Status::InvalidArgument("Datalog program has no rules");
  }
  std::unordered_map<std::string, size_t> arity;
  for (const DatalogRule& r : rules) {
    PQ_RETURN_NOT_OK(r.Validate());
    auto check = [&arity](const Atom& a) -> Status {
      auto [it, inserted] = arity.emplace(a.relation, a.terms.size());
      if (!inserted && it->second != a.terms.size()) {
        return Status::InvalidArgument(internal::StrCat(
            "relation '", a.relation, "' used with arities ", it->second,
            " and ", a.terms.size()));
      }
      return Status::OK();
    };
    PQ_RETURN_NOT_OK(check(r.head));
    for (const Atom& a : r.body) PQ_RETURN_NOT_OK(check(a));
  }
  if (!IsIdb(goal)) {
    return Status::InvalidArgument(internal::StrCat(
        "goal relation '", goal, "' is not defined by any rule"));
  }
  return Status::OK();
}

int DatalogProgram::ArityOf(const std::string& relation) const {
  for (const DatalogRule& r : rules) {
    if (r.head.relation == relation) {
      return static_cast<int>(r.head.terms.size());
    }
    for (const Atom& a : r.body) {
      if (a.relation == relation) return static_cast<int>(a.terms.size());
    }
  }
  return -1;
}

int DatalogProgram::MaxIdbArity() const {
  int m = 0;
  for (const std::string& name : IdbRelations()) {
    m = std::max(m, ArityOf(name));
  }
  return m;
}

int DatalogProgram::MaxRuleVariables() const {
  int m = 0;
  for (const DatalogRule& r : rules) m = std::max(m, r.vars.size());
  return m;
}

size_t DatalogProgram::QuerySize() const {
  size_t q = 0;
  for (const DatalogRule& r : rules) {
    q += 1 + r.head.terms.size();
    for (const Atom& a : r.body) q += 1 + a.terms.size();
  }
  return q;
}

std::string DatalogProgram::ToString(const Dictionary* dict) const {
  std::ostringstream oss;
  for (const DatalogRule& r : rules) oss << r.ToString(dict) << "\n";
  oss << "% goal: " << goal << "\n";
  return oss.str();
}

}  // namespace paraquery
