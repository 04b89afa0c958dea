// Query classification according to the paper's results: given a query,
// report its language class, the parameters q and v, structural properties
// (acyclicity, inequality/comparison usage), the parametrized-complexity
// verdict of Theorem 1/2/3 for both parameters, and the evaluation engine
// this library would pick.
#ifndef PARAQUERY_CORE_CLASSIFIER_H_
#define PARAQUERY_CORE_CLASSIFIER_H_

#include <string>

#include "plan/planner.hpp"
#include "plan/route.hpp"

namespace paraquery {

/// Query language classes of the paper (Section 3).
enum class QueryLanguage { kConjunctive, kPositive, kFirstOrder, kDatalog };

const char* QueryLanguageName(QueryLanguage lang);

/// The classification verdict.
struct Classification {
  QueryLanguage language = QueryLanguage::kConjunctive;
  size_t q = 0;  // query size
  int v = 0;     // number of variables

  bool acyclic = false;          // hypergraph of relational atoms
  bool has_inequalities = false; // ≠ atoms
  bool has_order = false;        // < / ≤ atoms
  bool prenex = false;           // for positive/FO queries
  int max_idb_arity = 0;         // for Datalog

  /// Counting workload (AnswerSpec is COUNT(*) or a grouped count): the
  /// query asks for answer counts, not answer tuples.
  bool counting = false;
  /// Counting-tractability verdict. The engine's COUNT counts assignments
  /// to ALL body variables (group keys select, nothing is projected away
  /// before counting), which is the tractable side of the Pichler–Skritek /
  /// Chen–Mengel counting trichotomy for acyclic queries; quantified
  /// (projected) counting would be #P-hard even on acyclic queries.
  std::string counting_class;

  /// True if this library evaluates the query in f.p. polynomial time
  /// (g(parameter) · poly(n)).
  bool fixed_parameter_tractable = false;

  /// Theorem 1/2/3 verdict under each parameter, e.g. "W[1]-complete".
  std::string class_under_q;
  std::string class_under_v;

  /// Citation within the paper backing the verdict.
  std::string basis;

  /// The route the engine runs (RouteDecision::engine and ::reason).
  EngineChoice engine = EngineChoice::kNaive;
  const char* route = "";

  std::string ToString() const;
};

/// Classifies the query the engine runs: after the comparison closure, the
/// verdict and engine of DecideRoute(q, planner).
Classification ClassifyConjunctive(const ConjunctiveQuery& q,
                                   const PlannerOptions& planner = {});
/// The same, for a route already decided for `q`.
Classification ClassifyConjunctive(const ConjunctiveQuery& q,
                                   const RouteDecision& route);
Classification ClassifyPositive(const PositiveQuery& q);
Classification ClassifyFirstOrder(const FirstOrderQuery& q);
Classification ClassifyDatalog(const DatalogProgram& p);

}  // namespace paraquery

#endif  // PARAQUERY_CORE_CLASSIFIER_H_
