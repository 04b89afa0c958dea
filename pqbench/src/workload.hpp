// The benchmark's seeded workloads: database, query pool and operation
// script, all a pure function of (workload, seed).
//
//   interactive  small database (4 random binary relations of 2k rows, the
//                paper's EP / SD-SC-CD / EM-ES scenario relations and a
//                sparse graph E); a few hundred distinct query texts over
//                all seven engine routes, drawn with a skewed repeat
//                distribution; threads = 1, plan cache on.
//   analytic     large database (4 random binary relations of 100k rows,
//                domain 20k, scenario relations at 20k entities, a sparse
//                chain graph E); a fixed set of heavy queries, each
//                repeated; threads = 4.
//   update       the interactive database and pool, with a write batch
//                (appended through Relation::Add) after every 10 reads.
#ifndef PQBENCH_WORKLOAD_H_
#define PQBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "relational/database.hpp"

namespace pqbench {

enum class Workload { kInteractive, kAnalytic, kUpdate };

const char* WorkloadName(Workload w);
/// Parses a workload name; false if unknown.
bool ParseWorkload(const std::string& name, Workload* out);

/// Syntax family of a query text (decides the parser and the oracle).
enum class TextKind { kRule, kDatalog, kFormula };

/// Structural complexity of one query: the parameters the paper's theorems
/// are stated in, plus the answer shape.
struct Complexity {
  int atoms = 0;            // relational atoms (summed over disjuncts/rules)
  int ghd_width = 0;        // 1 = acyclic; >= 2 cyclic (max over disjuncts)
  int neq = 0;              // ≠ atoms
  int order = 0;            // < / ≤ atoms
  int disjuncts = 1;        // UCQ disjuncts
  int recursion_depth = 0;  // recursive IDB predicates (Datalog)
  bool negation = false;    // FO with negation
  std::string answer_shape;  // tuples | boolean | count | grouped_count

  /// One number for sorting and summaries: each parameter weighted by how
  /// far it moves the query away from the polynomial acyclic case.
  int Score() const;
};

/// A negated existential condition of an FO query, as the oracle evaluates
/// it: the value in column `var_col` of a positive-part row must not occur
/// in column `rel_col` of `relation`.
struct Negation {
  int var_col = 0;
  std::string relation;
  int rel_col = 0;
};

struct QuerySpec {
  std::string family;  // template name, e.g. "triangle"
  std::string text;
  TextKind kind = TextKind::kRule;
  paraquery::EngineChoice route = paraquery::EngineChoice::kNaive;
  Complexity complexity;
  /// Stored relations the query reads (drives oracle reuse across writes).
  std::vector<std::string> reads;
  /// FO with negation only: the positive part as a rule whose head lists
  /// the answer variables first, then the negated-condition variables; the
  /// answer arity; and the negated conditions on the positive rows.
  std::string fo_positive;
  size_t fo_head_arity = 0;
  std::vector<Negation> fo_negations;
};

/// One write: rows appended to a binary stored relation.
struct WriteBatch {
  std::string relation;
  std::vector<std::array<paraquery::Value, 2>> rows;
};

/// One operation of the script: a read of pool[index] or writes[index].
struct Op {
  bool write = false;
  int index = 0;
};

struct WorkloadSpec {
  Workload workload = Workload::kInteractive;
  uint64_t seed = 0;
  paraquery::Database db;
  std::vector<QuerySpec> pool;
  std::vector<WriteBatch> writes;
  /// Replayed cyclically by the timed loop. In `update` the database is
  /// restored to its generated state at every wrap, so the expected answer
  /// of each position is fixed.
  std::vector<Op> script;
  size_t threads = 1;
};

/// Builds the database, the query pool (with routes and complexity scores)
/// and the operation script. Same (workload, seed), same bytes.
WorkloadSpec BuildWorkload(Workload w, uint64_t seed);

/// Order-independent fingerprint of every stored relation and its name.
uint64_t DatabaseDigest(const paraquery::Database& db);

/// Appends `batch` to its relation (the shell's `.insert` path).
void ApplyWrite(paraquery::Database* db, const WriteBatch& batch);

}  // namespace pqbench

#endif  // PQBENCH_WORKLOAD_H_
