// Datalog: semi-naive transitive closure, plus the arity experiment behind
// the paper's Section 4 remark — with IDB arity r, the fixpoint runs for up
// to n^r stages, which is why unbounded-arity Datalog provably has the query
// size in the exponent (Vardi), while bounded arity stays in W[1].
//
//   ./datalog_reachability
#include <cstdio>

#include "common/timer.hpp"
#include "eval/datalog_eval.hpp"
#include "graph/generators.hpp"
#include "workload/generators.hpp"

using namespace paraquery;

int main() {
  std::printf("--- transitive closure on a sparse random digraph ---\n");
  std::printf("%8s %10s %12s %12s %10s\n", "n", "edges", "tc pairs",
              "iterations", "ms");
  for (int n : {100, 200, 400, 800}) {
    Database db = GraphDatabase(GnpRandom(n, 2.0 / n, /*seed=*/n));
    DatalogProgram tc = TransitiveClosureProgram();
    DatalogStats stats;
    Timer t;
    auto out = EvaluateDatalog(db, tc, {}, {}, &stats);
    out.status().Expect("transitive closure");
    RelId e = db.FindRelation("E").ValueOrDie();
    std::printf("%8d %10zu %12zu %12zu %10.1f\n", n, db.relation(e).size(),
                out.value().size(), stats.iterations, t.Millis());
  }

  std::printf(
      "\n--- IDB arity in the exponent: r-walks over a dense graph ---\n");
  std::printf("%8s %8s %14s %12s %10s\n", "arity r", "n", "derived tuples",
              "iterations", "ms");
  for (int r : {2, 3, 4}) {
    int n = 16;  // dense graph: derived tuples approach the n^r IDB bound
    Database db = GraphDatabase(GnpRandom(n, 0.5, /*seed=*/99));
    DatalogProgram prog = ArityRWalkProgram(r);
    DatalogStats stats;
    Timer t;
    auto out = EvaluateDatalog(db, prog, {}, {}, &stats);
    out.status().Expect("arity walk");
    std::printf("%8d %8d %14zu %12zu %10.1f\n", r, n, stats.derived_tuples,
                stats.iterations, t.Millis());
  }
  std::printf(
      "\nThe derived-tuple count (and hence time) scales like n^r: the IDB\n"
      "arity — part of the query — sits in the exponent, exactly Vardi's\n"
      "lower bound cited in Section 4 of the paper.\n");
  return 0;
}
