// E6 — Section 4 on recursive languages: bounded-arity Datalog is
// W[1]-complete, and for unbounded IDB arity the query size provably sits
// in the exponent (Vardi's fixpoint lower bound).
//
// Series:
//   * TransitiveClosure/n: semi-naive TC scales with the output (bounded
//     arity r = 2);
//   * ArityWalk/r: the r-ary walk program on a fixed dense graph — the
//     derived-tuple count (reported as a counter) and the runtime grow
//     geometrically with r: the arity is in the exponent.
#include <benchmark/benchmark.h>

#include "eval/datalog_eval.hpp"
#include "graph/generators.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

void BM_TransitiveClosure(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Database db = GraphDatabase(GnpRandom(n, 2.0 / n, /*seed=*/n));
  DatalogProgram tc = TransitiveClosureProgram();
  DatalogStats stats;
  for (auto _ : state) {
    auto r = EvaluateDatalog(db, tc, {}, {}, &stats);
    benchmark::DoNotOptimize(r);
    if (!r.ok()) state.SkipWithError("datalog failed");
  }
  state.counters["n"] = n;
  state.counters["derived"] = static_cast<double>(stats.derived_tuples);
  state.counters["iterations"] = static_cast<double>(stats.iterations);
}
BENCHMARK(BM_TransitiveClosure)
    ->RangeMultiplier(2)
    ->Range(100, 800)
    ->Unit(benchmark::kMillisecond);

void BM_ArityWalk(benchmark::State& state) {
  int r = static_cast<int>(state.range(0));
  Database db = GraphDatabase(GnpRandom(14, 0.5, /*seed=*/99));
  DatalogProgram prog = ArityRWalkProgram(r);
  DatalogStats stats;
  for (auto _ : state) {
    auto out = EvaluateDatalog(db, prog, {}, {}, &stats);
    benchmark::DoNotOptimize(out);
    if (!out.ok()) state.SkipWithError("datalog failed");
  }
  state.counters["arity"] = r;
  state.counters["derived"] = static_cast<double>(stats.derived_tuples);
}
BENCHMARK(BM_ArityWalk)->DenseRange(2, 5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace paraquery
