// E4 — Section 5: the combined complexity of acyclic ≠-queries is
// NP-complete (Hamiltonian path).
//
// When the query grows with the database (k = v = n), Theorem 2's f(k)
// factor is exponential and nothing better is expected. The series shows
// the blowup of both the naive evaluator and the color-coding engine as n
// grows, against the bitmask-DP solver as ground truth.
#include <benchmark/benchmark.h>

#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "graph/generators.hpp"
#include "graph/hamiltonian.hpp"
#include "reductions/hampath_to_neq.hpp"

namespace paraquery {
namespace {

// Hard-ish no-instances: sparse graphs usually lack Hamiltonian paths, so
// the solvers cannot stop early.
Graph Sparse(int n) { return GnpRandom(n, 1.6 / n, /*seed=*/n * 7 + 1); }

void BM_HamPathNaive(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  HamPathToNeqResult red = HamPathToNeq(Sparse(n));
  for (auto _ : state) {
    auto r = NaiveCqNonempty(red.db, red.query);
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = n;
  state.counters["q"] = static_cast<double>(red.query.QuerySize());
}
BENCHMARK(BM_HamPathNaive)
    ->DenseRange(6, 12, 2)
    ->Unit(benchmark::kMillisecond);

void BM_HamPathColorCoding(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  HamPathToNeqResult red = HamPathToNeq(Sparse(n));
  IneqOptions mc;
  mc.driver = IneqOptions::Driver::kMonteCarlo;
  mc.mc_error_exponent = 1.0;  // e^n trials explode anyway; keep c minimal
  mc.seed = 99;
  for (auto _ : state) {
    auto r = IneqNonempty(red.db, red.query, {}, mc);
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = n;
}
BENCHMARK(BM_HamPathColorCoding)
    ->DenseRange(6, 10, 2)
    ->Unit(benchmark::kMillisecond);

void BM_HamPathBitmaskDp(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Graph g = Sparse(n);
  for (auto _ : state) {
    auto r = FindHamiltonianPath(g);
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = n;
}
BENCHMARK(BM_HamPathBitmaskDp)
    ->DenseRange(6, 12, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace paraquery
