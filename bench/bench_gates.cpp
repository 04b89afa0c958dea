// Timing gates: the performance claims only wall-clock time can show, each
// a ratio of two implementations measured in the same process. Claims about
// work (rows produced by the WCOJ route and by counting, the planner's
// intermediate sizes) are deterministic ctests instead: WcojWorkTest,
// CountingBoundTest and PlanWorkTest.
//
// Cells (the --quick scales; without --quick each cell runs larger):
//   * join, semijoin: the flat RowIndex kernels against the seed's
//     unordered_map join, kept below as the legacy kernel.
//   * parallel.{cyclic_join, ucq_mix, theorem2}: the runtime-free
//     evaluators ("sequential") against the engine at threads 1 and N.
//     parallel.mix sums the cyclic_join and ucq_mix cells.
//   * plan_cache.repeated_cq: 8 selective CQs through a fresh engine per
//     query (cold) against one engine whose plan cache serves every repeat.
//   * plan_cache.theorem2: Theorem 2 color coding, the residual plan
//     recompiled every run against a cross-run PlanCache hit.
//   * hardening.*: the engine with a generous deadline and memory budget
//     armed against the unarmed default; abort_latency is how far past a
//     25 ms deadline a long join's clean error surfaces.
//   * tracing.*: a trace-disabled engine (tracing_off, the noise control)
//     and a tracing engine against an identical baseline engine.
//
// Every cell runs each implementation once (the answers must agree), then
// keeps each implementation's median wall time over `reps` timed runs. The
// engine cells interleave their implementations rep by rep, so load drift
// hits both sides of a ratio alike; the kernel cells run each side's reps
// back to back, as a hot microkernel would run.
//
// Output: a JSON array of {"bench", "impl", "rows", "seconds",
// "output_rows"} on stdout, one OK/REGRESSION line per gate on stderr, and
// exit status 1 if any gate fails.
//
// Usage: bench_gates [--quick] [--threads N] [--trace-out FILE]
//   --trace-out FILE writes the Chrome trace-event JSON of a traced
//   4-thread Datalog fixpoint (small morsels).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "eval/ucq.hpp"
#include "graph/generators.hpp"
#include "query/parser.hpp"
#include "relational/database.hpp"
#include "relational/ops.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

// ---------------------------------------------------------------------------
// Harness: one measure helper, one JSON writer, one gate table.
// ---------------------------------------------------------------------------

struct Entry {
  std::string bench, impl;
  size_t rows = 0;
  double seconds = 0;
  size_t output_rows = 0;
};

std::vector<Entry> g_entries;

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "FATAL: %s\n", message.c_str());
  std::exit(1);
}

struct Impl {
  std::string name;
  std::function<Relation()> run;
};

bool SameAnswer(const Relation& a, const Relation& b, bool as_set) {
  if (as_set) return a.EqualsAsSet(b);
  return a.arity() == b.arity() && a.size() == b.size() && a.data() == b.data();
}

// The median of `times` (the mean of the middle two for an even count).
double Median(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  const size_t n = times.size();
  return n % 2 == 1 ? times[n / 2] : (times[n / 2 - 1] + times[n / 2]) / 2;
}

// Runs every impl once and requires its answer to equal the first impl's,
// then runs `reps` timed reps per impl and records each one's median time.
// Engine cells interleave the impls rep by rep, in their listed order, so
// load drift hits every impl alike, and check every rep's answer byte for
// byte. Kernel cells emit rows unsorted, so their answers compare as sets,
// and run each impl's reps back to back, which keeps a microkernel's
// inputs hot in cache.
void Measure(const std::string& bench, size_t rows, int reps,
             const std::vector<Impl>& impls, bool kernel = false) {
  auto fail = [&](size_t i) {
    Fatal(bench + ": " + impls[i].name + " disagrees with " + impls[0].name);
  };
  std::vector<Relation> out;
  for (const Impl& impl : impls) out.push_back(impl.run());
  for (size_t i = 1; i < impls.size(); ++i) {
    if (!SameAnswer(out[0], out[i], kernel)) fail(i);
  }
  const size_t n = impls.size();
  const size_t runs = n * static_cast<size_t>(reps);
  std::vector<std::vector<double>> times(n);
  for (size_t run = 0; run < runs; ++run) {
    const size_t i = kernel ? run * n / runs : run % n;
    Timer t;
    out[i] = impls[i].run();
    times[i].push_back(t.Seconds());
    if (!kernel && !SameAnswer(out[0], out[i], false)) fail(i);
  }
  for (size_t i = 0; i < impls.size(); ++i) {
    g_entries.push_back(
        Entry{bench, impls[i].name, rows, Median(times[i]), out[i].size()});
  }
}

const Entry* Find(const std::string& bench, const std::string& impl) {
  for (const Entry& e : g_entries) {
    if (e.bench == bench && e.impl == impl) return &e;
  }
  return nullptr;
}

// A gate bounds impl seconds / base seconds of one cell (impl seconds
// alone when `base` is empty).
struct Gate {
  std::string bench, impl, base;
  bool at_most;
  double threshold;
};

std::vector<Gate> GateTable(size_t threads) {
  const std::string wide = "threads" + std::to_string(threads);
  const std::string t_wide = "_t" + std::to_string(threads);
  return {
      {"join", "legacy_unordered_map", "row_index", false, 1.0},
      {"semijoin", "legacy_unordered_map", "row_index", false, 1.0},
      {"parallel.cyclic_join", "threads1", "sequential", true, 1.05},
      {"parallel.ucq_mix", "threads1", "sequential", true, 1.05},
      {"parallel.theorem2", "threads1", "sequential", true, 1.05},
      {"parallel.mix", "threads1", wide, false, 2.0},
      {"parallel.theorem2", "threads1", wide, false, 2.0},
      {"plan_cache.repeated_cq", "cold_per_query", "warm_cache", false, 3.0},
      {"plan_cache.theorem2", "warm_cache", "cold_compile", true, 1.05},
      {"hardening.cyclic_join_t1", "hardened", "baseline", true, 1.05},
      {"hardening.cyclic_join" + t_wide, "hardened", "baseline", true, 1.05},
      {"hardening.ucq_mix_t1", "hardened", "baseline", true, 1.05},
      {"hardening.ucq_mix" + t_wide, "hardened", "baseline", true, 1.05},
      {"hardening.abort_latency", wide, "", true, 0.25},
      {"tracing.cyclic_join", "tracing_off", "baseline", true, 1.02},
      {"tracing.cyclic_join", "tracing_on", "baseline", true, 1.05},
      {"tracing.ucq_mix", "tracing_off", "baseline", true, 1.02},
      {"tracing.ucq_mix", "tracing_on", "baseline", true, 1.05},
  };
}

// Prints one OK/REGRESSION line per gate; returns whether all passed.
bool CheckGates(const std::vector<Gate>& gates) {
  bool all_ok = true;
  for (const Gate& g : gates) {
    const Entry* e = Find(g.bench, g.impl);
    const Entry* b = g.base.empty() ? nullptr : Find(g.bench, g.base);
    if (e == nullptr || (!g.base.empty() && b == nullptr)) {
      Fatal("gate on an unmeasured cell: " + g.bench);
    }
    const char* op = g.at_most ? "<=" : ">=";
    const double value =
        b == nullptr ? e->seconds : e->seconds / std::max(b->seconds, 1e-12);
    const bool ok = g.at_most ? value <= g.threshold : value >= g.threshold;
    all_ok = all_ok && ok;
    if (b == nullptr) {
      std::fprintf(stderr, "%s: %s: %s %.1fms (gate: %s %.0fms)\n",
                   ok ? "OK" : "REGRESSION", g.bench.c_str(), g.impl.c_str(),
                   e->seconds * 1e3, op, g.threshold * 1e3);
    } else {
      std::fprintf(stderr,
                   "%s: %s: %s %.1fms vs %s %.1fms (%.3fx; gate: %s %.2fx)\n",
                   ok ? "OK" : "REGRESSION", g.bench.c_str(), g.impl.c_str(),
                   e->seconds * 1e3, g.base.c_str(), b->seconds * 1e3, value,
                   op, g.threshold);
    }
  }
  return all_ok;
}

void PrintJson() {
  std::printf("[\n");
  for (size_t i = 0; i < g_entries.size(); ++i) {
    const Entry& e = g_entries[i];
    std::printf("  {\"bench\": \"%s\", \"impl\": \"%s\", \"rows\": %zu, "
                "\"seconds\": %.6f, \"output_rows\": %zu}%s\n",
                e.bench.c_str(), e.impl.c_str(), e.rows, e.seconds,
                e.output_rows, i + 1 < g_entries.size() ? "," : "");
  }
  std::printf("]\n");
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

// Binary relations filled in order from one seeded stream, uniform over
// [0, domain) in both columns.
Database RandomDb(uint64_t seed, Value domain,
                  const std::vector<std::pair<std::string, size_t>>& rels) {
  Rng rng(seed);
  Database db;
  for (const auto& [name, rows] : rels) {
    RelId id = db.AddRelation(name, 2).ValueOrDie();
    for (size_t i = 0; i < rows; ++i) {
      db.relation(id).Add(
          {rng.Range(0, domain - 1), rng.Range(0, domain - 1)});
    }
  }
  return db;
}

size_t InputRows(const Database& db) {
  size_t rows = 0;
  for (size_t r = 0; r < db.relation_count(); ++r) {
    rows += db.relation(static_cast<RelId>(r)).size();
  }
  return rows;
}

// A parsed query over its database: `run` evaluates it through an engine,
// `sequential` through the runtime-free evaluator the engine dispatches to.
struct Workload {
  std::string name;
  Database db;
  std::function<Relation(const Engine&)> run;
  std::function<Relation(const Database&)> sequential;
};

template <typename Query, typename Evaluate>
Workload MakeWorkload(std::string name, Database db, Query q,
                      Evaluate evaluate) {
  return Workload{
      std::move(name), std::move(db),
      [q](const Engine& e) { return std::move(e.Run(q)).ValueOrDie(); },
      [q, evaluate](const Database& d) {
        return std::move(evaluate(d, q)).ValueOrDie();
      }};
}

// A triangle join with an inequality: a large morsel-parallel probe
// pipeline (millions of intermediate rows) over mid-size build sides.
Workload CyclicJoin(size_t scale) {
  return MakeWorkload(
      "cyclic_join",
      RandomDb(314159, 2000, {{"A", 3 * scale}, {"B", 2 * scale},
                              {"C", 3 * scale}}),
      ParseConjunctive("ans(x, y) :- B(y, z), C(z, x), A(x, y), x != z.")
          .ValueOrDie(),
      [](const Database& db, const ConjunctiveQuery& q) {
        return NaiveEvaluateCq(db, q);
      });
}

// Four two-atom disjuncts: structural parallelism, each disjunct a
// Yannakakis plan (one fused join-project over the two scans). The --quick
// scale keeps a threads-1 run near 25-30 ms, so per-query fixed costs
// (route decision, planning) and timer noise stay well inside the 5%
// parity and overhead gates.
Workload UcqMix(size_t scale) {
  return MakeWorkload(
      "ucq_mix",
      RandomDb(271828, 1500, {{"A", scale}, {"B", scale}, {"C", scale}}),
      ParsePositive("ans(x) := exists y . exists z . ((A(x, y) and B(y, z)) "
                    "or (B(x, y) and C(y, z)) or (A(x, y) and C(y, z)) or "
                    "(C(x, y) and A(y, z))).")
          .ValueOrDie(),
      [](const Database& db, const PositiveQuery& q) {
        return EvaluatePositive(db, q);
      });
}

// The paper's "employees on more than one project": Theorem 2 color coding,
// one scheduler task per coloring. 100 projects keep the family cheap to
// build, so the colorings' plan executions dominate.
Workload Theorem2(int employees) {
  return MakeWorkload(
      "theorem2", EmployeeProjects(employees, 100, 1, 4, /*seed=*/7),
      ParseConjunctive("g(e) :- EP(e, p), EP(e, q), p != q.").ValueOrDie(),
      [](const Database& db, const ConjunctiveQuery& q) {
        return IneqEvaluate(db, q);
      });
}

// Every engine plans every run, so no cell can win by a cache hit that the
// other side does not get.
EngineOptions Options(size_t threads) {
  EngineOptions options;
  options.threads = threads;
  options.use_plan_cache = false;
  return options;
}

// ---------------------------------------------------------------------------
// Legacy kernel: the seed's per-key-vector unordered_map join, preserved in
// structure (hash -> vector<row>, key re-verified on every probe candidate).
// ---------------------------------------------------------------------------

uint64_t LegacyHashKey(const Relation& rel, size_t row,
                       const std::vector<int>& cols) {
  uint64_t h = 0x243f6a8885a308d3ull;
  for (int c : cols) h = (h ^ HashValue(rel.At(row, c))) * 0x100000001b3ull;
  return h;
}

bool LegacyKeysEqual(const Relation& a, size_t ra, const std::vector<int>& ca,
                     const Relation& b, size_t rb, const std::vector<int>& cb) {
  for (size_t i = 0; i < ca.size(); ++i) {
    if (a.At(ra, ca[i]) != b.At(rb, cb[i])) return false;
  }
  return true;
}

std::unordered_map<uint64_t, std::vector<uint32_t>> LegacyBuildIndex(
    const Relation& rel, const std::vector<int>& cols) {
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;
  index.reserve(rel.size() * 2);
  for (size_t r = 0; r < rel.size(); ++r) {
    index[LegacyHashKey(rel, r, cols)].push_back(static_cast<uint32_t>(r));
  }
  return index;
}

// The natural join (or, with `semijoin`, the semijoin) of left and right.
Relation LegacyJoin(const NamedRelation& left, const NamedRelation& right,
                    bool semijoin) {
  std::vector<int> lcols, rcols;
  for (size_t i = 0; i < left.attrs().size(); ++i) {
    int rc = right.ColumnOf(left.attrs()[i]);
    if (rc >= 0) {
      lcols.push_back(static_cast<int>(i));
      rcols.push_back(rc);
    }
  }
  std::vector<int> right_extra;
  for (size_t i = 0; !semijoin && i < right.attrs().size(); ++i) {
    if (!left.HasAttr(right.attrs()[i])) {
      right_extra.push_back(static_cast<int>(i));
    }
  }
  Relation out(left.arity() + right_extra.size());
  auto index = LegacyBuildIndex(right.rel(), rcols);
  ValueVec row(out.arity());
  for (size_t lr = 0; lr < left.size(); ++lr) {
    auto it = index.find(LegacyHashKey(left.rel(), lr, lcols));
    if (it == index.end()) continue;
    for (uint32_t rr : it->second) {
      if (!LegacyKeysEqual(left.rel(), lr, lcols, right.rel(), rr, rcols)) {
        continue;
      }
      for (size_t i = 0; i < left.arity(); ++i) row[i] = left.rel().At(lr, i);
      for (size_t i = 0; i < right_extra.size(); ++i) {
        row[left.arity() + i] = right.rel().At(rr, right_extra[i]);
      }
      out.Add(row);
      if (semijoin) break;
    }
  }
  return out;
}

NamedRelation RandomRel(Rng& rng, std::vector<AttrId> attrs, size_t rows,
                        int64_t domain) {
  NamedRelation rel(std::move(attrs));
  rel.rel().Reserve(rows);
  ValueVec row(rel.attrs().size());
  for (size_t i = 0; i < rows; ++i) {
    for (auto& v : row) v = rng.Range(0, domain - 1);
    rel.rel().Add(row);
  }
  return rel;
}

// ---------------------------------------------------------------------------
// Cells.
// ---------------------------------------------------------------------------

void JoinKernels(size_t n, int reps) {
  // Keys drawn from n/4 values: ~4 matches per probe, join output ~4n rows.
  Rng rng(7);
  const int64_t dom = std::max<int64_t>(1, static_cast<int64_t>(n) / 4);
  NamedRelation left = RandomRel(rng, {0, 1}, n, dom);
  NamedRelation right = RandomRel(rng, {1, 2}, n, dom);
  Measure("join", n, reps,
          {{"legacy_unordered_map",
            [&] { return LegacyJoin(left, right, false); }},
           {"row_index",
            [&] { return NaturalJoin(left, right).ValueOrDie().rel(); }}},
          /*kernel=*/true);
  Measure("semijoin", n, reps,
          {{"legacy_unordered_map",
            [&] { return LegacyJoin(left, right, true); }},
           {"row_index", [&] { return Semijoin(left, right).rel(); }}},
          /*kernel=*/true);
}

void Parallel(const Workload& w, int reps, size_t threads) {
  Engine one(w.db, Options(1));
  Engine wide(w.db, Options(threads));
  Measure("parallel." + w.name, InputRows(w.db), reps,
          {{"sequential", [&] { return w.sequential(w.db); }},
           {"threads1", [&] { return w.run(one); }},
           {"threads" + std::to_string(threads), [&] { return w.run(wide); }}});
}

// Sums the median times of `parts`' cells per impl into the cell `bench`.
void Combine(const std::string& bench, const std::vector<std::string>& parts) {
  std::vector<Entry> sums;
  for (const Entry& e : g_entries) {
    if (e.bench != parts.front()) continue;
    Entry sum{bench, e.impl, 0, 0, 0};
    for (const std::string& part : parts) {
      const Entry* p = Find(part, e.impl);
      sum.rows += p->rows;
      sum.seconds += p->seconds;
      sum.output_rows += p->output_rows;
    }
    sums.push_back(sum);
  }
  g_entries.insert(g_entries.end(), sums.begin(), sums.end());
}

void RepeatedCq(size_t scale, int reps) {
  // R(k, x): `scale` rows over 1000 keys, so each constant-selected atom is
  // ~scale/1000 rows: planning (which scans R) costs ~scale, execution
  // ~|S_j|. T links the survivors.
  Rng rng(424242);
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  RelId t = db.AddRelation("T", 2).ValueOrDie();
  for (size_t i = 0; i < scale; ++i) {
    db.relation(r).Add({rng.Range(0, 999), rng.Range(0, 499)});
  }
  for (size_t i = 0; i < scale / 25; ++i) {
    db.relation(t).Add({rng.Range(0, 499), rng.Range(0, 499)});
  }
  std::vector<ConjunctiveQuery> queries;
  for (int c = 0; c < 8; ++c) {
    queries.push_back(
        ParseConjunctive("ans(x, y) :- R(" + std::to_string(c * 100) +
                         ", x), T(x, y), R(" + std::to_string(c * 100 + 7) +
                         ", y).")
            .ValueOrDie());
  }
  Engine warm(db);
  // Every query's answers in query order, from `warm` or, cold, each from a
  // fresh engine whose plan cache is empty.
  auto run_all = [&](bool cold) {
    Relation all(2);
    for (const ConjunctiveQuery& q : queries) {
      Relation out = cold ? Engine(db).Run(q).ValueOrDie()
                          : warm.Run(q).ValueOrDie();
      for (size_t i = 0; i < out.size(); ++i) all.Add(out.Row(i));
    }
    return all;
  };
  Measure("plan_cache.repeated_cq", InputRows(db) * queries.size(), reps,
          {{"cold_per_query", [&] { return run_all(true); }},
           {"warm_cache", [&] { return run_all(false); }}});
  if (warm.last_stats().plan_cache.hits == 0) {
    Fatal("plan_cache.repeated_cq: the warm engine reports no cache hits");
  }
}

void Theorem2Cache(int n, int reps) {
  // A path-rich sparse graph: simple 3-path endpoints with all-pairs != keep
  // k = 2 after co-occurrence splitting and run several colorings.
  Database db = GraphDatabase(GnpRandom(n, 3.0 / n, /*seed=*/21));
  auto q = ParseConjunctive(
               "ans(a, d) :- E(a, b), E(b, c), E(c, d), a != c, a != d, "
               "b != d.")
               .ValueOrDie();
  IneqOptions options;
  options.driver = IneqOptions::Driver::kMonteCarlo;
  options.mc_error_exponent = 2.0;
  options.seed = 1234;
  PlanCache cache;
  EvalContext warm;
  warm.plan_cache = &cache;
  Measure("plan_cache.theorem2", InputRows(db), reps,
          {{"cold_compile",
            [&] { return IneqEvaluate(db, q, {}, options).ValueOrDie(); }},
           {"warm_cache",
            [&] { return IneqEvaluate(db, q, warm, options).ValueOrDie(); }}});
}

void Hardening(const Workload& w, int reps, size_t threads) {
  EngineOptions armed = Options(threads);
  armed.limits.max_wall_ms = 600000;    // 10 min: never trips
  armed.limits.max_bytes = 1ull << 40;  // 1 TiB: never trips
  Engine baseline(w.db, Options(threads));
  Engine hardened(w.db, armed);
  Measure("hardening." + w.name + "_t" + std::to_string(threads),
          InputRows(w.db), reps,
          {{"baseline", [&] { return w.run(baseline); }},
           {"hardened", [&] { return w.run(hardened); }}});
}

// Arms a deadline a dense join cannot meet and records the best overshoot
// past it.
void AbortLatency(size_t scale, int reps, size_t threads) {
  Database db = RandomDb(161803, 500, {{"A", scale}, {"B", scale}});
  auto q = ParseConjunctive("ans(x, w) :- A(x, y), B(y, z), A(z, w).")
               .ValueOrDie();
  const uint64_t deadline_ms = 25;
  EngineOptions options = Options(threads);
  options.limits.max_wall_ms = deadline_ms;
  Engine engine(db, options);
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    auto result = engine.Run(q);
    const double elapsed = t.Seconds();
    if (result.ok()) Fatal("abort_latency: the join beat its deadline");
    if (result.status().code() != StatusCode::kDeadlineExceeded) {
      Fatal("abort_latency: unexpected status " + result.status().ToString());
    }
    best = std::min(best, std::max(0.0, elapsed - deadline_ms / 1000.0));
  }
  g_entries.push_back(Entry{"hardening.abort_latency",
                            "threads" + std::to_string(threads), scale, best,
                            0});
}

void Tracing(const Workload& w, int reps, size_t threads) {
  EngineOptions traced = Options(threads);
  traced.trace = true;
  Engine baseline(w.db, Options(threads));
  Engine off(w.db, Options(threads));
  Engine on(w.db, traced);
  Measure("tracing." + w.name, InputRows(w.db), reps,
          {{"baseline", [&] { return w.run(baseline); }},
           {"tracing_off", [&] { return w.run(off); }},
           {"tracing_on", [&] { return w.run(on); }}});
}

void WriteDatalogTrace(const std::string& path) {
  Database db = RandomDb(161803, 200, {{"E", 900}});
  EngineOptions options;
  options.threads = 4;
  options.trace = true;
  options.morsel_rows = 256;
  Engine engine(db, options);
  auto result = engine.RunText(
      "path(x, y) :- E(x, y).\n"
      "path(x, y) :- path(x, z), E(z, y).\n"
      "@goal path.\n");
  if (!result.ok()) Fatal("trace fixpoint: " + result.status().ToString());
  std::ofstream out(path, std::ios::trunc);
  out << engine.tracer()->ChromeTraceJson();
  if (!out) Fatal("cannot write '" + path + "'");
}

}  // namespace
}  // namespace paraquery

int main(int argc, char** argv) {
  using namespace paraquery;
  bool quick = false;
  size_t threads = 4;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::strtoul(argv[i + 1], nullptr, 10));
    }
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[i + 1];
    }
  }
  const int reps = quick ? 5 : 7;
  // The kernel cells run first, before the engine workloads' databases
  // change the allocator's state.
  JoinKernels(quick ? 10000 : 1000000, quick ? 5 : 3);
  const Workload cyclic = CyclicJoin(quick ? 30000 : 60000);
  const Workload ucq = UcqMix(quick ? 900000 : 1800000);
  Parallel(cyclic, reps, threads);
  Parallel(ucq, reps, threads);
  Parallel(Theorem2(quick ? 20000 : 40000), reps, threads);
  Combine("parallel.mix", {"parallel.cyclic_join", "parallel.ucq_mix"});
  RepeatedCq(quick ? 40000 : 120000, quick ? 3 : 5);
  Theorem2Cache(quick ? 1200 : 3000, reps);
  for (const Workload* w : {&cyclic, &ucq}) {
    Hardening(*w, reps, 1);
    Hardening(*w, reps, threads);
  }
  AbortLatency(quick ? 200000 : 400000, quick ? 3 : 5, threads);
  // Median of 13: these ratios sit in the low single-digit percent range.
  Tracing(cyclic, quick ? 13 : 15, threads);
  Tracing(ucq, quick ? 13 : 15, threads);
  if (!trace_out.empty()) WriteDatalogTrace(trace_out);

  PrintJson();
  return CheckGates(GateTable(threads)) ? 0 : 1;
}
