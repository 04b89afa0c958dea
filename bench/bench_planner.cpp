// Planner benchmarks with machine-readable JSON output.
//
//   * cyclic_order: a 4-atom cyclic query whose textual atom order starts
//     with two disconnected atoms, planned as a binary join chain (wcoj off
//     on both sides). The seed-order baseline (reorder=false, i.e. the
//     pre-planner behavior of joining atoms as written) pays the cross
//     product; the greedy planned order never does. CI fails if the
//     planned execution is not at least as fast as the seed order.
//   * acyclic_parity: Yannakakis-vs-plan parity on an acyclic chain over
//     data with dangling tuples — the planned execution must produce the
//     same answers with the same semijoin/join schedule (counts asserted
//     here; mismatch exits nonzero), at comparable speed.
//
// Output is a single JSON array; each entry is
// {"bench", "impl", "rows", "seconds", "output_rows", "rows_per_sec"}.
//
// Usage: bench_planner [--quick]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "eval/acyclic.hpp"
#include "eval/common.hpp"
#include "hypergraph/join_tree.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"
#include "query/parser.hpp"
#include "relational/database.hpp"
#include "relational/ops.hpp"

namespace paraquery {
namespace {

struct Entry {
  std::string bench, impl;
  size_t rows = 0;
  double seconds = 0;
  size_t output_rows = 0;
  double rows_per_sec = 0;
};

std::vector<Entry> g_entries;

template <typename Fn>
void Measure(const std::string& bench, const std::string& impl, size_t rows,
             int reps, Fn&& fn) {
  // Warm-up run (also provides output_rows).
  size_t output_rows = fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    output_rows = fn();
    best = std::min(best, t.Seconds());
  }
  g_entries.push_back(Entry{bench, impl, rows, best, output_rows,
                            static_cast<double>(rows) / best});
}

// ---------------------------------------------------------------------------
// cyclic_order: planned greedy order vs the query's textual atom order.
// ---------------------------------------------------------------------------

void BenchCyclicOrder(size_t scale, int reps) {
  // A and B are disconnected from each other; E and F close the cycle.
  // Textual order A, B, ... forces an |A|·|B| cross product up front.
  Rng rng(271828);
  const Value domain = 200;
  Database db;
  RelId a = db.AddRelation("A", 2).ValueOrDie();
  RelId b = db.AddRelation("B", 2).ValueOrDie();
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  RelId f = db.AddRelation("F", 2).ValueOrDie();
  size_t small = scale, large = 2 * scale;
  auto fill = [&](RelId id, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      db.relation(id).Add({rng.Range(0, domain - 1), rng.Range(0, domain - 1)});
    }
  };
  fill(a, small);
  fill(b, small);
  fill(e, large);
  fill(f, large);
  size_t total_rows = 2 * small + 2 * large;
  auto q = ParseConjunctive("ans(x, w) :- A(x, y), B(z, w), E(y, z), F(w, x).")
               .ValueOrDie();

  // Both sides keep the binary chain: on the worst-case-optimal route (the
  // default for this comparison-free cycle) `reorder` has no effect, and the
  // two sides would run one plan.
  PlannerOptions planned;
  planned.wcoj = false;
  size_t planned_rows = 0, seed_rows = 0;
  Measure("cyclic_order", "planned", total_rows, reps, [&] {
    PhysicalPlan plan = PlanCyclicCq(db, q, planned).ValueOrDie();
    NamedRelation bindings = ExecutePhysicalPlan(plan, {}).ValueOrDie();
    planned_rows = BindingsToAnswers(bindings, q.head).size();
    return planned_rows;
  });
  Measure("cyclic_order", "seed_order", total_rows, reps, [&] {
    PlannerOptions seed = planned;
    seed.reorder = false;
    PhysicalPlan plan = PlanCyclicCq(db, q, seed).ValueOrDie();
    NamedRelation bindings = ExecutePhysicalPlan(plan, {}).ValueOrDie();
    seed_rows = BindingsToAnswers(bindings, q.head).size();
    return seed_rows;
  });
  if (planned_rows != seed_rows) {
    std::fprintf(stderr, "FATAL: cyclic_order answers disagree (%zu vs %zu)\n",
                 planned_rows, seed_rows);
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// acyclic_parity: the legacy (pre-plan) Yannakakis schedule vs the plan.
// ---------------------------------------------------------------------------

struct LegacyStats {
  size_t semijoins = 0;
  size_t joins = 0;
};

Relation LegacyYannakakis(const Database& db, const ConjunctiveQuery& q,
                          LegacyStats* stats) {
  std::vector<NamedRelation> rels;
  for (const Atom& atom : q.body) {
    RelId id = db.FindRelation(atom.relation).ValueOrDie();
    rels.push_back(AtomToRelation(db.relation(id), atom).ValueOrDie());
  }
  JoinTree tree = BuildJoinTree(q.BuildHypergraph()).ValueOrDie();
  Relation empty(q.head.size());
  for (const NamedRelation& rel : rels) {
    if (rel.empty()) return empty;
  }
  for (int j : tree.bottom_up) {
    int u = tree.parent[j];
    if (u < 0) continue;
    rels[u] = Semijoin(rels[u], rels[j]);
    ++stats->semijoins;
    if (rels[u].empty()) return empty;
  }
  for (int j : tree.top_down) {
    int u = tree.parent[j];
    if (u < 0) continue;
    rels[j] = Semijoin(rels[j], rels[u]);
    ++stats->semijoins;
  }
  std::vector<VarId> head_vars = q.HeadVariables();
  auto is_head = [&head_vars](AttrId a) {
    return std::find(head_vars.begin(), head_vars.end(), a) !=
           head_vars.end();
  };
  std::vector<std::vector<AttrId>> subtree_head(tree.size());
  for (int j : tree.bottom_up) {
    std::vector<AttrId> acc;
    for (AttrId a : rels[j].attrs()) {
      if (is_head(a)) acc.push_back(a);
    }
    for (int c : tree.children[j]) {
      for (AttrId a : subtree_head[c]) acc.push_back(a);
    }
    std::sort(acc.begin(), acc.end());
    acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
    subtree_head[j] = std::move(acc);
  }
  for (int j : tree.bottom_up) {
    int u = tree.parent[j];
    if (u < 0) continue;
    std::vector<AttrId> zj;
    for (AttrId a : rels[j].attrs()) {
      if (rels[u].HasAttr(a)) zj.push_back(a);
    }
    for (AttrId a : subtree_head[j]) {
      if (std::find(zj.begin(), zj.end(), a) == zj.end()) zj.push_back(a);
    }
    rels[u] = NaturalJoin(rels[u], Project(rels[j], zj)).ValueOrDie();
    ++stats->joins;
    if (rels[u].empty()) return empty;
  }
  return BindingsToAnswers(Project(rels[tree.root], head_vars), q.head);
}

// The dangling-chain data of bench_ablations: most tuples die in the
// semijoin passes, which is exactly what the plan must reproduce.
Database DanglingChainDb(size_t rows) {
  Database db;
  const Value buckets = 100;
  RelId l0 = db.AddRelation("L0", 2).ValueOrDie();
  RelId l1 = db.AddRelation("L1", 2).ValueOrDie();
  RelId l2 = db.AddRelation("L2", 2).ValueOrDie();
  RelId l3 = db.AddRelation("L3", 2).ValueOrDie();
  for (Value r = 0; r < static_cast<Value>(rows); ++r) {
    db.relation(l0).Add({r, r % buckets});
    db.relation(l1).Add({r % buckets, 2 * r});
    bool live = r < 10;
    db.relation(l2).Add({live ? 2 * r : 2 * r + 1, r % buckets});
    db.relation(l3).Add({r % buckets, r});
  }
  return db;
}

void BenchAcyclicParity(size_t rows, int reps) {
  Database db = DanglingChainDb(rows);
  auto q = ParseConjunctive(
               "ans(e) :- L0(a, b), L1(b, c), L2(c, d), L3(d, e).")
               .ValueOrDie();
  Relation legacy_out(1), planned_out(1);
  LegacyStats legacy;
  Measure("acyclic_parity", "legacy_yannakakis", 4 * rows, reps, [&] {
    legacy = LegacyStats{};
    legacy_out = LegacyYannakakis(db, q, &legacy);
    return legacy_out.size();
  });
  PlanStats plan_stats;
  Measure("acyclic_parity", "planned", 4 * rows, reps, [&] {
    plan_stats = PlanStats{};
    planned_out = AcyclicEvaluate(db, q, {}, &plan_stats).ValueOrDie();
    return planned_out.size();
  });
  if (!legacy_out.EqualsAsSet(planned_out)) {
    std::fprintf(stderr, "FATAL: acyclic_parity answers disagree\n");
    std::exit(1);
  }
  if (plan_stats.semijoins != legacy.semijoins ||
      plan_stats.joins != legacy.joins) {
    std::fprintf(stderr,
                 "FATAL: acyclic_parity schedule mismatch: plan %zu/%zu vs "
                 "legacy %zu/%zu semijoins/joins\n",
                 plan_stats.semijoins, plan_stats.joins, legacy.semijoins,
                 legacy.joins);
    std::exit(1);
  }
}

void PrintJson() {
  std::printf("[\n");
  for (size_t i = 0; i < g_entries.size(); ++i) {
    const Entry& e = g_entries[i];
    std::printf("  {\"bench\": \"%s\", \"impl\": \"%s\", \"rows\": %zu, "
                "\"seconds\": %.6f, \"output_rows\": %zu, "
                "\"rows_per_sec\": %.0f}%s\n",
                e.bench.c_str(), e.impl.c_str(), e.rows, e.seconds,
                e.output_rows, e.rows_per_sec,
                i + 1 < g_entries.size() ? "," : "");
  }
  std::printf("]\n");
}

}  // namespace
}  // namespace paraquery

int main(int argc, char** argv) {
  bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  paraquery::BenchCyclicOrder(quick ? 600 : 1200, quick ? 3 : 5);
  paraquery::BenchAcyclicParity(quick ? 8000 : 16000, quick ? 3 : 5);
  paraquery::PrintJson();
  return 0;
}
