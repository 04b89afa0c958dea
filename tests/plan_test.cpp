// Tests for the physical plan subsystem: golden plan renders, schedule
// parity with the pre-plan Yannakakis implementation (kept inline here as
// the reference), randomized differential testing of the plan executor
// against the backtracking oracle, resource-limit plumbing, UCQ disjunct
// handling, and the engine/EXPLAIN surface.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/explain.hpp"
#include "eval/acyclic.hpp"
#include "eval/common.hpp"
#include "eval/datalog_eval.hpp"
#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "eval/ucq.hpp"
#include "graph/generators.hpp"
#include "hypergraph/join_tree.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"
#include "query/parser.hpp"
#include "relational/ops.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

Database GraphDb(const Graph& g) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (int v : g.Neighbors(u)) db.relation(e).Add({u, v});
  }
  return db;
}

// The fixed four-edge database the golden renders are pinned to.
Database GoldenDb() {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  db.relation(e).Add({1, 2});
  db.relation(e).Add({2, 3});
  db.relation(e).Add({3, 1});
  db.relation(e).Add({3, 4});
  return db;
}

// ---------------------------------------------------------------------------
// Reference implementation: the pre-plan Yannakakis evaluator (the seed's
// eval/acyclic.cpp), kept verbatim so schedule parity is checked against the
// real historical algorithm rather than a re-derivation.
// ---------------------------------------------------------------------------

struct LegacyStats {
  size_t semijoins = 0;
  size_t joins = 0;
};

Result<Relation> LegacyYannakakis(const Database& db,
                                  const ConjunctiveQuery& q,
                                  LegacyStats* stats) {
  std::vector<NamedRelation> rels;
  for (const Atom& a : q.body) {
    PQ_ASSIGN_OR_RETURN(RelId id, db.FindRelation(a.relation));
    PQ_ASSIGN_OR_RETURN(NamedRelation rel, AtomToRelation(db.relation(id), a));
    rels.push_back(std::move(rel));
  }
  Hypergraph h = q.BuildHypergraph();
  PQ_ASSIGN_OR_RETURN(JoinTree tree, BuildJoinTree(h));
  Relation empty(q.head.size());
  for (const NamedRelation& rel : rels) {
    if (rel.empty()) return empty;
  }
  for (int j : tree.bottom_up) {  // upward semijoins
    int u = tree.parent[j];
    if (u < 0) continue;
    rels[u] = Semijoin(rels[u], rels[j]);
    ++stats->semijoins;
    if (rels[u].empty()) return empty;
  }
  for (int j : tree.top_down) {  // downward semijoins
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
  size_t m = tree.size();
  std::vector<std::vector<AttrId>> subtree_head(m);
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
  for (int j : tree.bottom_up) {  // upward join-and-project pass
    int u = tree.parent[j];
    if (u < 0) continue;
    std::vector<AttrId> zj;
    for (AttrId a : rels[j].attrs()) {
      if (rels[u].HasAttr(a)) zj.push_back(a);
    }
    for (AttrId a : subtree_head[j]) {
      if (std::find(zj.begin(), zj.end(), a) == zj.end()) zj.push_back(a);
    }
    PQ_ASSIGN_OR_RETURN(rels[u],
                        NaturalJoin(rels[u], Project(rels[j], zj)));
    ++stats->joins;
    if (rels[u].empty()) return empty;
  }
  return BindingsToAnswers(Project(rels[tree.root], head_vars), q.head);
}

// ---------------------------------------------------------------------------
// Golden plan renders.
// ---------------------------------------------------------------------------

TEST(PlanGoldenTest, AcyclicPathQuery) {
  Database db = GoldenDb();
  auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  auto plan = PlanAcyclicCq(db, q).ValueOrDie();
  EXPECT_EQ(plan.Render(),
            "HashJoin(a, d) project-out(b, c) est=1\n"
            "  HashJoin(b, c, d) est=1\n"
            "    Semijoin(b, c) est=1 as #1\n"
            "      Semijoin(b, c) est=2\n"
            "        Scan(b, c) E(b, c) rows=4\n"
            "        Scan(c, d) E(c, d) rows=4 as #2\n"
            "      Scan(a, b) E(a, b) rows=4 as #3\n"
            "    Semijoin(c, d) est=2\n"
            "      Scan(c, d) E(c, d) see #2\n"
            "      Semijoin(b, c) see #1\n"
            "  Semijoin(a, b) est=2\n"
            "    Scan(a, b) E(a, b) see #3\n"
            "    Semijoin(b, c) see #1\n");
}

TEST(PlanGoldenTest, CountFourCycleSumsOutBagVariables) {
  Database db = GoldenDb();
  auto q = ParseConjunctive(
               "COUNT(*) :- E(x, y), E(y, z), E(z, w), E(w, x).")
               .ValueOrDie();
  // Each bag's last join counts its interface (y, w) and sums out its
  // private variable; the child bag's join-count is the root's weight, so
  // neither bag is materialized and no semijoin runs.
  EXPECT_EQ(RenderConjunctivePlan(db, q).ValueOrDie(),
            "-- route: counting over a hypertree decomposition (multiway "
            "joins in cyclic bags): cyclic comparison-free COUNT "
            "(poly(n^ghw))\n"
            "Aggregate(#count) est=1\n"
            "  HashJoin(y, w, #count) count-out(z) est=2\n"
            "    Scan(z, w) E(z, w) rows=4 as #1\n"
            "    Scan(y, z) E(y, z) rows=4\n"
            "    HashJoin(y, w, #count) count-out(x) est=4\n"
            "      Project(w) est=4\n"
            "        Scan(z, w) E(z, w) see #1\n"
            "      HashJoin(x, y, w) est=4\n"
            "        Scan(x, y) E(x, y) rows=4\n"
            "        Scan(w, x) E(w, x) rows=4\n");
}

TEST(PlanGoldenTest, MultiProjectAnswersFromTheRootAtom) {
  Database db = EmployeeProjects(6, 3, 1, 2, /*seed=*/1);
  // The head e lies in the root atom, so the plan is Algorithm 1's upward
  // join with the p' != q' check, projected onto e inside that join: no
  // semijoin pass, no materialized join, and no Project(e, q') of the
  // child, whose values the kernel deduplicates itself.
  EXPECT_EQ(RenderConjunctivePlan(db, MultiProjectQuery()).ValueOrDie(),
            "-- route: Theorem 2 color coding: acyclic with != only (FPT)\n"
            "-- Theorem 2 color coding: k=2 (|V1|), I1=1 hash-checked "
            "atom(s), I2=0 pushed into scans;\n"
            "-- one residual plan compiled, executed once per coloring (one "
            "task per coloring) on re-bound S' inputs (primed columns = "
            "colors)\n"
            "-- Algorithm 1 only (head in root atom EP(e, p)): the answer is "
            "pi_head of the upward pass's root\n"
            "HashJoin(e) project-out(p, p', q, q') $2!=$4 est=10\n"
            "  Scan(e, p, p') S'(EP(e, p)) rows=11\n"
            "  Scan(e, q, q') S'(EP(e, q)) rows=11\n");
}

TEST(PlanGoldenTest, CyclicTriangleWithInequality) {
  Database db = GoldenDb();
  auto q = ParseConjunctive("ans(x) :- E(x,y), E(y,z), E(z,x), x != y.")
               .ValueOrDie();
  auto plan = PlanCyclicCq(db, q).ValueOrDie();
  // Join selectivities come from the real per-column distinct counts
  // (Relation::DistinctCount) — for GoldenDb's E, V(col0)=3 and V(col1)=4.
  EXPECT_EQ(plan.Render(),
            "Dedup(x) est=1\n"
            "  Project(x) est=1\n"
            "    HashJoin(x, y, z) est=1\n"
            "      HashJoin(x, y, z) est=4\n"
            "        Select(x, y) $0!=$1 est=4\n"
            "          Scan(x, y) E(x, y) rows=4\n"
            "        Scan(y, z) E(y, z) rows=4\n"
            "      Scan(z, x) E(z, x) rows=4\n");
}

TEST(PlanGoldenTest, DatalogTransitiveClosure) {
  Database db = GoldenDb();
  auto tc = TransitiveClosureProgram();
  EXPECT_EQ(RenderDatalogPlan(db, tc).ValueOrDie(),
            "-- route: semi-naive fixpoint over cached rule plans (Section "
            "4: Datalog)\n"
            "Fixpoint(tc) [semi-naive, 2 rules; delta-substituted variants "
            "are planned at first firing]\n"
            "  rule 0: tc(x,y) :- E(x,y).\n"
            "    Project(x, y) est=4\n"
            "      Scan(x, y) E(x, y) rows=4\n"
            "  rule 1: tc(x,y) :- E(x,z), tc(z,y).\n"
            "    Project(x, y) est=?\n"
            "      HashJoin(z, y, x) est=?\n"
            "        Scan(z, y) tc(z, y) rows=?\n"
            "        Scan(x, z) E(x, z) rows=4\n");
}

TEST(PlanGoldenTest, StringConstantsRenderByName) {
  // Scan labels decode constants that the database's dictionary holds;
  // other integers print as numbers.
  Database db = GoldenDb();
  RelId n = db.AddRelation("N", 2).ValueOrDie();
  db.relation(n).Add({db.dict().Intern("alice"), 1});
  db.relation(n).Add({db.dict().Intern("bob"), 3});
  auto q = ParseConjunctive("ans(y) :- N('alice', x), E(x, y), E(y, 1).",
                            &db.dict())
               .ValueOrDie();
  EXPECT_EQ(RenderConjunctivePlan(db, q).ValueOrDie(),
            "-- route: Yannakakis: acyclic, free-connex (linear; "
            "Durand-Grandjean)\n"
            "HashJoin(y) project-out(x) est=0\n"
            "  HashJoin(x, y) est=1\n"
            "    Semijoin(x, y) est=1 as #1\n"
            "      Semijoin(x, y) est=2\n"
            "        Scan(x, y) E(x, y) rows=4\n"
            "        Scan(y) E(y, 1) rows=1 as #2\n"
            "      Scan(x) N('alice', x) rows=1 as #3\n"
            "    Semijoin(y) est=1\n"
            "      Scan(y) E(y, 1) see #2\n"
            "      Semijoin(x, y) see #1\n"
            "  Semijoin(x) est=1\n"
            "    Scan(x) N('alice', x) see #3\n"
            "    Semijoin(x, y) see #1\n");
  auto p = ParseDatalog(
               "reach(x) :- N('bob', x).\n"
               "reach(y) :- reach(x), E(x, y).\n",
               &db.dict())
               .ValueOrDie();
  // The rule lines come from the query printer, which decodes them with
  // the same dictionary.
  EXPECT_EQ(RenderDatalogPlan(db, p).ValueOrDie(),
            "-- route: semi-naive fixpoint over cached rule plans (Section "
            "4: Datalog)\n"
            "Fixpoint(reach) [semi-naive, 2 rules; delta-substituted "
            "variants are planned at first firing]\n"
            "  rule 0: reach(x) :- N('bob',x).\n"
            "    Project(x) est=2\n"
            "      Scan(x) N('bob', x) rows=2\n"
            "  rule 1: reach(y) :- reach(x), E(x,y).\n"
            "    Project(y) est=?\n"
            "      HashJoin(x, y) est=?\n"
            "        Scan(x) reach(x) rows=?\n"
            "        Scan(x, y) E(x, y) rows=4\n");
}

// ---------------------------------------------------------------------------
// Schedule parity with the legacy Yannakakis implementation.
// ---------------------------------------------------------------------------

TEST(PlanParityTest, YannakakisScheduleCountsAndAnswers) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Database db = RandomBinaryDatabase(3, 80, 25, seed);
    ConjunctiveQuery q = RandomAcyclicNeqQuery(3, 5, 0, seed);
    LegacyStats legacy;
    auto reference = LegacyYannakakis(db, q, &legacy).ValueOrDie();
    PlanStats plan_stats;
    auto planned = AcyclicEvaluate(db, q, {}, &plan_stats).ValueOrDie();
    EXPECT_TRUE(planned.EqualsAsSet(reference)) << "seed=" << seed;
    if (!reference.empty()) {
      // Nonempty runs execute the full schedule: counts must be identical
      // (2(m-1) semijoins, m-1 joins for m atoms).
      EXPECT_EQ(plan_stats.semijoins, legacy.semijoins) << "seed=" << seed;
      EXPECT_EQ(plan_stats.joins, legacy.joins) << "seed=" << seed;
      EXPECT_EQ(plan_stats.semijoins, 2 * (q.body.size() - 1));
      EXPECT_EQ(plan_stats.joins, q.body.size() - 1);
    }
  }
}

TEST(PlanParityTest, EvalTestQueriesKeepTheirCounts) {
  // The acyclic queries the pre-plan eval tests pinned their stats on.
  Database db = GraphDb(GnpRandom(10, 0.3, 3));
  auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  LegacyStats legacy;
  auto reference = LegacyYannakakis(db, q, &legacy).ValueOrDie();
  ASSERT_FALSE(reference.empty());
  PlanStats plan_stats;
  auto planned = AcyclicEvaluate(db, q, {}, &plan_stats).ValueOrDie();
  EXPECT_TRUE(planned.EqualsAsSet(reference));
  EXPECT_EQ(plan_stats.semijoins, legacy.semijoins);
  EXPECT_EQ(plan_stats.joins, legacy.joins);
}

TEST(PlanParityTest, FullReducerAblationMatches) {
  Database db = GraphDb(GnpRandom(10, 0.4, 5));
  auto q = ParseConjunctive("ans(a, c) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  EvalContext no_reducer;
  no_reducer.planner.full_reducer = false;
  PlanStats ps;
  auto out = AcyclicEvaluate(db, q, no_reducer, &ps).ValueOrDie();
  EXPECT_EQ(ps.semijoins, 0u);  // the reducer passes are gone from the plan
  EXPECT_EQ(ps.joins, q.body.size() - 1);
  auto reduced = AcyclicEvaluate(db, q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(reduced));
}

// ---------------------------------------------------------------------------
// Randomized differential: plan executor vs the backtracking oracle.
// ---------------------------------------------------------------------------

class PlanDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanDifferentialTest, MatchesBacktrackingOnGeneratedWorkloads) {
  uint64_t seed = GetParam();
  Database db = RandomBinaryDatabase(3, 60, 20, seed);
  for (int neq = 0; neq <= 3; ++neq) {
    ConjunctiveQuery q = RandomAcyclicNeqQuery(3, 4, neq, seed * 7 + neq);
    auto planned = NaiveEvaluateCq(db, q).ValueOrDie();
    auto oracle = BacktrackEvaluateCq(db, q).ValueOrDie();
    EXPECT_TRUE(planned.EqualsAsSet(oracle))
        << "seed=" << seed << " neq=" << neq;
    if (neq == 0) {
      auto yannakakis = AcyclicEvaluate(db, q).ValueOrDie();
      EXPECT_TRUE(yannakakis.EqualsAsSet(oracle)) << "seed=" << seed;
    }
  }
}

TEST_P(PlanDifferentialTest, MatchesBacktrackingOnCyclicQueries) {
  uint64_t seed = GetParam();
  Database db = GraphDb(GnpRandom(9, 0.35, seed));
  const char* queries[] = {
      "ans(x) :- E(x,y), E(y,z), E(z,x).",
      "ans(x, w) :- E(x,y), E(y,z), E(z,w), E(w,x), x != z.",
      "p() :- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z.",
      "ans(a) :- E(a, b), E(b, a), E(a, c), E(c, a), E(b, c).",
  };
  for (const char* text : queries) {
    auto q = ParseConjunctive(text).ValueOrDie();
    auto planned = NaiveEvaluateCq(db, q).ValueOrDie();
    auto oracle = BacktrackEvaluateCq(db, q).ValueOrDie();
    EXPECT_TRUE(planned.EqualsAsSet(oracle))
        << "seed=" << seed << " q=" << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(PlanWorkTest, GreedyOrderAvoidsTheTextualCrossProduct) {
  // A and B share no variable; E and F close the cycle. Joining the atoms
  // as written starts with the |A|·|B| cross product; the greedy order on
  // the binary chain keeps every intermediate far below it.
  Rng rng(271828);
  const size_t scale = 600;
  Database db;
  for (const char* name : {"A", "B", "E", "F"}) {
    RelId id = db.AddRelation(name, 2).ValueOrDie();
    const size_t rows = name[0] < 'E' ? scale : 2 * scale;
    for (size_t i = 0; i < rows; ++i) {
      db.relation(id).Add({rng.Range(0, 199), rng.Range(0, 199)});
    }
  }
  auto q = ParseConjunctive("ans(x, w) :- A(x, y), B(z, w), E(y, z), F(w, x).")
               .ValueOrDie();
  EngineOptions options;
  options.wcoj = false;
  Engine binary(db, options);
  Relation out = binary.Run(q).ValueOrDie();
  EXPECT_EQ(binary.last_stats().plan.multiway_joins, 0u);
  EXPECT_LT(binary.last_stats().plan.peak_intermediate_rows,
            scale * scale / 10);
  Relation wcoj = Engine(db).Run(q).ValueOrDie();
  ASSERT_EQ(out.size(), wcoj.size());
  EXPECT_TRUE(out.data() == wcoj.data());
}

// ---------------------------------------------------------------------------
// Executor mechanics.
// ---------------------------------------------------------------------------

TEST(PlanExecutorTest, SemijoinAndActualRows) {
  NamedRelation a({0});
  a.rel().Add({1});
  a.rel().Add({2});
  a.rel().Add({3});
  NamedRelation b({0});
  b.rel().Add({2});
  b.rel().Add({3});
  b.rel().Add({4});
  auto sj = MakeSemijoin(MakeScan(0, {0}, "A", 3), MakeScan(1, {0}, "B", 3));
  std::vector<const NamedRelation*> inputs = {&a, &b};
  PlanStats stats;
  ExecContext ctx{inputs, {}, &stats};
  auto out = ExecutePlan(*sj, ctx).ValueOrDie();
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.semijoins, 1u);
  EXPECT_EQ(sj->actual_rows, 2u);
  EXPECT_NE(RenderPlan(*sj).find("actual=2"), std::string::npos);
}

TEST(PlanExecutorTest, ExecutedPlanRenderShowsActuals) {
  Database db = GoldenDb();
  auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  auto plan = PlanConjunctive(db, q).ValueOrDie();
  PlanStats stats;
  auto bindings = ExecutePhysicalPlan(plan, {}, &stats).ValueOrDie();
  EXPECT_FALSE(bindings.empty());
  std::string render = plan.Render();
  EXPECT_NE(render.find("actual="), std::string::npos);
  EXPECT_EQ(stats.scans, 3u);
}

// ---------------------------------------------------------------------------
// Unified resource limits.
// ---------------------------------------------------------------------------

TEST(ResourceLimitsTest, StepLimitThroughEvalContext) {
  Database db = GraphDb(CompleteGraph(20));
  auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  EvalContext limited;
  limited.limits.max_steps = 50;
  EXPECT_EQ(NaiveEvaluateCq(db, q, limited).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ResourceLimitsTest, RowLimitThroughEvalContext) {
  Database db = GraphDb(CompleteGraph(30));
  auto q = ParseConjunctive("ans(a, c) :- E(a, b), E(b, c).").ValueOrDie();
  EvalContext tight;
  tight.limits.max_rows = 100;
  EXPECT_EQ(AcyclicEvaluate(db, q, tight).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ResourceLimitsTest, EngineLimitsReachEvaluators) {
  Database db = GraphDb(CompleteGraph(20));
  EngineOptions options;
  options.limits.max_steps = 10;
  Engine engine(db, options);
  // Cyclic query: routed to the plan-based naive evaluator.
  auto q = ParseConjunctive("ans(x) :- E(x,y), E(y,z), E(z,x).").ValueOrDie();
  EXPECT_EQ(engine.Run(q).status().code(), StatusCode::kResourceExhausted);
  // Datalog: the engine-level row cap bounds total derived tuples.
  EngineOptions dl_options;
  dl_options.limits.max_rows = 5;
  Engine dl_engine(db, dl_options);
  auto result = dl_engine.RunText(
      "tc(x, y) :- E(x, y).\n"
      "tc(x, y) :- E(x, z), tc(z, y).\n");
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// UCQ: option threading, stats aggregation, disjunct dedup.
// ---------------------------------------------------------------------------

TEST(UcqPlanTest, DuplicateDisjunctsAreDeduped) {
  Database db;
  RelId a = db.AddRelation("A", 1).ValueOrDie();
  db.relation(a).Add({1});
  db.relation(a).Add({2});
  auto q = ParsePositive("ans(x) := A(x) or A(x).").ValueOrDie();
  UcqStats stats;
  auto out = EvaluatePositive(db, q, {}, {}, &stats).ValueOrDie();
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.disjuncts_expanded, 2u);
  EXPECT_EQ(stats.disjuncts_deduped, 1u);
  EXPECT_EQ(stats.disjuncts_evaluated, 1u);
}

TEST(UcqPlanTest, LimitsReachAcyclicDisjuncts) {
  // The caller's context reaches every disjunct: a row guard must abort the
  // oversized acyclic disjunct. (A one-atom disjunct would plan to a bare
  // scan, which the guard exempts, so the disjunct joins two atoms.)
  Database db;
  RelId a = db.AddRelation("A", 1).ValueOrDie();
  RelId b = db.AddRelation("B", 1).ValueOrDie();
  for (Value v = 0; v < 200; ++v) {
    db.relation(a).Add({v});
    db.relation(b).Add({v});
  }
  auto q = ParsePositive("ans(x) := (A(x) and B(x)) or (A(x) and B(x)).")
               .ValueOrDie();
  EvalContext ctx;
  ctx.limits.max_rows = 10;
  EXPECT_EQ(EvaluatePositive(db, q, ctx).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(UcqPlanTest, StatsAggregateAcrossDisjuncts) {
  Database db = GraphDb(CycleGraph(4));
  auto q = ParsePositive("ans(x) := exists y . (E(x, y) or E(y, x)).")
               .ValueOrDie();
  UcqStats stats;
  PlanStats plan;
  auto out = EvaluatePositive(db, q, {}, {}, &stats, &plan).ValueOrDie();
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(stats.disjuncts_evaluated, 2u);
  EXPECT_EQ(stats.acyclic_disjuncts, 2u);
  EXPECT_GE(plan.scans, 2u);
  EXPECT_GE(plan.projections, 2u);
}

// ---------------------------------------------------------------------------
// Datalog: per-rule plan reuse.
// ---------------------------------------------------------------------------

TEST(DatalogPlanTest, RulePlansAreReusedAcrossIterations) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (Value v = 0; v < 30; ++v) db.relation(e).Add({v, v + 1});
  DatalogStats stats;
  PlanStats plan;
  auto out = EvaluateDatalog(db, TransitiveClosureProgram(), {}, {}, &stats,
                             &plan)
                 .ValueOrDie();
  EXPECT_EQ(out.size(), 30u * 31u / 2u);
  // Three variants ever fire: the EDB-only rule at round 0, the recursive
  // rule at round 0 (the base rule's tuples are already in the IDB by then),
  // and the recursive rule's single delta variant; every later firing
  // reuses a cached plan — except when the observed delta size drifts >10x
  // from the size the variant was planned at, which on this chain happens
  // exactly once (the delta shrinks from 30 rows toward 1).
  EXPECT_EQ(stats.plans_built, 3u);
  EXPECT_GT(stats.plan_reuses, 10u);
  EXPECT_EQ(stats.replans, 1u);
  EXPECT_EQ(stats.rule_firings,
            stats.plans_built + stats.plan_reuses + stats.replans);
  // The shared executor's counters surface through `plan_stats`.
  EXPECT_GT(plan.joins, 10u);
}

// ---------------------------------------------------------------------------
// Engine and EXPLAIN surface.
// ---------------------------------------------------------------------------

TEST(EnginePlanTest, ExplainTextRendersPlansForAllLanguages) {
  Database db = GraphDb(CycleGraph(4));
  Engine engine(db);
  auto cq = engine.ExplainText("ans(a, c) :- E(a, b), E(b, c).").ValueOrDie();
  EXPECT_NE(cq.find("physical plan:"), std::string::npos);
  EXPECT_NE(cq.find("HashJoin"), std::string::npos);
  EXPECT_EQ(cq.find("Semijoin"), std::string::npos);  // a single-edge tree
  auto path3 = engine.ExplainText("ans(a, d) :- E(a, b), E(b, c), E(c, d).")
                   .ValueOrDie();
  EXPECT_NE(path3.find("Semijoin"), std::string::npos);
  auto ucq = engine.ExplainText("ans(x) := exists y . (E(x, y) or E(y, x)).")
                 .ValueOrDie();
  EXPECT_NE(ucq.find("physical plan:"), std::string::npos);
  EXPECT_NE(ucq.find("Union [2 disjuncts]"), std::string::npos);
  auto dl = engine.ExplainText(
                   "tc(x, y) :- E(x, y).\n"
                   "tc(x, y) :- E(x, z), tc(z, y).\n")
                .ValueOrDie();
  EXPECT_NE(dl.find("physical plan:"), std::string::npos);
  EXPECT_NE(dl.find("Fixpoint(tc)"), std::string::npos);
}

TEST(EnginePlanTest, PlanTextDoesNotExecute) {
  Database db = GraphDb(CycleGraph(4));
  Engine engine(db);
  auto plan = engine.PlanText("ans(a, c) :- E(a, b), E(b, c).").ValueOrDie();
  EXPECT_NE(plan.find("route: Yannakakis"), std::string::npos);
  // Estimates only — nothing ran, so no actual row counts.
  EXPECT_EQ(plan.find("actual="), std::string::npos);
  EXPECT_FALSE(engine.PlanText("p() := not (exists x . E(x, x)).").ok());
}

TEST(EnginePlanTest, PlanTextOfABodylessQueryShowsNoPlan) {
  // Run answers a body-less query from its head, so `.plan` shows the route
  // and no plan.
  Database db = GraphDb(CycleGraph(4));
  Engine engine(db);
  auto plan = engine.PlanText("ans(1) :- 1 < 2.").ValueOrDie();
  EXPECT_NE(plan.find("-- route: constant answer"), std::string::npos);
  EXPECT_EQ(plan.find("Scan("), std::string::npos) << plan;
  ASSERT_EQ(engine.RunText("ans(1) :- 1 < 2.").ValueOrDie().size(), 1u);
  EXPECT_EQ(engine.last_stats().plan.scans, 0u);
}

TEST(EnginePlanTest, PlanTextOfTheTheorem2RouteIsTheColorCodingPlan) {
  // The render is the residual plan Run executes per coloring, never a
  // relational fallback.
  Database db = GraphDb(CycleGraph(4));
  Engine engine(db);
  const char* text = "ans(a, c) :- E(a, b), E(b, c), a != c.";
  auto q = ParseConjunctive(text).ValueOrDie();
  const RouteDecision route = DecideRoute(q, PlannerOptions{});
  ASSERT_EQ(route.engine, EngineChoice::kInequality);
  EXPECT_EQ(engine.PlanText(text).ValueOrDie(),
            "-- route: " + std::string(route.reason) + "\n" +
                IneqPlanText(db, q).ValueOrDie());
  ASSERT_TRUE(engine.RunText(text).ok());
  EXPECT_GT(engine.last_stats().ineq.family_size, 0u);
}

TEST(EnginePlanTest, PlanTextShowsTheExecutedPlanUnderEveryToggle) {
  // `.plan` must render with the planner options Run executes under: a
  // MultiwayJoin node appears in the rendered plan exactly when it appears
  // in the executed one.
  Database db = GraphDb(GnpRandom(12, 0.4, 3));
  const char* queries[] = {
      "ans(x) :- E(x, y), E(y, z), E(z, x).",
      "ans(x, z) :- E(x, y), E(y, z), x < z.",
      "ans(x) := exists y, z . ((E(x, y) and E(y, z) and E(z, x)) or "
      "E(x, x)).",
      "tc(x, y) :- E(x, y).\n"
      "tc(x, y) :- E(x, z), tc(z, y).\n",
  };
  for (const char* text : queries) {
    for (bool wcoj : {false, true}) {
      SCOPED_TRACE(testing::Message() << text << " wcoj=" << wcoj);
      EngineOptions options;
      options.wcoj = wcoj;
      Engine engine(db, options);
      auto planned = engine.PlanText(text);
      auto analyzed = engine.AnalyzeText(text);
      ASSERT_TRUE(planned.ok()) << planned.status();
      ASSERT_TRUE(analyzed.ok()) << analyzed.status();
      EXPECT_EQ(planned.value().find("MultiwayJoin") != std::string::npos,
                analyzed.value().find("MultiwayJoin") != std::string::npos)
          << "plan:\n"
          << planned.value() << "analyzed:\n"
          << analyzed.value();
    }
  }
}

TEST(EnginePlanTest, LastStatsCarryPlanCounters) {
  Database db = GraphDb(CycleGraph(4));
  Engine engine(db);
  ASSERT_TRUE(engine.RunText("ans(a, c) :- E(a, b), E(b, c).").ok());
  EXPECT_EQ(engine.last_stats().plan.joins, 1u);
  EXPECT_EQ(engine.last_stats().plan.semijoins, 0u);
  // Two edges: the full reducer's two upward and two downward semijoins.
  ASSERT_TRUE(engine.RunText("ans(a, d) :- E(a, b), E(b, c), E(c, d).").ok());
  EXPECT_EQ(engine.last_stats().plan.joins, 2u);
  EXPECT_EQ(engine.last_stats().plan.semijoins, 4u);
  ASSERT_TRUE(engine
                  .RunText(
                      "tc(x, y) :- E(x, y).\n"
                      "tc(x, y) :- E(x, z), tc(z, y).\n")
                  .ok());
  EXPECT_GT(engine.last_stats().plan.joins, 0u);
  EXPECT_GT(engine.last_stats().datalog.plans_built, 0u);
  ASSERT_TRUE(
      engine.RunText("ans(x) := exists y . (E(x, y) or E(y, x)).").ok());
  EXPECT_EQ(engine.last_stats().ucq.disjuncts_evaluated, 2u);
  EXPECT_GT(engine.last_stats().plan.scans, 0u);
  EXPECT_FALSE(engine.last_stats().ToString().empty());
}

}  // namespace
}  // namespace paraquery
