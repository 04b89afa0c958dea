// Plans that skip the semijoin reducer where the top operator already drops
// dangling tuples, the filtered fused join-project, and the copy-free answer
// path. Covered here: a seeded differential of reducer-free two-atom tuple
// CQs and acyclic COUNT queries against the backtracking oracle and brute
// force counts; the filtered JoinProject against the unfused HashJoin →
// Select → Project → Dedup chain, with its row limit and cancellation; the
// answer path's storage sharing and sortedness; and the exact plan shapes
// and semijoin counts of the 2-path, the COUNT(*) star and the `<` join,
// and the unprojected right scan under a head that keeps nothing from it.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/query_context.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "eval/acyclic.hpp"
#include "eval/common.hpp"
#include "eval/naive.hpp"
#include "graph/generators.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"
#include "query/parser.hpp"
#include "relational/ops.hpp"
#include "runtime/parallel_ops.hpp"
#include "runtime/scheduler.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

constexpr size_t kMorselRows = 64;

Engine MakeEngine(const Database& db, size_t threads) {
  EngineOptions options;
  options.threads = threads;
  options.morsel_rows = kMorselRows;
  return Engine(db, options);
}

// R0..R2 and E random over a small domain (joins fan out), Empty with no
// rows, and Dangle whose values occur in no other relation.
Database DiffDb(uint64_t seed) {
  Database db = RandomBinaryDatabase(3, 400, 30, seed);
  Rng rng(seed + 1);
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (int r = 0; r < 300; ++r) {
    db.relation(e).Add({rng.Range(0, 29), rng.Range(0, 29)});
  }
  db.AddRelation("Empty", 2).ValueOrDie();
  RelId dangle = db.AddRelation("Dangle", 2).ValueOrDie();
  for (int r = 0; r < 50; ++r) {
    db.relation(dangle).Add({rng.Range(1000, 1040), rng.Range(1000, 1040)});
  }
  return db;
}

// Brute force: the distinct assignments to all body variables (the
// backtracking oracle), grouped by `q`'s keys and counted. A scalar count
// is one row, 0 included.
Relation BruteForceCount(const Database& db, const ConjunctiveQuery& q) {
  ConjunctiveQuery all = q;
  all.answer = AnswerSpec::Tuples();
  all.head.clear();
  for (VarId v = 0; v < all.vars.size(); ++v) all.head.push_back(Term::Var(v));
  Relation rows = BacktrackEvaluateCq(db, all).ValueOrDie();
  std::map<std::vector<Value>, Value> groups;
  for (size_t r = 0; r < rows.size(); ++r) {
    std::vector<Value> key;
    for (const Term& t : q.head) key.push_back(rows.At(r, t.var()));
    ++groups[key];
  }
  Relation out(q.head.size() + 1);
  if (q.head.empty()) {
    out.Add({static_cast<Value>(rows.size())});
    return out;
  }
  for (const auto& [key, count] : groups) {
    std::vector<Value> row = key;
    row.push_back(count);
    out.Add(row);
  }
  return out;
}

// "Semijoin(" lines only: SemijoinCount nodes are the counting pass itself.
bool HasSemijoin(const std::string& render) {
  return render.find("Semijoin(") != std::string::npos;
}

TEST(ReducerFreeTest, TwoAtomAndCountingQueriesMatchTheOracle) {
  const char* rels[] = {"R0", "R1", "R2", "E", "Empty", "Dangle"};
  const char* tuple_shapes[] = {
      "g(x, z) :- A(x, y), B(y, z).",
      "g(z, x) :- A(x, y), B(y, z).",
      "g(x) :- A(x, y), B(y, z).",
      "g(z) :- A(x, y), B(y, z).",
      "g(x, y, z) :- A(x, y), B(y, z).",
      "g(y) :- A(x, y), B(y, 5).",           // constant
      "g(x, 7) :- A(x, y), B(y, z).",        // constant in the head
      "g(x) :- A(x, x), B(x, z).",           // repeated variable
      "g(x, y) :- A(x, y), B(y, y).",        // repeated variable
      "g(x, z) :- A(x, y), B(z, y).",        // join on the second columns
      "g(x, w) :- A(x, y), B(z, w).",        // no shared variable
  };
  const char* count_shapes[] = {
      "COUNT(*) :- A(x, y), B(y, z).",
      "COUNT(x) :- A(x, y), B(y, z).",
      "COUNT(x, z) :- A(x, y), B(y, z).",
      "COUNT(*) :- A(c, x), B(c, y), C(c, z).",  // the count_star shape
      "COUNT(c) :- A(c, x), B(c, y), C(c, z).",
      "COUNT(x, w) :- A(x, y), B(y, z), C(z, w).",
      "COUNT(y) :- A(x, y), B(y, 3), C(3, w).",
      "COUNT(*) :- A(x, x), B(x, y), C(y, y).",
  };
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Database db = DiffDb(seed);
    Engine seq = MakeEngine(db, 1);
    Engine par = MakeEngine(db, 4);
    Rng rng(seed * 77);
    auto pick = [&rng, &rels] { return std::string(rels[rng.Below(6)]); };
    auto run = [&](const std::string& text, bool counting) {
      SCOPED_TRACE(text);
      auto q = ParseConjunctive(text).ValueOrDie();
      Relation want = counting ? BruteForceCount(db, q)
                               : BacktrackEvaluateCq(db, q).ValueOrDie();
      Relation a = seq.Run(q).ValueOrDie();
      EXPECT_EQ(seq.last_stats().plan.semijoins, 0u);
      Relation b = par.Run(q).ValueOrDie();
      EXPECT_EQ(par.last_stats().plan.semijoins, 0u);
      EXPECT_TRUE(a.data() == b.data());
      EXPECT_TRUE(a.EqualsAsSet(want))
          << "got " << a.ToString() << " want " << want.ToString();
      EXPECT_FALSE(HasSemijoin(PlanConjunctive(db, q).ValueOrDie().Render()));
    };
    for (const char* shape : tuple_shapes) {
      for (int rep = 0; rep < 4; ++rep) {
        std::string text = shape;
        text.replace(text.find("A("), 1, pick());
        text.replace(text.find("B("), 1, pick());
        run(text, /*counting=*/false);
      }
    }
    // Self-joins over one relation.
    run("g(x, z) :- E(x, y), E(y, z).", false);
    run("g(y) :- E(x, y), E(y, x).", false);
    run("COUNT(*) :- E(x, y), E(y, z).", true);
    for (const char* shape : count_shapes) {
      for (int rep = 0; rep < 4; ++rep) {
        std::string text = shape;
        text.replace(text.find("A("), 1, pick());
        text.replace(text.find("B("), 1, pick());
        if (text.find("C(") != std::string::npos) {
          text.replace(text.find("C("), 1, pick());
        }
        run(text, /*counting=*/true);
      }
    }
  }
}

// --- The filtered fused join-project -------------------------------------

NamedRelation RandomRel(std::vector<AttrId> attrs, size_t rows, Value domain,
                        uint64_t seed) {
  Rng rng(seed);
  NamedRelation out{std::move(attrs)};
  std::vector<Value> row(out.arity());
  for (size_t r = 0; r < rows; ++r) {
    for (Value& v : row) v = rng.Range(0, domain - 1);
    out.rel().Add(row);
  }
  out.rel().HashDedup();
  return out;
}

// The unfused reference: HashJoin, Select, Project, Dedup.
NamedRelation Unfused(const NamedRelation& left, const NamedRelation& right,
                      const Predicate& filter,
                      const std::vector<AttrId>& out) {
  NamedRelation joined = NaturalJoin(left, right).ValueOrDie();
  NamedRelation projected = Project(Select(joined, filter), out, false);
  projected.rel().HashDedup();
  return projected;
}

TEST(FilteredJoinProjectTest, MatchesTheUnfusedChain) {
  // Join row (x, w, y, z, v): x kept from the left, w a left column neither
  // kept nor joined, y the join column, z and v right-only.
  const AttrId x = 0, y = 1, z = 2, w = 3, v = 4;
  const std::vector<Predicate> filters = {
      Predicate({Constraint::LtCols(0, 3)}),                 // x < z
      Predicate({Constraint::LeCols(4, 0)}),                 // v <= x
      Predicate({Constraint::NeqCols(1, 2)}),                // w != y
      Predicate({Constraint::NeqCols(3, 4)}),                // z != v
      Predicate({Constraint::LeConst(0, 9)}),                // x <= 9
      Predicate({Constraint::LtCols(2, 1),                   // y < w
                 Constraint::LeCols(3, 4),                   //   and z <= v
                 Constraint::NeqCols(0, 3)}),                //   and x != z
  };
  const std::vector<std::vector<AttrId>> outs = {
      {x, z}, {z, x}, {x}, {z}, {w, z}, {x, v}};
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    NamedRelation left = RandomRel({x, w, y}, 700, 20, seed);
    NamedRelation right = RandomRel({y, z, v}, 700, 20, seed + 10);
    for (const Predicate& filter : filters) {
      for (const std::vector<AttrId>& out : outs) {
        SCOPED_TRACE(testing::Message() << "seed=" << seed << " filter="
                                        << filter.ToString() << " out="
                                        << testing::PrintToString(out));
        const NamedRelation want = Unfused(left, right, filter, out);
        std::vector<NamedRelation> got;
        for (size_t threads : {size_t{1}, size_t{4}}) {
          TaskScheduler scheduler(threads);
          RuntimeOptions runtime{&scheduler, kMorselRows};
          got.push_back(JoinProject(left, right, nullptr, out, filter, runtime)
                            .ValueOrDie());
          // Through the executor, as the planner emits it.
          PlanNodePtr root = MakeHashJoin(
              MakeScan(0, left.attrs(), "L", 700.0),
              MakeScan(1, right.attrs(), "R", 700.0), filter, out);
          std::vector<const NamedRelation*> inputs = {&left, &right};
          ExecContext ctx{inputs, {}, nullptr, runtime};
          got.push_back(ExecutePlan(*root, ctx).ValueOrDie());
        }
        EXPECT_EQ(got[0].attrs(), out);
        EXPECT_EQ(got[0].size(), want.size());  // duplicate-free
        EXPECT_TRUE(got[0].rel().EqualsAsSet(want.rel()));
        for (const NamedRelation& g : got) {
          EXPECT_TRUE(g.rel().data() == got[0].rel().data());
        }
      }
    }
  }
}

TEST(FilteredJoinProjectTest, RowLimitAndCancellation) {
  NamedRelation left = RandomRel({0, 1}, 3000, 60, 5);
  NamedRelation right = RandomRel({1, 2}, 3000, 60, 6);
  const Predicate lt({Constraint::LtCols(0, 2)});
  const std::vector<AttrId> out = {0, 2};
  const size_t exact = Unfused(left, right, lt, out).size();
  ASSERT_GT(exact, 100u);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    TaskScheduler scheduler(threads);
    RuntimeOptions runtime{&scheduler, kMorselRows};
    auto over = JoinProject(left, right, nullptr, out, lt, runtime, exact - 1);
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
    auto fits = JoinProject(left, right, nullptr, out, lt, runtime, exact);
    ASSERT_TRUE(fits.ok()) << fits.status();
    EXPECT_EQ(fits.value().size(), exact);
  }

  // A cancel landing before, inside or after the fused kernel of a `<`
  // join (K120: 1.7M join rows, no materialized join) yields kCancelled or
  // the exact answer.
  Database db = GraphDatabase(CompleteGraph(120));
  auto q = ParseConjunctive("g(x, w) :- E(x, y), E(y, w), x < w.")
               .ValueOrDie();
  const Relation expected = Engine(db).Run(q).ValueOrDie();
  ASSERT_EQ(expected.size(), 120u * 119u / 2u);
  QueryContext qctx;
  EngineOptions options;
  options.threads = 4;
  options.morsel_rows = kMorselRows;
  options.query_ctx = &qctx;
  Engine engine(db, options);
  qctx.Cancel();
  EXPECT_EQ(engine.Run(q).status().code(), StatusCode::kCancelled);
  for (int delay_ms : {0, 1, 3, 8}) {
    SCOPED_TRACE(delay_ms);
    qctx.Reset();
    std::thread canceller([&qctx, delay_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      qctx.Cancel();
    });
    auto got = engine.Run(q);
    canceller.join();
    if (got.ok()) {
      EXPECT_TRUE(got.value().data() == expected.data());
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
    }
  }
  qctx.Reset();
  EXPECT_TRUE(engine.Run(q).ValueOrDie().data() == expected.data());
}

// --- The answer path -------------------------------------------------------

TEST(AnswerPathTest, IdentityHeadSharesTheBindingsStorage) {
  NamedRelation bindings = RandomRel({0, 1}, 200, 30, 9);
  Relation same = BindingsToAnswers(bindings, {Term::Var(0), Term::Var(1)},
                                    /*sort_output=*/false);
  EXPECT_TRUE(same.SharesStorageWith(bindings.rel()));
  // Heads that reorder, repeat or add a constant copy, row by row.
  struct Case {
    std::vector<Term> head;
    std::vector<int> cols;  // -1: the constant 7
  };
  const Case cases[] = {
      {{Term::Var(1), Term::Var(0)}, {1, 0}},
      {{Term::Var(0), Term::Var(0)}, {0, 0}},
      {{Term::Var(0), Term::Const(7)}, {0, -1}},
      {{Term::Var(1)}, {1}},
  };
  for (const Case& c : cases) {
    Relation got = BindingsToAnswers(bindings, c.head, /*sort_output=*/false);
    EXPECT_FALSE(got.SharesStorageWith(bindings.rel()));
    ASSERT_EQ(got.size(), bindings.size());
    for (size_t r = 0; r < got.size(); ++r) {
      for (size_t i = 0; i < c.cols.size(); ++i) {
        const Value want =
            c.cols[i] < 0 ? 7 : bindings.rel().At(r, c.cols[i]);
        ASSERT_EQ(got.At(r, i), want);
      }
    }
    Relation sorted = BindingsToAnswers(bindings, c.head);
    EXPECT_TRUE(sorted.sorted());
    EXPECT_TRUE(sorted.EqualsAsSet(got));
  }
  // Sorting an identity answer leaves the bindings untouched.
  const std::vector<Value> before = bindings.rel().data();
  Relation sorted = BindingsToAnswers(bindings, {Term::Var(0), Term::Var(1)});
  EXPECT_TRUE(sorted.StrictlyIncreasing());
  EXPECT_TRUE(bindings.rel().data() == before);
}

TEST(AnswerPathTest, JoinProjectIsSortedIffItsKeyLeadsTheHead) {
  Database db = RandomBinaryDatabase(2, 3000, 400, 4);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    TaskScheduler scheduler(threads);
    RuntimeOptions runtime{&scheduler, kMorselRows};
    EvalContext ctx;
    ctx.runtime = runtime;
    for (const char* text : {"g(x, z) :- R0(x, y), R1(y, z).",
                             "g(z, x) :- R0(x, y), R1(y, z)."}) {
      SCOPED_TRACE(text);
      auto q = ParseConjunctive(text).ValueOrDie();
      PhysicalPlan plan = PlanAcyclicCq(db, q).ValueOrDie();
      NamedRelation bindings =
          ExecutePhysicalPlan(plan, {}, nullptr, runtime).ValueOrDie();
      // The left atom holds the head's first variable, so K, the left
      // column the output keeps, leads the head: x for (x, z), z for (z, x).
      EXPECT_TRUE(bindings.rel().sorted());
      Relation answers = AcyclicEvaluate(db, q, ctx).ValueOrDie();
      EXPECT_TRUE(answers.sorted());
      EXPECT_TRUE(answers.StrictlyIncreasing());
      EXPECT_TRUE(answers.EqualsAsSet(BacktrackEvaluateCq(db, q).ValueOrDie()));
    }
  }
}

// --- Plan shapes and exact work --------------------------------------------

TEST(FusedPlanTest, CountStarRunsNoSemijoin) {
  Database db = RandomBinaryDatabase(3, 2000, 300, 8);
  auto q = ParseConjunctive("COUNT(*) :- R0(c, x), R1(c, y), R2(c, z).")
               .ValueOrDie();
  PhysicalPlan plan = PlanCountingCq(db, q).ValueOrDie();
  EXPECT_FALSE(HasSemijoin(plan.Render())) << plan.Render();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    Engine engine = MakeEngine(db, threads);
    Relation got = engine.Run(q).ValueOrDie();
    EXPECT_EQ(engine.last_stats().plan.semijoins, 0u);
    EXPECT_EQ(engine.last_stats().plan.semijoin_counts, 2u);
    EXPECT_TRUE(got.EqualsAsSet(BruteForceCount(db, q)));
  }
}

TEST(FusedPlanTest, LessThanJoinIsOneFilteredJoinProject) {
  Database db = RandomBinaryDatabase(2, 2000, 300, 9);
  auto q = ParseConjunctive("g(x, z) :- R0(x, y), R1(y, z), x < z.")
               .ValueOrDie();
  PhysicalPlan plan = PlanConjunctive(db, q).ValueOrDie();
  const std::string render = plan.Render();
  const PlanNode& root = *plan.root;
  ASSERT_EQ(root.op, PlanOp::kHashJoin) << render;
  // The filter indexes the join row (x, y, z).
  EXPECT_EQ(render.rfind("HashJoin(x, z) project-out(y) $0<$2 ", 0), 0u)
      << render;
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->op, PlanOp::kScan);
  EXPECT_EQ(root.children[1]->op, PlanOp::kScan);
  for (const char* op : {"Select", "Dedup", "Project("}) {
    EXPECT_EQ(render.find(op), std::string::npos) << op << "\n" << render;
  }
  const Relation want = BacktrackEvaluateCq(db, q).ValueOrDie();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    Engine engine = MakeEngine(db, threads);
    Relation got = engine.Run(q).ValueOrDie();
    EXPECT_TRUE(got.data() == want.data());
    // The answer is the fused join's output: no other operator makes rows.
    EXPECT_EQ(engine.last_stats().plan.rows_produced, want.size());
    EXPECT_EQ(engine.last_stats().plan.joins, 1u);
  }
}

TEST(FusedPlanTest, HeadInTheLeftAtomJoinsTheRightScanUnprojected) {
  // The head keeps nothing from R1, so the fused root stops at each R0 row's
  // first match and reads R1's scan as it is: no Project of R1 runs.
  Database db = RandomBinaryDatabase(2, 2000, 300, 10);
  for (const char* text : {"g(x) :- R0(x, y), R1(y, z).",
                           "g(x, y) :- R0(x, y), R1(y, z)."}) {
    SCOPED_TRACE(text);
    auto q = ParseConjunctive(text).ValueOrDie();
    PhysicalPlan plan = PlanConjunctive(db, q).ValueOrDie();
    const std::string render = plan.Render();
    const PlanNode& root = *plan.root;
    ASSERT_EQ(root.op, PlanOp::kHashJoin) << render;
    EXPECT_EQ(root.attrs.size(), q.head.size()) << render;
    ASSERT_EQ(root.children.size(), 2u);
    EXPECT_EQ(root.children[0]->op, PlanOp::kScan) << render;
    EXPECT_EQ(root.children[1]->op, PlanOp::kScan) << render;
    const Relation want = BacktrackEvaluateCq(db, q).ValueOrDie();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      Engine engine = MakeEngine(db, threads);
      Relation got = engine.Run(q).ValueOrDie();
      EXPECT_TRUE(got.data() == want.data());
      EXPECT_EQ(engine.last_stats().plan.rows_produced, want.size());
      EXPECT_EQ(engine.last_stats().plan.projections, 0u);
    }
  }
}

}  // namespace
}  // namespace paraquery
