// Tests for the classifier, the engine facade, and the workload generators.
#include <gtest/gtest.h>

#include "core/classifier.hpp"
#include "core/engine.hpp"
#include "core/explain.hpp"
#include "eval/naive.hpp"
#include "graph/generators.hpp"
#include "query/parser.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

TEST(ClassifierTest, AcyclicPureCqIsTractable) {
  auto q = ParseConjunctive("ans(x, z) :- E(x, y), E(y, z).").ValueOrDie();
  Classification c = ClassifyConjunctive(q);
  EXPECT_TRUE(c.fixed_parameter_tractable);
  EXPECT_EQ(c.engine, EngineChoice::kAcyclic);
  EXPECT_TRUE(c.acyclic);
}

TEST(ClassifierTest, AcyclicNeqIsTheorem2) {
  auto q = ParseConjunctive("g(e) :- EP(e, p), EP(e, q), p != q.")
               .ValueOrDie();
  Classification c = ClassifyConjunctive(q);
  EXPECT_TRUE(c.fixed_parameter_tractable);
  EXPECT_EQ(c.engine, EngineChoice::kInequality);
  EXPECT_NE(c.basis.find("Theorem 2"), std::string::npos);
}

TEST(ClassifierTest, OrderComparisonsAreTheorem3) {
  auto q = ParseConjunctive("g(e) :- EM(e, m), ES(e, s), ES(m, t), t < s.")
               .ValueOrDie();
  Classification c = ClassifyConjunctive(q);
  EXPECT_FALSE(c.fixed_parameter_tractable);
  EXPECT_EQ(c.class_under_q, "W[1]-complete");
  EXPECT_NE(c.basis.find("Theorem 3"), std::string::npos);
}

TEST(ClassifierTest, CyclicCqIsW1) {
  auto q = ParseConjunctive("p() :- E(x,y), E(y,z), E(z,x).").ValueOrDie();
  Classification c = ClassifyConjunctive(q);
  EXPECT_FALSE(c.fixed_parameter_tractable);
  EXPECT_FALSE(c.acyclic);
  EXPECT_EQ(c.class_under_q, "W[1]-complete");
}

TEST(ClassifierTest, PositivePrenexIsWSatComplete) {
  auto q = ParsePositive("p() := exists x, y . (A(x) and (B(y) or A(y))).")
               .ValueOrDie();
  Classification c = ClassifyPositive(q);
  EXPECT_TRUE(c.prenex);
  EXPECT_NE(c.class_under_v.find("W[SAT]-complete"), std::string::npos);
  auto q2 = ParsePositive("p() := (exists x . A(x)) and (exists y . B(y)).")
                .ValueOrDie();
  Classification c2 = ClassifyPositive(q2);
  EXPECT_FALSE(c2.prenex);
  EXPECT_EQ(c2.class_under_v, "W[SAT]-hard");
}

TEST(ClassifierTest, FirstOrderIsWtHard) {
  auto q = ParseFirstOrder("p() := not (exists x . E(x, x)).").ValueOrDie();
  Classification c = ClassifyFirstOrder(q);
  EXPECT_NE(c.class_under_q.find("W[t]-hard"), std::string::npos);
  EXPECT_NE(c.class_under_v.find("W[P]-hard"), std::string::npos);
}

TEST(ClassifierTest, PositiveFoClassifiedAsPositive) {
  auto q = ParseFirstOrder("p() := exists x . A(x).").ValueOrDie();
  Classification c = ClassifyFirstOrder(q);
  EXPECT_EQ(c.language, QueryLanguage::kPositive);
}

TEST(ClassifierTest, DatalogArity) {
  auto tc = TransitiveClosureProgram();
  Classification c = ClassifyDatalog(tc);
  EXPECT_NE(c.class_under_q.find("W[1]-complete"), std::string::npos);
  auto wide = ArityRWalkProgram(4);
  Classification cw = ClassifyDatalog(wide);
  EXPECT_NE(cw.class_under_q.find("Vardi"), std::string::npos)
      << cw.class_under_q;
  EXPECT_EQ(cw.max_idb_arity, 4);
}

TEST(EngineTest, RoutesAcyclicNeqToTheorem2) {
  Database db = EmployeeProjects(50, 20, 1, 3, 42);
  Engine engine(db);
  auto q = MultiProjectQuery();
  auto fast = engine.Run(q).ValueOrDie();
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(fast.EqualsAsSet(naive));
}

TEST(EngineTest, ComparisonClosureAppliedBeforeRouting) {
  Database db = GraphDatabase(PathGraph(5));
  // x <= y and y <= x collapse to equality: E(x, x) pattern.
  Engine engine(db);
  auto q = ParseConjunctive("ans(x, y) :- E(x, y), x <= y, y <= x.")
               .ValueOrDie();
  auto out = engine.Run(q).ValueOrDie();
  EXPECT_TRUE(out.empty());  // the path graph has no self-loops
  auto q2 = ParseConjunctive("ans(x, y) :- E(x, y), x < y, y < x.")
                .ValueOrDie();
  EXPECT_TRUE(engine.Run(q2).ValueOrDie().empty());  // inconsistent
}

TEST(EngineTest, OrderComparisonsFallBackToNaive) {
  Database db = EmployeeSalaries(40, 1000, 7);
  Engine engine(db);
  auto q = HigherPaidThanManagerQuery();
  auto out = engine.Run(q).ValueOrDie();
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(naive));
}

TEST(EngineTest, RunTextDispatch) {
  Database db = GraphDatabase(CycleGraph(4));
  Engine engine(db);
  // Rule syntax.
  auto rule = engine.RunText("ans(x, z) :- E(x, y), E(y, z).");
  ASSERT_TRUE(rule.ok());
  // Formula syntax.
  auto fo = engine.RunText("ans(x) := exists y . E(x, y).");
  ASSERT_TRUE(fo.ok());
  EXPECT_EQ(fo.value().size(), 4u);
  // Datalog program.
  auto dl = engine.RunText(
      "tc(x, y) :- E(x, y).\n"
      "tc(x, y) :- E(x, z), tc(z, y).\n");
  ASSERT_TRUE(dl.ok());
  EXPECT_EQ(dl.value().size(), 16u);  // cycle: everything reaches everything
}

TEST(EngineTest, LastStatsExposeEvaluatorCounters) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  db.relation(e).Add({1, 2});
  db.relation(e).Add({2, 3});
  Engine engine(db);
  // Datalog run: the E atom appears in both rules but is materialized once
  // by the program-wide EDB cache.
  auto dl = engine.RunText(
      "tc(x, y) :- E(x, y).\n"
      "tc(x, y) :- E(x, z), tc(z, y).\n");
  ASSERT_TRUE(dl.ok());
  EXPECT_GE(engine.last_stats().datalog.rule_firings, 2u);
  EXPECT_EQ(engine.last_stats().datalog.edb_materializations, 1u);
  EXPECT_EQ(engine.last_stats().datalog.edb_cache_hits, 1u);
  // Acyclic run: the constant-free atom comes back as a zero-copy view.
  auto cq = engine.RunText("ans(x) :- E(x, y).");
  ASSERT_TRUE(cq.ok());
  EXPECT_EQ(engine.last_stats().plan.shared_atom_storage, 1u);
  // Over a bag, the atom binds the set form cached on the stored rows.
  Database bag = db;
  bag.relation(e).Add({1, 2});
  Engine bag_engine(bag);
  auto bag_cq = bag_engine.RunText("ans(x) :- E(x, y).");
  ASSERT_TRUE(bag_cq.ok());
  EXPECT_EQ(bag_cq.value().size(), 2u);
  EXPECT_EQ(bag_engine.last_stats().plan.shared_atom_storage, 1u);
}

TEST(EngineTest, RunTextWithStringConstants) {
  Database db;
  RelId likes = db.AddRelation("Likes", 2).ValueOrDie();
  Value alice = db.dict().Intern("alice");
  Value bob = db.dict().Intern("bob");
  db.relation(likes).Add({alice, bob});
  Engine engine(db);
  // Without a dictionary, string constants are a parse error.
  EXPECT_FALSE(engine.RunText("ans(x) :- Likes(x, 'bob').").ok());
  auto out = engine.RunText("ans(x) :- Likes(x, 'bob').", &db.dict());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value().At(0, 0), alice);
}

TEST(EngineTest, ConstantOnlyQuery) {
  Database db = GraphDatabase(PathGraph(2));
  Engine engine(db);
  auto q = ParseConjunctive("ans(1, 2) :- .").ValueOrDie();
  auto out = engine.Run(q).ValueOrDie();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.At(0, 0), 1);
  EXPECT_EQ(out.At(0, 1), 2);
}

TEST(EngineTest, ExplainTextMentionsTheorem) {
  Database db = GraphDatabase(PathGraph(3));
  Engine engine(db);
  auto report =
      engine.ExplainText("g(e) :- EP(e, p), EP(e, q), p != q.").ValueOrDie();
  EXPECT_NE(report.find("Theorem 2"), std::string::npos);
  EXPECT_NE(report.find("color coding"), std::string::npos);
  auto fo = engine.ExplainText("p() := not (exists x . E(x, x)).")
                .ValueOrDie();
  EXPECT_NE(fo.find("W[P]-hard"), std::string::npos);
}

TEST(EngineTest, ExplainInconsistentComparisons) {
  Database db = GraphDatabase(PathGraph(3));
  Engine engine(db);
  auto report =
      engine.ExplainText("p() :- E(x, y), x < y, y < x.").ValueOrDie();
  EXPECT_NE(report.find("INCONSISTENT"), std::string::npos);
}

TEST(ClassifierTest, ClassifiesTheCollapsedQuery) {
  // Run collapses both queries to acyclic comparison-free ones and takes
  // Yannakakis; the classifier reports the same.
  for (const char* text : {"ans(x, z) :- E(x, y), E(y, z), y = z.",
                           "ans(x) :- E(x, y), x <= y, y <= x."}) {
    SCOPED_TRACE(text);
    Classification c = ClassifyConjunctive(ParseConjunctive(text).ValueOrDie());
    EXPECT_EQ(c.engine, EngineChoice::kAcyclic);
    EXPECT_TRUE(c.acyclic);
    EXPECT_FALSE(c.has_order);
    EXPECT_TRUE(c.fixed_parameter_tractable);
    EXPECT_EQ(c.class_under_q, "PTIME (combined complexity)");
  }
  // Cyclic queries run the general plan, not a backtracking search.
  Classification triangle = ClassifyConjunctive(
      ParseConjunctive("p() :- E(x, y), E(y, z), E(z, x).").ValueOrDie());
  EXPECT_EQ(triangle.engine, EngineChoice::kNaive);
  EXPECT_EQ(std::string(EngineChoiceName(triangle.engine)).find("backtrack"),
            std::string::npos);
  EXPECT_NE(std::string(triangle.route).find("multiway"), std::string::npos);
  PlannerOptions binary;
  binary.wcoj = false;
  EXPECT_NE(std::string(ClassifyConjunctive(
                            ParseConjunctive("p() :- E(x, y), E(y, z), "
                                             "E(z, x).")
                                .ValueOrDie(),
                            binary)
                            .route)
                .find("left-deep"),
            std::string::npos);
}

TEST(EngineTest, BodylessComparisonsAreDecided) {
  // A body-less query's constant comparisons go through the closure: a
  // false one empties the answer instead of being skipped.
  Database db = GraphDatabase(PathGraph(2));
  Engine engine(db);
  EXPECT_EQ(engine.RunText("ans(1) :- 1 != 1.").ValueOrDie().size(), 0u);
  EXPECT_EQ(engine.RunText("ans(1) :- 1 != 2.").ValueOrDie().size(), 1u);
  EXPECT_EQ(engine.RunText("COUNT(*) :- 1 != 1.").ValueOrDie().At(0, 0), 0);
  EXPECT_EQ(engine.RunText("COUNT(*) :- 1 < 2.").ValueOrDie().At(0, 0), 1);
}

TEST(WorkloadTest, EmployeeProjectsShape) {
  Database db = EmployeeProjects(100, 30, 1, 4, 3);
  RelId ep = db.FindRelation("EP").ValueOrDie();
  EXPECT_GE(db.relation(ep).size(), 100u);
  EXPECT_LE(db.relation(ep).size(), 400u);
  // Ground truth: employees with >= 2 distinct projects.
  auto q = MultiProjectQuery();
  auto ans = NaiveEvaluateCq(db, q).ValueOrDie();
  std::map<Value, std::set<Value>> projects;
  for (size_t r = 0; r < db.relation(ep).size(); ++r) {
    projects[db.relation(ep).At(r, 0)].insert(db.relation(ep).At(r, 1));
  }
  size_t expected = 0;
  for (const auto& [e, ps] : projects) {
    if (ps.size() >= 2) ++expected;
  }
  EXPECT_EQ(ans.size(), expected);
}

TEST(WorkloadTest, StudentCoursesOutsideFraction) {
  Database db = StudentCourses(200, 40, 4, 3, 0.3, 9);
  auto q = OutsideDepartmentQuery();
  auto ans = NaiveEvaluateCq(db, q).ValueOrDie();
  // Roughly 30% of 200 students; generator forces exactness per student.
  EXPECT_GT(ans.size(), 30u);
  EXPECT_LT(ans.size(), 90u);
}

TEST(WorkloadTest, SimplePathQueryShape) {
  auto q = SimplePathQuery(3);
  EXPECT_EQ(q.body.size(), 3u);
  EXPECT_EQ(q.comparisons.size(), 6u);  // C(4,2)
  EXPECT_TRUE(q.IsAcyclic());
  EXPECT_TRUE(q.HasOnlyInequalities());
}

TEST(WorkloadTest, ArityRWalkProgramValidates) {
  for (int r = 2; r <= 5; ++r) {
    auto prog = ArityRWalkProgram(r);
    EXPECT_TRUE(prog.Validate().ok());
    EXPECT_EQ(prog.MaxIdbArity(), r);
  }
}

TEST(WorkloadTest, RandomAcyclicNeqQueryIsAcyclic) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto q = RandomAcyclicNeqQuery(3, 5, 3, seed);
    EXPECT_TRUE(q.IsAcyclic());
    EXPECT_TRUE(q.Validate().ok());
  }
}

}  // namespace
}  // namespace paraquery
