// The fused join-project (a kHashJoin whose attrs drop a child attribute):
// the planner emits it for the Yannakakis root projection over the upward
// pass's last join, and the executor runs it as one grouped kernel
// (runtime/parallel_ops.hpp JoinProject). Covered here: a seeded
// differential against the backtracking oracle over query shapes that
// stress the grouping (head orders, constants, repeated variables, empty
// group keys, UCQ disjuncts) and over hand-built plans (unkept left columns,
// cached-scan right sides, no join columns); byte-identical bindings at
// every width; contiguous key runs against RowIndex probes across the
// dense-key threshold; the EXPLAIN ANALYZE surface; the resource guards;
// and an exact count of the rows the plan produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/query_context.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "eval/acyclic.hpp"
#include "eval/common.hpp"
#include "eval/naive.hpp"
#include "eval/ucq.hpp"
#include "graph/generators.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"
#include "query/parser.hpp"
#include "relational/ops.hpp"
#include "relational/row_index.hpp"
#include "runtime/parallel_ops.hpp"
#include "runtime/scheduler.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

// The widths every case runs at: sequential, four threads with the default
// morsel size, and four threads with 64-row morsels (many morsels).
struct Width {
  size_t threads;
  size_t morsel_rows;
};
const Width kWidths[] = {{1, kDefaultMorselRows},
                         {4, kDefaultMorselRows},
                         {4, 64}};

bool IsFused(const PlanNode& n) {
  return n.op == PlanOp::kHashJoin && !JoinProjectedOut(n).empty();
}

// Random R0..R2 plus a ternary T, small domains so joins fan out.
Database TestDb(uint64_t seed) {
  Database db = RandomBinaryDatabase(3, 300, 25, seed);
  RelId t = db.AddRelation("T", 3).ValueOrDie();
  Rng rng(seed + 1000);
  for (int r = 0; r < 300; ++r) {
    db.relation(t).Add(
        {rng.Range(0, 24), rng.Range(0, 24), rng.Range(0, 24)});
  }
  return db;
}

// Plans `q`, executes it at every width, and checks: the root is the fused
// join; the bindings are byte-identical across widths; the answers equal
// the backtracking oracle's.
void CheckQuery(const Database& db, const ConjunctiveQuery& q) {
  PhysicalPlan plan = PlanAcyclicCq(db, q).ValueOrDie();
  ASSERT_TRUE(IsFused(*plan.root)) << plan.Render();
  std::vector<NamedRelation> bindings;
  for (const Width& w : kWidths) {
    TaskScheduler scheduler(w.threads);
    RuntimeOptions runtime{&scheduler, w.morsel_rows};
    auto out = ExecutePhysicalPlan(plan, {}, nullptr, runtime);
    ASSERT_TRUE(out.ok()) << out.status();
    bindings.push_back(std::move(out).value());
  }
  for (const NamedRelation& b : bindings) {
    EXPECT_EQ(b.attrs(), bindings[0].attrs());
    EXPECT_TRUE(b.rel().data() == bindings[0].rel().data());
  }
  Relation distinct = bindings[0].rel();
  distinct.HashDedup();
  EXPECT_EQ(distinct.size(), bindings[0].size());  // set semantics
  Relation answers = BindingsToAnswers(bindings[0], q.head);
  Relation oracle = BacktrackEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(answers.EqualsAsSet(oracle))
      << "answers=" << answers.size() << " oracle=" << oracle.size();
}

TEST(JoinProjectTest, QueryShapesMatchOracleAtEveryWidth) {
  const char* queries[] = {
      "g(x, z) :- R0(x, y), R1(y, z).",
      "g(z, x) :- R0(x, y), R1(y, z).",
      "g(x, z) :- R0(x, y), R1(y, z), R2(z, 7).",     // constant
      "g(x, z) :- R0(x, y), R1(y, y), R2(y, z).",     // repeated variable
      "g(z) :- R0(x, y), R1(y, z).",                  // one side has no key
      "g(x) :- R0(x, y), R1(y, z).",
      "g(x, z) :- T(x, w, y), R1(y, z).",             // ternary atom
      "g(w, x, 3) :- R0(x, y), R1(y, z), R2(z, w).",  // constant in head
  };
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Database db = TestDb(seed);
    for (const char* text : queries) {
      SCOPED_TRACE(testing::Message() << text << " seed=" << seed);
      CheckQuery(db, ParseConjunctive(text).ValueOrDie());
    }
  }
}

TEST(JoinProjectTest, EmptyGroupKeyIsPlanned) {
  // A two-atom join keeps its head's first variable on the left, so the
  // empty key needs a longer path. Whichever atom its join tree roots, one
  // end's variable reaches the root through the last child joined, so one
  // of these two queries keeps no column of the fused join's left side:
  // one group, all right tuples.
  Database db = TestDb(1);
  size_t empty_key = 0;
  for (const char* text : {"g(x) :- R0(x, y), R1(y, z), R2(z, w).",
                           "g(w) :- R0(x, y), R1(y, z), R2(z, w)."}) {
    PhysicalPlan plan =
        PlanAcyclicCq(db, ParseConjunctive(text).ValueOrDie()).ValueOrDie();
    ASSERT_TRUE(IsFused(*plan.root));
    bool keeps_left = false;
    for (AttrId a : plan.root->children[0]->attrs) {
      for (AttrId h : plan.root->attrs) keeps_left |= a == h;
    }
    empty_key += !keeps_left;
  }
  EXPECT_EQ(empty_key, 1u);
}

TEST(JoinProjectTest, GeneratedAcyclicQueriesMatchOracle) {
  // Random acyclic CQs with a random proper subset of their variables as
  // the head, in random order: the join variables are projected away.
  size_t fused = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Database db = RandomBinaryDatabase(3, 200, 20, seed);
    ConjunctiveQuery q = RandomAcyclicNeqQuery(3, 2 + seed % 3, 0, seed);
    std::vector<VarId> vars = q.BodyVariables();
    Rng rng(seed * 17);
    for (size_t i = vars.size(); i > 1; --i) {
      std::swap(vars[i - 1], vars[rng.Below(i)]);
    }
    vars.resize(1 + rng.Below(vars.size() - 1));
    q.head.clear();
    for (VarId v : vars) q.head.push_back(Term::Var(v));
    SCOPED_TRACE(testing::Message() << q.ToString() << " seed=" << seed);
    PhysicalPlan plan = PlanAcyclicCq(db, q).ValueOrDie();
    if (!IsFused(*plan.root)) continue;  // the head kept the root join whole
    ++fused;
    CheckQuery(db, q);
  }
  EXPECT_GE(fused, 16u);
}

TEST(JoinProjectTest, UcqDisjunctIsFusedAndMatchesOracle) {
  Database db = TestDb(5);
  auto ucq = ParsePositive(
                 "g(x, y) := R0(x, y) or exists z . (R1(x, z) and R2(z, y)).")
                 .ValueOrDie();
  auto disjunct =
      ParseConjunctive("g(x, y) :- R1(x, z), R2(z, y).").ValueOrDie();
  EXPECT_TRUE(IsFused(*PlanAcyclicCq(db, disjunct).ValueOrDie().root));
  Relation oracle = BacktrackEvaluateCq(db, disjunct).ValueOrDie();
  Relation r0 =
      BacktrackEvaluateCq(db, ParseConjunctive("g(x, y) :- R0(x, y).")
                                  .ValueOrDie())
          .ValueOrDie();
  for (size_t r = 0; r < r0.size(); ++r) oracle.Add(r0.Row(r));
  std::vector<Relation> answers;
  for (const Width& w : kWidths) {
    TaskScheduler scheduler(w.threads);
    EvalContext ctx;
    ctx.runtime = RuntimeOptions{&scheduler, w.morsel_rows};
    answers.push_back(EvaluatePositive(db, ucq, ctx).ValueOrDie());
  }
  EXPECT_TRUE(answers[0].EqualsAsSet(oracle));
  for (const Relation& a : answers) {
    EXPECT_TRUE(a.data() == answers[0].data());
  }
}

// --- Hand-built plans: shapes the Yannakakis planner does not guarantee ---

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

// Executes MakeHashJoin(Scan(left), Scan(right), project) at every width
// (twice each, so a cached right side is built once and then hit) and
// checks it against Project(NaturalJoin(left, right), project).
void CheckPlan(const NamedRelation& left, const NamedRelation& right,
               const std::vector<AttrId>& project, bool cached_right) {
  JoinIndexCache cache;
  PlanNodePtr root = MakeHashJoin(
      MakeScan(0, left.attrs(), "L", static_cast<double>(left.size())),
      MakeScan(1, right.attrs(), "R", static_cast<double>(right.size()),
               cached_right ? &cache : nullptr),
      {}, project);
  ASSERT_TRUE(IsFused(*root));
  NamedRelation expected =
      Project(NaturalJoin(left, right).ValueOrDie(), project, true);
  std::vector<const NamedRelation*> inputs = {&left, &right};
  std::vector<NamedRelation> outs;
  PlanStats stats;
  for (const Width& w : kWidths) {
    TaskScheduler scheduler(w.threads);
    ExecContext ctx{inputs, {}, &stats, RuntimeOptions{&scheduler,
                                                        w.morsel_rows}};
    for (int rep = 0; rep < 2; ++rep) {
      auto out = ExecutePlan(*root, ctx);
      ASSERT_TRUE(out.ok()) << out.status();
      outs.push_back(std::move(out).value());
    }
  }
  ASSERT_EQ(outs[0].attrs(), project);
  EXPECT_TRUE(outs[0].rel().EqualsAsSet(expected.rel()));
  EXPECT_EQ(outs[0].size(), expected.size());  // duplicate-free
  for (const NamedRelation& o : outs) {
    EXPECT_TRUE(o.rel().data() == outs[0].rel().data());
  }
  if (cached_right) {
    EXPECT_EQ(stats.index_builds, 1u);
    EXPECT_EQ(stats.index_hits, 2 * std::size(kWidths) - 1);
  }
}

TEST(JoinProjectTest, HandBuiltPlansMatchJoinThenProject) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    NamedRelation xwy = RandomRel({0, 3, 1}, 600, 15, seed);
    NamedRelation xy = RandomRel({0, 1}, 400, 20, seed + 10);
    NamedRelation yz = RandomRel({1, 2}, 400, 20, seed + 20);
    NamedRelation z = RandomRel({2}, 10, 20, seed + 30);
    // w is neither kept nor joined: the trie groups over (x, y) only.
    CheckPlan(xwy, yz, {0, 2}, false);
    // Cached-scan right side, head order (z, x).
    CheckPlan(xy, yz, {2, 0}, true);
    // Empty group key: the left contributes only its join column.
    CheckPlan(xy, yz, {2}, false);
    // Nothing kept from the right: one row per matching left group.
    CheckPlan(xy, yz, {0, 1}, false);
    // No join column: a projected cross product.
    CheckPlan(xy, z, {0, 2}, false);
  }
}

// --- Key runs ----------------------------------------------------------------

// A right side (y, z) of `rows` rows whose join column y spans exactly
// [0, span] (both ends present).
NamedRelation SpanRel(size_t rows, Value span, uint64_t seed) {
  Rng rng(seed);
  NamedRelation out{{1, 2}};
  out.rel().Add({0, rng.Range(0, 50)});
  out.rel().Add({span, rng.Range(0, 50)});
  while (out.size() < rows) {
    out.rel().Add({rng.Range(0, span), rng.Range(0, 50)});
    out.rel().HashDedup();
  }
  return out;
}

// A left side (x, y) of exactly `rows` distinct rows, x in [0, 40]: half of
// them take their join column y from `right`'s join keys, so every one
// joins, and the rest draw y from [0, span].
NamedRelation KeyedLeft(const NamedRelation& right, size_t rows, Value span,
                        uint64_t seed) {
  Rng rng(seed);
  std::set<std::pair<Value, Value>> seen;
  NamedRelation out{{0, 1}};
  auto add = [&](Value x, Value y) {
    if (seen.emplace(x, y).second) out.rel().Add({x, y});
  };
  while (out.size() < rows / 2) {
    add(rng.Range(0, 40), right.rel().At(rng.Below(right.size()), 0));
  }
  while (out.size() < rows) add(rng.Range(0, 40), rng.Range(0, span));
  return out;
}

TEST(JoinProjectTest, KeyRunsMatchRowIndexAcrossTheDenseThreshold) {
  // The kernel probes contiguous key runs when it builds its own key
  // structure over a range that is dense for the kernel's input rows
  // (KeyRange::DenseForCounts(|left| + |right|), i.e. span < 2(|left| +
  // |right|) - 1) and walks RowIndex chains when handed an index: both give
  // the same rows in the same order, on either side of the threshold. Both
  // sides have a fixed size, so the threshold is one number.
  const size_t n = 300, left_rows = 4000;
  const Value threshold = static_cast<Value>(2 * (left_rows + n) - 1);
  for (Value span : {threshold - 2, threshold - 1, threshold, threshold + 1,
                     Value{1} << 40}) {
    SCOPED_TRACE(span);
    NamedRelation right = SpanRel(n, span, static_cast<uint64_t>(span));
    NamedRelation left = KeyedLeft(right, left_rows, span, 7);
    ASSERT_EQ(left.size(), left_rows);
    // Every right-keyed left row joins.
    ASSERT_GE(NaturalJoin(left, right).ValueOrDie().size(), left_rows / 2);
    const RowIndex index(right.rel(), JoinKeyColumns(left, right));
    const bool dense = span < threshold;
    for (std::vector<AttrId> out : {std::vector<AttrId>{0, 2},
                                    std::vector<AttrId>{2, 0},
                                    std::vector<AttrId>{0},
                                    std::vector<AttrId>{2}}) {
      for (const Width& w : kWidths) {
        TaskScheduler scheduler(w.threads);
        RuntimeOptions runtime{&scheduler, w.morsel_rows};
        KeyKind runs_key = KeyKind::kNone, index_key = KeyKind::kNone;
        NamedRelation via_runs =
            JoinProject(left, right, nullptr, out, {}, runtime, 0, nullptr,
                        &runs_key)
                .ValueOrDie();
        NamedRelation via_index =
            JoinProject(left, right, &index, out, {}, runtime, 0, nullptr,
                        &index_key)
                .ValueOrDie();
        EXPECT_EQ(runs_key, dense ? KeyKind::kDense : KeyKind::kHash);
        EXPECT_EQ(index_key, KeyKind::kHash);
        EXPECT_EQ(via_runs.attrs(), via_index.attrs());
        EXPECT_TRUE(via_runs.rel().data() == via_index.rel().data());
        EXPECT_FALSE(via_runs.empty());
        EXPECT_TRUE(via_runs.rel().EqualsAsSet(
            Project(NaturalJoin(left, right).ValueOrDie(), out, true).rel()));
      }
    }
  }
}

// --- EXPLAIN ANALYZE ------------------------------------------------------

// "sort_ms=<v>" from the first line of an AnalyzeText render.
double SortMs(const std::string& analyzed) {
  size_t at = analyzed.find("sort_ms=");
  EXPECT_NE(at, std::string::npos);
  return std::strtod(analyzed.c_str() + at + 8, nullptr);
}

TEST(JoinProjectTest, AnalyzeShowsFusedRootAndNearFreeSort) {
  Database db = RandomBinaryDatabase(2, 20000, 4000, 3);
  Engine engine(db);
  // Both head orders come out of the kernel already sorted (its left atom
  // holds the head's first variable), so the reported answer sort costs
  // less than a full sort of the same answer with its rows reversed.
  for (const char* head : {"x, z", "z, x"}) {
    SCOPED_TRACE(head);
    const std::string text =
        std::string("g(") + head + ") :- R0(x, y), R1(y, z).";
    double sort_ms = 1e9, full_sort_ms = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      std::string fused = engine.AnalyzeText(text).ValueOrDie();
      ASSERT_NE(fused.find(std::string("\nHashJoin(") + head +
                           ") project-out(y) "),
                std::string::npos)
          << fused;
      EXPECT_EQ(fused.find("Project("), std::string::npos) << fused;
      sort_ms = std::min(sort_ms, SortMs(fused));
      Relation answer = engine.RunText(text).ValueOrDie();
      Relation reversed(answer.arity());
      for (size_t r = answer.size(); r-- > 0;) reversed.Add(answer.Row(r));
      Timer t;
      reversed.SortAndDedup();
      full_sort_ms = std::min(full_sort_ms, t.Millis());
      EXPECT_TRUE(reversed.data() == answer.data());
    }
    EXPECT_LT(sort_ms, full_sort_ms);
  }
}

// --- Resource guards ------------------------------------------------------

// K30: E has 870 rows and the 2-path's answer is all 900 pairs. A single
// edge plans no semijoin, so the fused root is the only operator that
// produces rows.
const char* kPath2 = "g(x, z) :- E(x, y), E(y, z).";

TEST(JoinProjectTest, RowLimitAbortsInsideTheKernel) {
  Database db = GraphDatabase(CompleteGraph(30));
  auto q = ParseConjunctive(kPath2).ValueOrDie();
  for (const Width& w : kWidths) {
    TaskScheduler scheduler(w.threads);
    EvalContext ctx;
    ctx.runtime = RuntimeOptions{&scheduler, w.morsel_rows};
    ctx.limits.max_rows = 880;
    auto out = AcyclicEvaluate(db, q, ctx);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(out.status().message().find("join-project output exceeds"),
              std::string::npos)
        << out.status();
    ctx.limits.max_rows = 900;
    auto exact = AcyclicEvaluate(db, q, ctx);
    ASSERT_TRUE(exact.ok()) << exact.status();
    EXPECT_EQ(exact.value().size(), 900u);
  }
}

TEST(JoinProjectTest, StepLimitCountsTheFusedOutput) {
  // 900 rows from the fused root and nothing else.
  Database db = GraphDatabase(CompleteGraph(30));
  auto q = ParseConjunctive(kPath2).ValueOrDie();
  for (const Width& w : kWidths) {
    TaskScheduler scheduler(w.threads);
    EvalContext ctx;
    ctx.runtime = RuntimeOptions{&scheduler, w.morsel_rows};
    ctx.limits.max_steps = 899;
    auto out = AcyclicEvaluate(db, q, ctx);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(out.status().message().find("step limit"), std::string::npos);
    ctx.limits.max_steps = 900;
    auto exact = AcyclicEvaluate(db, q, ctx);
    ASSERT_TRUE(exact.ok()) << exact.status();
    EXPECT_EQ(exact.value().size(), 900u);
  }
}

TEST(JoinProjectTest, CancellationFailsCleanly) {
  // The fused root dominates this query (a 500k-row 3-path over K80 whose
  // answer is 6400 pairs). A cancel landing anywhere — before, inside or
  // after the kernel — yields kCancelled or the exact answer, never a
  // truncated one, and the engine answers correctly once reset.
  Database db = GraphDatabase(CompleteGraph(80));
  auto q = ParseConjunctive("g(x, w) :- E(x, y), E(y, z), E(z, w).")
               .ValueOrDie();
  const Relation expected = Engine(db).Run(q).ValueOrDie();
  ASSERT_EQ(expected.size(), 6400u);
  QueryContext qctx;
  EngineOptions options;
  options.threads = 4;
  options.morsel_rows = 64;
  options.query_ctx = &qctx;
  Engine engine(db, options);
  qctx.Cancel();
  EXPECT_EQ(engine.Run(q).status().code(), StatusCode::kCancelled);
  for (int delay_ms : {0, 2, 5, 10, 20, 40}) {
    SCOPED_TRACE(delay_ms);
    qctx.Reset();
    std::thread canceller([&qctx, delay_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      qctx.Cancel();
    });
    auto out = engine.Run(q);
    canceller.join();
    if (out.ok()) {
      EXPECT_TRUE(out.value().data() == expected.data());
    } else {
      EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
    }
  }
  qctx.Reset();
  EXPECT_TRUE(engine.Run(q).ValueOrDie().data() == expected.data());
}

// --- Deterministic work ---------------------------------------------------

// Sum of actual_rows over the distinct Semijoin nodes of a plan DAG.
uint64_t SemijoinRows(const PlanNode& n, std::vector<const PlanNode*>* seen) {
  if (std::find(seen->begin(), seen->end(), &n) != seen->end()) return 0;
  seen->push_back(&n);
  uint64_t rows = n.op == PlanOp::kSemijoin ? n.actual_rows : 0;
  for (const PlanNodePtr& c : n.children) rows += SemijoinRows(*c, seen);
  return rows;
}

TEST(JoinProjectTest, RowsProducedHasNoJoinIntermediate) {
  // The 2-path produces its answer and nothing else: no semijoin (the root
  // join drops dangling tuples itself), no materialized (x, y, z) join, no
  // projection pass.
  auto q = ParseConjunctive("g(x, z) :- R0(x, y), R1(y, z).").ValueOrDie();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Database db = RandomBinaryDatabase(2, 20000, 4000, seed);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed
                                      << " threads=" << threads);
      PhysicalPlan plan = PlanAcyclicCq(db, q).ValueOrDie();
      TaskScheduler scheduler(threads);
      PlanStats stats;
      NamedRelation bindings =
          ExecutePhysicalPlan(plan, {}, &stats, RuntimeOptions{&scheduler})
              .ValueOrDie();
      std::vector<const PlanNode*> seen;
      const uint64_t semijoin_rows = SemijoinRows(*plan.root, &seen);
      EXPECT_EQ(semijoin_rows, 0u);
      EXPECT_EQ(stats.semijoins, 0u);
      EXPECT_EQ(stats.joins, 1u);
      EXPECT_EQ(stats.projections, 0u);
      EXPECT_EQ(plan.root->actual_rows, bindings.size());
      EXPECT_EQ(stats.rows_produced, bindings.size());
      EXPECT_EQ(bindings.size(), AcyclicEvaluate(db, q).ValueOrDie().size());
    }
  }
}

}  // namespace
}  // namespace paraquery
