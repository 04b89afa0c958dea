// The fused join-count (a kHashJoin whose attrs end with #count): the
// counting planner emits it for each hypertree bag whose join is a binary
// chain, summing the bag's private variables out inside the join, and
// folds a child bag's join-count in as its weight, so that neither bag is
// materialized. Covered here: differentials against the unfused
// enumerate-then-count plan and against brute-force counting over cycle
// shapes, group heads, dense and sparse keys, empty and duplicate-holding
// inputs, byte-identical at every width; hand-built plans against
// Aggregate(HashJoin) and SemijoinCount; a deterministic work bound; the
// resource guards; and the EXPLAIN surface.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/query_context.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "eval/counting.hpp"
#include "eval/naive.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"
#include "query/parser.hpp"
#include "runtime/scheduler.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

struct Width {
  size_t threads;
  size_t morsel_rows;
};
const Width kWidths[] = {{1, kDefaultMorselRows},
                         {4, kDefaultMorselRows},
                         {4, 64}};

const char* const kCycle4 = "R0(x, y), R1(y, z), R2(z, w), R3(w, x).";

// The fused join-count nodes of a plan DAG, each once.
void JoinCounts(const PlanNode& n, std::vector<const PlanNode*>* out) {
  if (IsJoinCount(n) &&
      std::find(out->begin(), out->end(), &n) == out->end()) {
    out->push_back(&n);
  }
  for (const PlanNodePtr& c : n.children) JoinCounts(*c, out);
}

// COUNT by brute force: the distinct body-variable assignments of `q`
// (backtracking), grouped by the head.
Relation BruteCount(const Database& db, const ConjunctiveQuery& q) {
  ConjunctiveQuery e = q;
  e.answer = AnswerSpec::Tuples();
  e.head.clear();
  const std::vector<VarId> body = q.BodyVariables();
  for (VarId v : body) e.head.push_back(Term::Var(v));
  std::vector<int> gcols;
  for (const Term& t : q.head) {
    gcols.push_back(static_cast<int>(
        std::find(body.begin(), body.end(), t.var()) - body.begin()));
  }
  return GroupCountRows(BacktrackEvaluateCq(db, e).ValueOrDie(), gcols);
}

// Runs `q` on the counting route at every width and checks: the plan
// carries `fused` join-counts; the answers are byte-identical across
// widths and equal the unfused enumerate-then-count plan's and the brute
// force count's.
void CheckCount(const Database& db, const std::string& text, size_t fused) {
  SCOPED_TRACE(text);
  const ConjunctiveQuery q = ParseConjunctive(text).ValueOrDie();
  PhysicalPlan plan = PlanCountingCq(db, q).ValueOrDie();
  std::vector<const PlanNode*> counts;
  JoinCounts(*plan.root, &counts);
  EXPECT_EQ(counts.size(), fused) << plan.Render();
  std::vector<Relation> answers;
  for (const Width& w : kWidths) {
    TaskScheduler scheduler(w.threads);
    EvalContext ctx;
    ctx.runtime = RuntimeOptions{&scheduler, w.morsel_rows};
    answers.push_back(CountingEvaluate(db, q, ctx).ValueOrDie());
  }
  for (const Relation& a : answers) {
    EXPECT_TRUE(a.data() == answers[0].data());
  }
  EvalContext unfused;
  unfused.planner.wcoj = false;  // enumerate the assignments, then count
  EXPECT_TRUE(CountingEvaluate(db, q, unfused).ValueOrDie().data() ==
              answers[0].data());
  const Relation brute = BruteCount(db, q);
  EXPECT_TRUE(brute.data() == answers[0].data())
      << "fused=" << answers[0].size() << " brute=" << brute.size();
}

// A copy of `db` with every value v of R0..R3 replaced by codes[v]: an
// injective map, so every count is unchanged and each group key maps.
Database Recode(const Database& db, const std::vector<Value>& codes) {
  Database out;
  for (const char* name : {"R0", "R1", "R2", "R3"}) {
    const Relation& in = db.relation(db.FindRelation(name).ValueOrDie());
    RelId id = out.AddRelation(name, 2).ValueOrDie();
    for (size_t r = 0; r < in.size(); ++r) {
      out.relation(id).Add({codes.at(in.At(r, 0)), codes.at(in.At(r, 1))});
    }
  }
  return out;
}

const std::vector<std::string> kQueries = {
    std::string("COUNT(*) :- ") + kCycle4,
    std::string("COUNT(x) :- ") + kCycle4,
    std::string("COUNT(y, w) :- ") + kCycle4,
    std::string("COUNT(w, y) :- ") + kCycle4,
};
// The join-counts each of kQueries plans. COUNT(*): each bag sums out its
// private variable and one is the other's weight. COUNT(x): x rides up from
// its bag, which then has no private variable and folds into the root's
// join-count through a SemijoinCount. COUNT(y, w) and COUNT(w, y): with
// variables numbered in order of first appearance the decomposition puts y
// and w in different bags, so no bag has a private variable.
const size_t kFused[] = {2, 1, 0, 0};

TEST(JoinCountTest, CyclesMatchUnfusedAndBruteForceAtEveryWidth) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    Database db = RandomBinaryDatabase(4, 300, 25, seed);
    for (size_t i = 0; i < kQueries.size(); ++i) {
      CheckCount(db, kQueries[i], kFused[i]);
    }
    // Three bags: both end bags sum out a private variable; the middle one
    // keeps all of its variables.
    CheckCount(db,
               "COUNT(*) :- R0(a, b), R1(b, c), R2(c, d), R3(d, e), "
               "R0(e, a).",
               2);
  }
}

TEST(JoinCountTest, BagWithProjectedCoverEdge) {
  // The 4-cycle's second bag {w, x, y} is covered by R3, R0 and R2
  // projected to w (a cover edge homed in the other bag).
  Database db = RandomBinaryDatabase(4, 300, 25, 4);
  const ConjunctiveQuery q =
      ParseConjunctive(std::string("COUNT(*) :- ") + kCycle4).ValueOrDie();
  PhysicalPlan plan = PlanCountingCq(db, q).ValueOrDie();
  const std::string render = plan.Render();
  EXPECT_NE(render.find("Project(w)"), std::string::npos) << render;
  EXPECT_EQ(render.find("Semijoin"), std::string::npos) << render;
  CheckCount(db, kQueries[0], 2);
}

TEST(JoinCountTest, SparseKeysMatchDenseKeys) {
  // Dictionary codes (>= 2^62), negative values and the int64 extremes:
  // every key range is too wide for an array, so each kernel takes its
  // RowIndex and sorted-entry paths, with the answers of the dense run.
  const Value kMin = std::numeric_limits<Value>::min();
  const Value kMax = std::numeric_limits<Value>::max();
  std::vector<Value> codes = {kMin, kMax, -1, 0};
  for (Value v = 4; v < 25; ++v) {
    codes.push_back(v % 2 == 0 ? (Value{1} << 62) + v : -1000003 * v);
  }
  for (uint64_t seed = 5; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Database dense = RandomBinaryDatabase(4, 300, 25, seed);
    Database sparse = Recode(dense, codes);
    for (size_t i = 0; i < kQueries.size(); ++i) {
      const std::string& text = kQueries[i];
      CheckCount(sparse, text, kFused[i]);
      const ConjunctiveQuery q = ParseConjunctive(text).ValueOrDie();
      Relation a = CountingEvaluate(dense, q).ValueOrDie();
      Relation b = CountingEvaluate(sparse, q).ValueOrDie();
      ASSERT_EQ(a.size(), b.size());
      Value total_a = 0, total_b = 0;
      for (size_t r = 0; r < a.size(); ++r) {
        total_a += a.At(r, a.arity() - 1);
        total_b += b.At(r, b.arity() - 1);
      }
      EXPECT_EQ(total_a, total_b);
    }
    TaskScheduler scheduler(4);
    PlanStats stats;
    EvalContext ctx;
    ctx.runtime = RuntimeOptions{&scheduler, 64};
    CountingEvaluate(sparse, ParseConjunctive(kQueries[0]).ValueOrDie(), ctx,
                     &stats)
        .ValueOrDie();
    EXPECT_EQ(stats.dense_keys, 0u);
  }
}

TEST(JoinCountTest, EmptyAndDuplicateHoldingInputs) {
  Database db = RandomBinaryDatabase(4, 200, 20, 7);
  // Stored duplicates: the answer counts distinct assignments.
  RelId r1 = db.FindRelation("R1").ValueOrDie();
  const Relation copy = db.relation(r1);
  for (size_t r = 0; r < copy.size(); r += 3) {
    db.relation(r1).Add(copy.Row(r));
  }
  for (size_t i = 0; i < kQueries.size(); ++i) {
    CheckCount(db, kQueries[i], kFused[i]);
  }
  // An empty relation on either side of either bag: COUNT(*) is 0, a
  // grouped count has no rows.
  for (const char* name : {"R0", "R1", "R2", "R3"}) {
    SCOPED_TRACE(name);
    Database empty = RandomBinaryDatabase(4, 200, 20, 8);
    empty.relation(empty.FindRelation(name).ValueOrDie()).Clear();
    for (size_t i = 0; i < kQueries.size(); ++i) {
      CheckCount(empty, kQueries[i], kFused[i]);
    }
    const ConjunctiveQuery q = ParseConjunctive(kQueries[0]).ValueOrDie();
    Relation zero = CountingEvaluate(empty, q).ValueOrDie();
    ASSERT_EQ(zero.size(), 1u);
    EXPECT_EQ(zero.At(0, 0), 0);
  }
}

// --- Hand-built plans -------------------------------------------------------

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

// Executes `fused` and `reference` over `inputs` at every width: the fused
// output is byte-identical across widths and holds the reference's rows.
void CheckAgainst(const PlanNodePtr& fused, const PlanNodePtr& reference,
                  const std::vector<const NamedRelation*>& inputs) {
  ASSERT_TRUE(IsJoinCount(*fused));
  auto expected = ExecutePlan(*reference, ExecContext{inputs});
  ASSERT_TRUE(expected.ok()) << expected.status();
  std::vector<NamedRelation> outs;
  for (const Width& w : kWidths) {
    TaskScheduler scheduler(w.threads);
    ExecContext ctx{inputs, {}, nullptr, RuntimeOptions{&scheduler,
                                                        w.morsel_rows}};
    auto out = ExecutePlan(*fused, ctx);
    ASSERT_TRUE(out.ok()) << out.status();
    outs.push_back(std::move(out).value());
  }
  ASSERT_EQ(outs[0].attrs(), expected.value().attrs());
  EXPECT_TRUE(outs[0].rel().EqualsAsSet(expected.value().rel()));
  EXPECT_EQ(outs[0].size(), expected.value().size());
  for (const NamedRelation& o : outs) {
    EXPECT_TRUE(o.rel().data() == outs[0].rel().data());
  }
}

PlanNodePtr ScanOf(int slot, const NamedRelation& r) {
  return MakeScan(slot, r.attrs(), "S" + std::to_string(slot),
                  static_cast<double>(r.size()));
}

TEST(JoinCountTest, HandBuiltPlansMatchAggregateOverJoin) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    NamedRelation xwy = RandomRel({0, 3, 1}, 600, 15, seed);
    NamedRelation xy = RandomRel({0, 1}, 400, 20, seed + 10);
    NamedRelation yz = RandomRel({1, 2}, 400, 20, seed + 20);
    NamedRelation yzv = RandomRel({1, 2, 4}, 500, 12, seed + 30);
    NamedRelation z = RandomRel({2}, 10, 20, seed + 40);
    struct Case {
      const NamedRelation* left;
      const NamedRelation* right;
      std::vector<AttrId> group;
    };
    const Case cases[] = {
        {&xy, &yz, {0, 2}},      // sum out the join column
        {&xy, &yz, {2, 0}},      // right column first
        {&xy, &yz, {0}},         // nothing kept from the right
        {&xy, &yz, {2}},         // nothing kept from the left
        {&xy, &yz, {}},          // scalar
        {&xy, &yz, {0, 1, 2}},   // nothing summed out
        {&xwy, &yz, {0, 2}},     // unkept, unjoined left column
        {&xy, &yzv, {0, 2, 4}},  // two kept right columns
        {&xy, &yzv, {4}},        // unkept, unjoined right column
        {&xy, &z, {0, 2}},       // no join column: a counted product
    };
    for (const Case& c : cases) {
      std::vector<const NamedRelation*> inputs = {c.left, c.right};
      CheckAgainst(
          MakeJoinCount(ScanOf(0, *c.left), ScanOf(1, *c.right), c.group),
          MakeAggregate(MakeHashJoin(ScanOf(0, *c.left), ScanOf(1, *c.right)),
                        c.group),
          inputs);
    }
  }
}

TEST(JoinCountTest, WeightMatchesSemijoinCount) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    // Both joins group by y from their left side and keep w from the right.
    NamedRelation yz = RandomRel({1, 2}, 400, 20, seed);
    NamedRelation zw = RandomRel({2, 3}, 400, 20, seed + 10);
    NamedRelation yx = RandomRel({1, 0}, 400, 20, seed + 20);
    NamedRelation xw = RandomRel({0, 3}, 400, 20, seed + 30);
    std::vector<const NamedRelation*> inputs = {&yz, &zw, &yx, &xw};
    for (std::vector<AttrId> group : {std::vector<AttrId>{1, 3},
                                      std::vector<AttrId>{3, 1}}) {
      auto weight = [&] {
        return MakeJoinCount(ScanOf(2, yx), ScanOf(3, xw), group);
      };
      PlanNodePtr fused = MakeJoinCount(ScanOf(0, yz), ScanOf(1, zw), group,
                                        weight());
      PlanNodePtr reference = MakeSemijoinCount(
          MakeJoinCount(ScanOf(0, yz), ScanOf(1, zw), group), weight());
      CheckAgainst(fused, reference, inputs);
    }
  }
}

// --- Work bound -------------------------------------------------------------

TEST(JoinCountTest, PeakStaysAtInputsPlusInterface) {
  // R1 and R2 are full over y, w in [0, 10) and z in [0, 100): the bag
  // {y, z, w} joins to 10,000 rows but has 100 interface pairs (y, w). R0
  // and R3 are full over x in [0, 5). The plan must never hold the bag.
  Database db;
  auto add = [&db](const char* name, Value a_n, Value b_n) {
    RelId id = db.AddRelation(name, 2).ValueOrDie();
    for (Value a = 0; a < a_n; ++a) {
      for (Value b = 0; b < b_n; ++b) db.relation(id).Add({a, b});
    }
    return a_n * b_n;
  };
  const Value inputs = add("R0", 5, 10) + add("R1", 10, 100) +
                       add("R2", 100, 10) + add("R3", 10, 5);
  const ConjunctiveQuery q =
      ParseConjunctive(std::string("COUNT(*) :- ") + kCycle4).ValueOrDie();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    TaskScheduler scheduler(threads);
    EvalContext ctx;
    ctx.runtime = RuntimeOptions{&scheduler};
    PlanStats stats;
    Relation out = CountingEvaluate(db, q, ctx, &stats).ValueOrDie();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out.At(0, 0), 5 * 10 * 100 * 10);
    EXPECT_LE(stats.peak_intermediate_rows, static_cast<size_t>(inputs) + 100);
    EXPECT_LT(stats.peak_intermediate_rows, 10000u);
  }
}

// --- Resource guards --------------------------------------------------------

// L(k, a) and R(k, b) with one shared key value: the join has |L|·|R| rows,
// counted through one key run per left row.
NamedRelation Fan(AttrId k, AttrId a, Value rows) {
  NamedRelation out{{k, a}};
  for (Value v = 0; v < rows; ++v) out.rel().Add({0, v});
  return out;
}

TEST(JoinCountTest, OverflowingCountIsOutOfRange) {
  // Two joins of 2^16 x 2^16 rows each, multiplied: 2^64 overflows; with
  // one side halved twice the product is 2^62 and exact.
  for (bool halve : {false, true}) {
    SCOPED_TRACE(halve);
    const Value n = Value{1} << 16, h = halve ? n / 4 : n;
    NamedRelation l = Fan(0, 1, h), r = Fan(0, 2, n);
    NamedRelation l2 = Fan(0, 3, n), r2 = Fan(0, 4, n);
    std::vector<const NamedRelation*> inputs = {&l, &r, &l2, &r2};
    for (std::vector<AttrId> group : {std::vector<AttrId>{0},
                                      std::vector<AttrId>{}}) {
      PlanNodePtr plan = MakeJoinCount(
          ScanOf(0, l), ScanOf(1, r), group,
          MakeJoinCount(ScanOf(2, l2), ScanOf(3, r2), group));
      for (size_t threads : {size_t{1}, size_t{4}}) {
        TaskScheduler scheduler(threads);
        ExecContext ctx{inputs, {}, nullptr, RuntimeOptions{&scheduler}};
        auto out = ExecutePlan(*plan, ctx);
        if (!halve) {
          ASSERT_FALSE(out.ok());
          EXPECT_EQ(out.status().code(), StatusCode::kOutOfRange);
        } else {
          ASSERT_TRUE(out.ok()) << out.status();
          ASSERT_EQ(out.value().size(), 1u);
          EXPECT_EQ(out.value().rel().At(0, group.size()), Value{1} << 62);
        }
      }
    }
  }
}

TEST(JoinCountTest, RowLimitStopsTheKernel) {
  // COUNT(y, w) over the full bag of the work-bound test has 100 groups.
  NamedRelation yz{{1, 2}}, zw{{2, 3}};
  for (Value a = 0; a < 10; ++a) {
    for (Value b = 0; b < 100; ++b) {
      yz.rel().Add({a, b});
      zw.rel().Add({b, a});
    }
  }
  std::vector<const NamedRelation*> inputs = {&yz, &zw};
  PlanNodePtr plan = MakeJoinCount(ScanOf(0, yz), ScanOf(1, zw), {1, 3});
  for (const Width& w : kWidths) {
    TaskScheduler scheduler(w.threads);
    ResourceLimits limits;
    limits.max_rows = 99;
    ExecContext ctx{inputs, limits, nullptr,
                    RuntimeOptions{&scheduler, w.morsel_rows}};
    auto out = ExecutePlan(*plan, ctx);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(out.status().message().find("join-count output exceeds"),
              std::string::npos)
        << out.status();
    ctx.limits.max_rows = 100;
    auto exact = ExecutePlan(*plan, ctx);
    ASSERT_TRUE(exact.ok()) << exact.status();
    EXPECT_EQ(exact.value().size(), 100u);
  }
}

TEST(JoinCountTest, CancellationFailsCleanly) {
  Database db = RandomBinaryDatabase(4, 20000, 2000, 9);
  const ConjunctiveQuery q =
      ParseConjunctive(std::string("COUNT(y, w) :- ") + kCycle4).ValueOrDie();
  const Relation expected = Engine(db).Run(q).ValueOrDie();
  QueryContext qctx;
  EngineOptions options;
  options.threads = 4;
  options.morsel_rows = 64;
  options.query_ctx = &qctx;
  Engine engine(db, options);
  qctx.Cancel();
  EXPECT_EQ(engine.Run(q).status().code(), StatusCode::kCancelled);
  for (int delay_ms : {0, 1, 2, 5, 10}) {
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

// --- EXPLAIN ----------------------------------------------------------------

TEST(JoinCountTest, AnalyzeShowsTheFusedNodesAndTheirGroups) {
  Database db = RandomBinaryDatabase(4, 3000, 300, 6);
  Engine engine(db);
  const std::string analyzed =
      engine.AnalyzeText(std::string("COUNT(*) :- ") + kCycle4).ValueOrDie();
  EXPECT_NE(analyzed.find("HashJoin(y, w, #count) count-out(z) "),
            std::string::npos)
      << analyzed;
  EXPECT_NE(analyzed.find("HashJoin(y, w, #count) count-out(x) "),
            std::string::npos)
      << analyzed;
  EXPECT_EQ(analyzed.find("Semijoin"), std::string::npos) << analyzed;
  // The root join-count's actual rows are its groups: the (y, w) pairs
  // with a nonzero count.
  const Relation answer =
      engine.RunText(std::string("COUNT(y, w) :- ") + kCycle4).ValueOrDie();
  EXPECT_NE(analyzed.find("count-out(z) est="), std::string::npos);
  const size_t at = analyzed.find("count-out(z) est=");
  const size_t actual = analyzed.find(" actual=", at);
  ASSERT_NE(actual, std::string::npos);
  EXPECT_EQ(std::stoull(analyzed.substr(actual + 8)), answer.size())
      << analyzed;
}

}  // namespace
}  // namespace paraquery
