// Tests for the parallel runtime (src/runtime/): scheduler mechanics
// (nesting, cancellation, error capture, clean shutdown), morsel-parallel
// operator equivalence with the sequential kernels, and the headline
// guarantee — engine results at N threads are byte-identical to 1 thread
// across randomized CQ/UCQ/Datalog workloads, with resource limits still
// enforced under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "core/engine.hpp"
#include "plan/executor.hpp"
#include "query/parser.hpp"
#include "relational/ops.hpp"
#include "relational/row_index.hpp"
#include "runtime/parallel_ops.hpp"
#include "runtime/scheduler.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

// ---------------------------------------------------------------------------
// Scheduler mechanics.
// ---------------------------------------------------------------------------

TEST(TaskSchedulerTest, ParallelChunksCoversEveryIndexOnce) {
  TaskScheduler scheduler(4);
  std::vector<std::atomic<int>> hits(1000);
  RuntimeOptions runtime{&scheduler, 16};
  size_t chunks = ParallelChunks(runtime.scheduler, hits.size(), 16,
                                 [&](size_t, size_t begin, size_t end) {
                                   for (size_t i = begin; i < end; ++i) {
                                     hits[i].fetch_add(1);
                                   }
                                 });
  EXPECT_EQ(chunks, ChunkCount(hits.size(), 16));
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskSchedulerTest, NestedGroupsComplete) {
  TaskScheduler scheduler(4);
  std::atomic<int> total{0};
  TaskGroup outer(&scheduler);
  for (int i = 0; i < 8; ++i) {
    outer.Spawn([&scheduler, &total] {
      TaskGroup inner(&scheduler);
      for (int j = 0; j < 8; ++j) {
        inner.Spawn([&total] { total.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(total.load(), 64);
}

TEST(TaskSchedulerTest, RecordErrorKeepsFirstAndCancels) {
  TaskScheduler scheduler(2);
  TaskGroup group(&scheduler);
  group.RecordError(Status::ResourceExhausted("first"));
  group.RecordError(Status::Internal("second"));
  EXPECT_TRUE(group.cancelled());
  // Cancelled tasks are dropped without running.
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    group.Spawn([&ran] { ran.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(group.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(group.status().message(), "first");
}

TEST(TaskSchedulerTest, CleanShutdownAfterErrors) {
  // Pools torn down right after error-path work must not hang or leak
  // wakeups: exercise construct → fail → destruct repeatedly.
  for (int round = 0; round < 10; ++round) {
    TaskScheduler scheduler(4);
    TaskGroup group(&scheduler);
    for (int i = 0; i < 32; ++i) {
      group.Spawn([&group, i] {
        if (i % 3 == 0) {
          group.RecordError(Status::Internal("task failed"));
        }
      });
    }
    group.Wait();
    EXPECT_FALSE(group.status().ok());
  }  // scheduler destructor joins the workers every round
}

TEST(TaskSchedulerTest, NullAndWidthOneRunInline) {
  int ran = 0;
  TaskGroup null_group(nullptr);
  null_group.Spawn([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);  // already ran: Spawn is inline without a scheduler
  TaskScheduler one(1);
  TaskGroup one_group(&one);
  one_group.Spawn([&ran] { ++ran; });
  EXPECT_EQ(ran, 2);
}

// ---------------------------------------------------------------------------
// Morsel-parallel operators vs the sequential kernels.
// ---------------------------------------------------------------------------

NamedRelation RandomRelation(std::vector<AttrId> attrs, size_t rows,
                             Value domain, uint64_t seed) {
  Rng rng(seed);
  NamedRelation out{std::move(attrs)};
  ValueVec row(out.arity());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < out.arity(); ++c) {
      row[c] = rng.Range(0, domain - 1);
    }
    out.rel().Add(row);
  }
  return out;
}

// Byte-identical: same attrs, same rows in the same order.
void ExpectIdentical(const NamedRelation& a, const NamedRelation& b) {
  ASSERT_EQ(a.attrs(), b.attrs());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.rel().data(), b.rel().data());
}

TEST(ParallelOpsTest, OperatorsMatchSequentialKernels) {
  TaskScheduler scheduler(4);
  RuntimeOptions runtime{&scheduler, /*morsel_rows=*/64};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    NamedRelation left = RandomRelation({0, 1}, 700, 40, seed);
    NamedRelation right = RandomRelation({1, 2}, 500, 40, seed + 100);

    Predicate pred;
    pred.Add(Constraint::NeqCols(0, 1));
    pred.Add(Constraint::LtConst(0, 30));
    ExpectIdentical(ParallelSelect(left, pred, runtime), Select(left, pred));

    ExpectIdentical(ParallelProject(left, {1}, /*dedup=*/true, runtime),
                    Project(left, {1}, /*dedup=*/true));
    ExpectIdentical(ParallelProject(left, {1, 0}, /*dedup=*/false, runtime),
                    Project(left, {1, 0}, /*dedup=*/false));

    RowIndex idx(right.rel(), JoinKeyColumns(left, right));
    ExpectIdentical(ParallelJoin(left, right, idx, runtime),
                    NaturalJoin(left, right, idx).ValueOrDie());

    ExpectIdentical(ParallelSemijoin(left, right, runtime),
                    Semijoin(left, right));
    // All-survivors path stays zero-copy.
    NamedRelation all = ParallelSemijoin(left, left.WithAttrs({0, 1}),
                                         runtime);
    EXPECT_TRUE(all.rel().SharesStorageWith(left.rel()));
  }
}

TEST(ParallelOpsTest, ProjectDedupIsPartitionedAndWidthIndependent) {
  // 20k rows projected onto a 900-value domain: the merged projection is
  // past HashDedup's partitioned-path threshold (8192 rows) and full of
  // duplicates, so the parallel dedup really runs.
  NamedRelation in = RandomRelation({0, 1, 2}, 20000, 30, 7);
  const NamedRelation expected = Project(in, {2, 0}, /*dedup=*/true);
  ASSERT_LT(expected.size(), 1000u);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    TaskScheduler scheduler(threads);
    RuntimeOptions runtime{&scheduler, /*morsel_rows=*/1024};
    size_t morsels = 0;
    ExpectIdentical(
        ParallelProject(in, {2, 0}, /*dedup=*/true, runtime, &morsels),
        expected);
    EXPECT_EQ(morsels, 20u);
  }
}

// ---------------------------------------------------------------------------
// Determinism: engine results at N threads == 1 thread, byte for byte.
// ---------------------------------------------------------------------------

Engine MakeEngine(const Database& db, size_t threads) {
  EngineOptions options;
  options.threads = threads;
  options.morsel_rows = 32;  // small morsels so tiny test inputs parallelize
  return Engine(db, options);
}

void ExpectSameRelation(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.arity(), b.arity());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.data(), b.data());
}

TEST(RuntimeDeterminismTest, RandomizedCqWorkloads) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Database db = RandomBinaryDatabase(3, 120, 25, seed);
    for (int neq = 0; neq <= 2; ++neq) {
      ConjunctiveQuery q = RandomAcyclicNeqQuery(3, 4, neq, seed * 13 + neq);
      auto sequential = MakeEngine(db, 1).Run(q);
      auto parallel = MakeEngine(db, 4).Run(q);
      ASSERT_TRUE(sequential.ok()) << sequential.status();
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      ExpectSameRelation(sequential.value(), parallel.value());
    }
  }
}

TEST(RuntimeDeterminismTest, CyclicCqWorkloads) {
  Database db = RandomBinaryDatabase(1, 300, 18, 7);
  const char* queries[] = {
      "ans(x) :- R0(x,y), R0(y,z), R0(z,x).",
      "ans(x, w) :- R0(x,y), R0(y,z), R0(z,w), R0(w,x), x != z.",
      "p() :- R0(x,y), R0(y,z), R0(z,x), x != y, y != z.",
  };
  for (const char* text : queries) {
    auto q = ParseConjunctive(text).ValueOrDie();
    auto sequential = MakeEngine(db, 1).Run(q);
    auto parallel = MakeEngine(db, 4).Run(q);
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectSameRelation(sequential.value(), parallel.value());
  }
}

TEST(RuntimeDeterminismTest, UcqWorkloads) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Database db = RandomBinaryDatabase(2, 150, 20, seed);
    const char* queries[] = {
        "ans(x) := exists y . (R0(x, y) or R1(y, x) or R0(y, x)).",
        "ans(x, y) := R0(x, y) or (exists z . (R0(x, z) and R1(z, y))).",
    };
    for (const char* text : queries) {
      auto sequential = MakeEngine(db, 1).RunText(text);
      auto parallel = MakeEngine(db, 4).RunText(text);
      ASSERT_TRUE(sequential.ok()) << sequential.status();
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      ExpectSameRelation(sequential.value(), parallel.value());
    }
  }
}

TEST(RuntimeDeterminismTest, DatalogWorkloads) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Database db = RandomBinaryDatabase(1, 90, 30, seed);
    // TransitiveClosureProgram expects the edge relation to be named E.
    Database edges;
    RelId e = edges.AddRelation("E", 2).ValueOrDie();
    const Relation& r0 = db.relation(0);
    for (size_t r = 0; r < r0.size(); ++r) edges.relation(e).Add(r0.Row(r));

    auto sequential = MakeEngine(edges, 1).Run(TransitiveClosureProgram());
    auto parallel = MakeEngine(edges, 4).Run(TransitiveClosureProgram());
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectSameRelation(sequential.value(), parallel.value());

    // A multi-rule program whose per-round firings actually overlap.
    const char* program =
        "p(x, y) :- E(x, y).\n"
        "q(x, y) :- E(y, x).\n"
        "p(x, y) :- p(x, z), q(y, z).\n"
        "q(x, y) :- q(x, z), p(z, y).\n"
        "@goal p.\n";
    auto seq2 = MakeEngine(edges, 1).RunText(program);
    auto par2 = MakeEngine(edges, 4).RunText(program);
    ASSERT_TRUE(seq2.ok()) << seq2.status();
    ASSERT_TRUE(par2.ok()) << par2.status();
    ExpectSameRelation(seq2.value(), par2.value());
  }
}

TEST(RuntimeDeterminismTest, ParallelRunsReportRuntimeStats) {
  Database db = RandomBinaryDatabase(1, 500, 10, 3);
  Engine engine = MakeEngine(db, 4);
  // A 3-path: its reducer's semijoins have non-scan right children, which
  // run as tasks.
  auto q = ParseConjunctive("ans(x, w) :- R0(x, y), R0(y, z), R0(z, w).")
               .ValueOrDie();
  ASSERT_TRUE(engine.Run(q).ok());
  EXPECT_GT(engine.last_stats().plan.morsels, 0u);
  EXPECT_GT(engine.last_stats().plan.parallel_tasks, 0u);
  EXPECT_GT(engine.last_stats().plan.wall_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Limits under concurrency; shutdown on error paths.
// ---------------------------------------------------------------------------

TEST(RuntimeLimitsTest, StepLimitFiresUnderConcurrency) {
  Database db = GraphDatabase(CompleteGraph(18));
  EngineOptions options;
  options.threads = 4;
  options.morsel_rows = 32;
  options.limits.max_steps = 100;
  Engine engine(db, options);
  auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  EXPECT_EQ(engine.Run(q).status().code(), StatusCode::kResourceExhausted);
}

TEST(RuntimeLimitsTest, DatalogRowLimitFiresUnderConcurrency) {
  Database db = GraphDatabase(CompleteGraph(12));
  EngineOptions options;
  options.threads = 4;
  options.limits.max_rows = 20;
  Engine engine(db, options);
  auto result = engine.RunText(
      "tc(x, y) :- E(x, y).\n"
      "tc(x, y) :- E(x, z), tc(z, y).\n");
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// The speculative-limits accounting fix: the right subtree of a join runs
// speculatively under a scheduler before the left side's emptiness is
// known, but its rows are charged TENTATIVELY and dropped when the
// short-circuit fires — so a query that passes limits at threads=1 never
// fails them at threads=N.
TEST(RuntimeLimitsTest, SpeculativeWorkIsNotChargedOnShortCircuit) {
  // Plan: HashJoin( Scan(empty), HashJoin(Scan(B1), Scan(B2)) ).
  // Sequentially the big right join never runs (left is empty) and the
  // execution produces 0 rows; speculatively it produces ~400 rows, far
  // past max_steps = 50.
  NamedRelation empty({0});
  NamedRelation b1({1, 2});
  NamedRelation b2({2, 3});
  for (Value v = 0; v < 20; ++v) {
    for (Value w = 0; w < 20; ++w) b1.rel().Add({v, w});
    b2.rel().Add({v, v});
  }
  // The Project above the join accounts AFTER the short-circuit: before the
  // fix it saw the speculative 400 rows in the shared budget and errored.
  auto make_plan = [&] {
    return MakeProject(
        MakeHashJoin(
            MakeScan(0, {0}, "empty", 0.0),
            MakeHashJoin(MakeScan(1, {1, 2}, "B1", 400.0),
                         MakeScan(2, {2, 3}, "B2", 20.0))),
        {0}, /*dedup=*/false);
  };
  std::vector<const NamedRelation*> inputs = {&empty, &b1, &b2};
  ResourceLimits limits;
  limits.max_steps = 50;

  // threads = 1: the short-circuit skips the right join entirely.
  {
    PlanNodePtr plan = make_plan();
    ExecContext ctx{inputs, limits, nullptr, RuntimeOptions{}};
    auto result = ExecutePlan(*plan, ctx);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result.value().empty());
  }
  // threads = 4: the right join runs speculatively; its ~400 rows must be
  // rolled back, not charged (this failed before the accounting fix).
  TaskScheduler scheduler(4);
  for (int rep = 0; rep < 10; ++rep) {
    PlanNodePtr plan = make_plan();
    RuntimeOptions runtime{&scheduler, /*morsel_rows=*/64};
    PlanStats stats;
    ExecContext ctx{inputs, limits, &stats, runtime};
    auto result = ExecutePlan(*plan, ctx);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result.value().empty());
  }
}

TEST(RuntimeLimitsTest, CommittedSpeculativeWorkStillCounts) {
  // Same shape but the left side is NONEMPTY: the speculative subtree's
  // rows must be committed once consumed, and the limit must fire at every
  // width (the fix must not turn limits off).
  NamedRelation left({0, 1});
  left.rel().Add({0, 0});
  NamedRelation b1({1, 2});
  NamedRelation b2({2, 3});
  for (Value v = 0; v < 20; ++v) {
    for (Value w = 0; w < 20; ++w) b1.rel().Add({v, w});
    b2.rel().Add({v, v});
  }
  auto make_plan = [&] {
    return MakeHashJoin(
        MakeScan(0, {0, 1}, "L", 1.0),
        MakeHashJoin(MakeScan(1, {1, 2}, "B1", 400.0),
                     MakeScan(2, {2, 3}, "B2", 20.0)));
  };
  std::vector<const NamedRelation*> inputs = {&left, &b1, &b2};
  ResourceLimits limits;
  limits.max_steps = 50;
  {
    PlanNodePtr plan = make_plan();
    ExecContext ctx{inputs, limits, nullptr, RuntimeOptions{}};
    EXPECT_EQ(ExecutePlan(*plan, ctx).status().code(),
              StatusCode::kResourceExhausted);
  }
  TaskScheduler scheduler(4);
  {
    PlanNodePtr plan = make_plan();
    RuntimeOptions runtime{&scheduler, /*morsel_rows=*/64};
    ExecContext ctx{inputs, limits, nullptr, runtime};
    EXPECT_EQ(ExecutePlan(*plan, ctx).status().code(),
              StatusCode::kResourceExhausted);
  }
}

// Engine-level acceptance shape: a query whose plan contains an empty-left
// join with an expensive sibling passes tight limits at threads=1, so it
// must pass at threads=4 as well.
TEST(RuntimeLimitsTest, PassingQueryPassesAtAnyWidth) {
  Database db;
  RelId a = db.AddRelation("A", 2).ValueOrDie();
  RelId big = db.AddRelation("BIG", 2).ValueOrDie();
  (void)a;  // A stays empty
  for (Value v = 0; v < 40; ++v) {
    for (Value w = 0; w < 10; ++w) db.relation(big).Add({v, w});
  }
  // Cyclic-planner route (the order comparison forces it; ≠ alone would
  // route to color coding, which legitimately joins the BIG atoms before
  // consulting A): greedy order starts from the smallest (empty) atom, so
  // sequential execution is all short-circuit.
  auto q = ParseConjunctive(
               "ans(x) :- A(x, y), BIG(y, z), BIG(z, w), x < w.")
               .ValueOrDie();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EngineOptions options;
    options.threads = threads;
    options.morsel_rows = 16;
    options.limits.max_steps = 30;
    Engine engine(db, options);
    auto result = engine.Run(q);
    ASSERT_TRUE(result.ok())
        << "threads=" << threads << ": " << result.status();
    EXPECT_TRUE(result.value().empty());
  }
}

// Shared-DAG stress for the speculative accounting: the Theorem 2 eval DAG
// shares its pass-1 nodes between the committed left spine and speculative
// right subtrees, so a speculative budget error must never be cached into a
// node a committed consumer will read (the executor recomputes instead).
// Property: ANY max_steps that passes at threads=1 passes at threads=4.
TEST(RuntimeLimitsTest, SharedNodeSpeculationCannotPoisonLimits) {
  Database db = GraphDatabase(GnpRandom(60, 0.08, 9));
  auto q = ParseConjunctive(
               "ans(a, d) :- E(a, b), E(b, c), E(c, d), a != c, b != d.")
               .ValueOrDie();
  for (uint64_t steps : {uint64_t{30}, uint64_t{100}, uint64_t{400},
                         uint64_t{2000}, uint64_t{20000}}) {
    EngineOptions options;
    options.threads = 1;
    options.limits.max_steps = steps;
    Engine sequential(db, options);
    if (!sequential.Run(q).ok()) continue;  // fails sequentially too: fine
    options.threads = 4;
    options.morsel_rows = 16;
    Engine parallel(db, options);
    for (int rep = 0; rep < 5; ++rep) {
      auto result = parallel.Run(q);
      EXPECT_TRUE(result.ok())
          << "max_steps=" << steps << " rep=" << rep << ": "
          << result.status();
    }
  }
}

TEST(RuntimeLimitsTest, EngineSurvivesRepeatedErrorRuns) {
  // Error paths must leave the pool reusable and tear down cleanly when the
  // engine dies (the scheduler is owned by the engine).
  Database db = GraphDatabase(CompleteGraph(18));
  EngineOptions options;
  options.threads = 4;
  options.morsel_rows = 32;
  options.limits.max_steps = 50;
  auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    Engine engine(db, options);
    EXPECT_EQ(engine.Run(q).status().code(), StatusCode::kResourceExhausted);
    engine.options().limits.max_steps = 0;
    EXPECT_TRUE(engine.Run(q).ok());  // the same pool keeps working
  }
}

}  // namespace
}  // namespace paraquery
