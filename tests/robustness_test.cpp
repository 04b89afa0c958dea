// Failure injection and edge cases: every engine must degrade into a clean
// Status, never a crash or a wrong answer.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/query_context.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "eval/acyclic.hpp"
#include "eval/datalog_eval.hpp"
#include "eval/fo.hpp"
#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "graph/generators.hpp"
#include "hashing/coloring.hpp"
#include "hypergraph/hypergraph.hpp"
#include "query/parser.hpp"
#include "relational/csv.hpp"
#include "relational/named_relation.hpp"
#include "relational/predicate.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

TEST(RobustnessTest, MissingRelationIsNotFoundEverywhere) {
  Database db;
  db.AddRelation("A", 1).ValueOrDie();
  auto q = ParseConjunctive("p() :- Ghost(x).").ValueOrDie();
  EXPECT_EQ(NaiveCqNonempty(db, q).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(AcyclicNonempty(db, q).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(IneqNonempty(db, q).status().code(), StatusCode::kNotFound);
  Engine engine(db);
  EXPECT_EQ(engine.Run(q).status().code(), StatusCode::kNotFound);
}

TEST(RobustnessTest, ArityMismatchRejected) {
  Database db;
  db.AddRelation("R", 2).ValueOrDie();
  auto q = ParseConjunctive("p() :- R(x).").ValueOrDie();
  EXPECT_FALSE(NaiveCqNonempty(db, q).ok());
  EXPECT_FALSE(AcyclicNonempty(db, q).ok());
}

TEST(RobustnessTest, EmptyDatabaseEverywhere) {
  Database db;
  db.AddRelation("E", 2).ValueOrDie();
  auto q = ParseConjunctive("ans(x, y) :- E(x, y).").ValueOrDie();
  EXPECT_TRUE(NaiveEvaluateCq(db, q).ValueOrDie().empty());
  EXPECT_TRUE(AcyclicEvaluate(db, q).ValueOrDie().empty());
  EXPECT_TRUE(IneqEvaluate(db, q).ValueOrDie().empty());
  auto prog = ParseDatalog("tc(x,y) :- E(x,y). tc(x,y) :- E(x,z), tc(z,y).")
                  .ValueOrDie();
  EXPECT_TRUE(EvaluateDatalog(db, prog).ValueOrDie().empty());
}

TEST(RobustnessTest, ExtremeValuesSurviveHashingAndJoins) {
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  Value lo = std::numeric_limits<Value>::min();
  Value hi = std::numeric_limits<Value>::max();
  db.relation(r).Add({lo, hi});
  db.relation(r).Add({hi, lo});
  db.relation(r).Add({0, lo});
  auto q = ParseConjunctive("ans(x, z) :- R(x, y), R(y, z), x != z.")
               .ValueOrDie();
  IneqOptions certified;
  certified.driver = IneqOptions::Driver::kCertified;
  auto fpt = IneqEvaluate(db, q, {}, certified).ValueOrDie();
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(fpt.EqualsAsSet(naive));
}

TEST(RobustnessTest, ParserNeverCrashesOnGarbage) {
  const char* cases[] = {
      "", ".", ":-", "ans(", "ans(x) :-", "ans(x) :- R(x",
      "ans(x) :- R(x))", "ans(x) := exists", "p() := not", "@goal",
      "p() :- R(x), !", "p() :- R(x) R(y).", "((((", "p(x :- y)",
      "ans(x) := forall . E(x, x).", "p() :- 5(x).",
      "p() := exists and . E(and, or).",
  };
  for (const char* text : cases) {
    auto cq = ParseConjunctive(text);
    auto fo = ParseFirstOrder(text);
    auto dl = ParseDatalog(text);
    EXPECT_FALSE(cq.ok() && fo.ok() && dl.ok()) << text;
    // No crash is the actual assertion; statuses carry messages.
    if (!cq.ok()) {
      EXPECT_FALSE(cq.status().message().empty());
    }
  }
}

TEST(RobustnessTest, ParserFuzzMutations) {
  Rng rng(31337);
  std::string base = "ans(x, y) :- R(x, z), S(z, y), x != y, z < 5.";
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.Below(4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Below(mutated.size());
      char c = static_cast<char>(32 + rng.Below(95));
      if (rng.Chance(0.3)) {
        mutated.erase(pos, 1);
      } else {
        mutated[pos] = c;
      }
      if (mutated.empty()) break;
    }
    auto result = ParseConjunctive(mutated);  // must not crash
    if (result.ok()) {
      EXPECT_TRUE(result.value().Validate().ok()) << mutated;
    }
  }
}

TEST(RobustnessTest, RowLimitsSurfaceAsResourceExhausted) {
  // EngineOptions::limits must reach every route: on K40 (1560 edges) each
  // query below runs an operator whose output exceeds the 100-row cap.
  Database db = GraphDatabase(CompleteGraph(40));
  struct Route {
    const char* name;
    const char* text;
  };
  const Route routes[] = {
      {"acyclic", "ans(a, c) :- E(a, b), E(b, c)."},
      {"theorem2", "ans(a, c) :- E(a, b), E(b, c), a != c."},
      {"cyclic wcoj", "ans(x) :- E(x, y), E(y, z), E(z, x)."},
      {"cyclic <", "ans(x) :- E(x, y), E(y, z), E(z, x), x < y."},
      {"ucq cyclic disjunct",
       "ans(x) := exists y, z . ((E(x, y) and E(y, z) and E(z, x)) or "
       "E(x, x))."},
      {"count", "COUNT(*) :- E(a, b), E(b, c)."},
      {"datalog",
       "tc(x, y) :- E(x, y).\n"
       "tc(x, y) :- E(x, z), tc(z, y).\n"},
  };
  for (const Route& route : routes) {
    EngineOptions options;
    options.limits.max_rows = 100;
    Engine engine(db, options);
    EXPECT_EQ(engine.RunText(route.text).status().code(),
              StatusCode::kResourceExhausted)
        << route.name;
  }
}

TEST(RobustnessTest, CertifiedDriverFailsCleanlyOnHugeDomain) {
  // 5 inequality variables over a large domain: certification infeasible
  // within the given budget; the driver must report, not hang.
  Database db = RandomBinaryDatabase(1, 2000, 100000, 3);
  ConjunctiveQuery q = RandomAcyclicNeqQuery(1, 5, 6, 3);
  IneqOptions certified;
  certified.driver = IneqOptions::Driver::kCertified;
  certified.certified_max_subsets = 1000;
  auto result = IneqNonempty(db, q, {}, certified);
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(RobustnessTest, CertifiedFamilyDeterministicInSeed) {
  std::vector<Value> ground;
  for (Value v = 0; v < 20; ++v) ground.push_back(v * 101);
  auto a = ColoringFamily::Certified(ground, 3, 42).ValueOrDie();
  auto b = ColoringFamily::Certified(ground, 3, 42).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t m = 0; m < a.size(); ++m) {
    for (Value v : ground) EXPECT_EQ(a.Color(m, v), b.Color(m, v));
  }
}

TEST(RobustnessTest, DictionaryOddStrings) {
  Dictionary d;
  Value empty = d.Intern("");
  Value spaces = d.Intern("  ");
  Value unicode = d.Intern("héllo wörld");
  EXPECT_NE(empty, spaces);
  EXPECT_EQ(d.Lookup(unicode), "héllo wörld");
  EXPECT_EQ(d.Intern(""), empty);
}

TEST(RobustnessTest, ToStringSmoke) {
  Relation r(2);
  r.Add({1, 2});
  EXPECT_EQ(r.ToString(), "{(1,2)}");
  NamedRelation nr({7, 8}, r);
  EXPECT_EQ(nr.ToString(), "[7,8]{(1,2)}");
  Predicate p;
  p.Add(Constraint::LtCols(0, 1));
  p.Add(Constraint::NeqConst(0, 5));
  EXPECT_EQ(p.ToString(), "$0<$1 AND $0!=5");
  Hypergraph h(3);
  h.AddEdge({0, 1});
  EXPECT_EQ(h.ToString(), "H(V=3; {0,1})");
}

TEST(RobustnessTest, SelfJoinHeavyQuery) {
  // The same relation appearing five times with overlapping variables.
  Database db = GraphDatabase(GnpRandom(10, 0.4, 8));
  auto q = ParseConjunctive(
               "ans(a) :- E(a, b), E(b, a), E(a, c), E(c, a), E(b, c).")
               .ValueOrDie();
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  // Cyclic query: engine should still produce the same result via naive.
  Engine engine(db);
  auto via_engine = engine.Run(q).ValueOrDie();
  EXPECT_TRUE(via_engine.EqualsAsSet(naive));
}

TEST(RobustnessTest, DuplicateAtomsAndComparisons) {
  Database db = GraphDatabase(PathGraph(4));
  auto q = ParseConjunctive(
               "ans(x, y) :- E(x, y), E(x, y), E(x, y), x != y, x != y.")
               .ValueOrDie();
  IneqOptions certified;
  certified.driver = IneqOptions::Driver::kCertified;
  auto fpt = IneqEvaluate(db, q, {}, certified).ValueOrDie();
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(fpt.EqualsAsSet(naive));
}

TEST(RobustnessTest, HeadConstantsAndRepeatedHeadVars) {
  Database db = GraphDatabase(PathGraph(4));
  auto q = ParseConjunctive("ans(x, x, 42) :- E(x, y).").ValueOrDie();
  auto out = NaiveEvaluateCq(db, q).ValueOrDie();
  for (size_t r = 0; r < out.size(); ++r) {
    EXPECT_EQ(out.At(r, 0), out.At(r, 1));
    EXPECT_EQ(out.At(r, 2), 42);
  }
  auto acyclic = AcyclicEvaluate(db, q).ValueOrDie();
  EXPECT_TRUE(acyclic.EqualsAsSet(out));
}

TEST(RobustnessTest, DatalogDeepRecursionTerminates) {
  // A long chain: TC needs many iterations but must terminate.
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (Value v = 0; v < 200; ++v) db.relation(e).Add({v, v + 1});
  DatalogStats stats;
  auto out =
      EvaluateDatalog(db, TransitiveClosureProgram(), {}, {}, &stats).ValueOrDie();
  EXPECT_EQ(out.size(), 200u * 201u / 2u);
  EXPECT_GT(stats.iterations, 2u);
}

TEST(RobustnessTest, FoWithConstantsInAtoms) {
  Database db = GraphDatabase(PathGraph(4));
  auto q = ParseFirstOrder("ans(x) := E(0, x) or E(x, 3).").ValueOrDie();
  auto out = EvaluateFirstOrder(db, q).ValueOrDie();
  EXPECT_TRUE(out.Contains(std::vector<Value>{1}));  // E(0,1)
  EXPECT_TRUE(out.Contains(std::vector<Value>{2}));  // E(2,3)
}

// ------------------------------------------------------------------------
// Hardened execution: deadlines, cancellation, memory budgets, fault sweep.
// ------------------------------------------------------------------------

// A join whose intermediates run to millions of rows (the 3-path's inner
// join over K120 has 1.7M): over a hundred milliseconds of work even with
// the fused root join-project, so millisecond-scale deadlines and mid-run
// cancellations reliably land while it executes.
Database HeavyJoinDb() { return GraphDatabase(CompleteGraph(120)); }
const char* kHeavyQuery = "ans(x, w) :- E(x, y), E(y, z), E(z, w).";
const char* kLightQuery = "ans(x, y) :- E(x, y).";

TEST(HardenedExecutionTest, DeadlineAbortsAndEngineStaysUsable) {
  Database db = HeavyJoinDb();
  auto heavy = ParseConjunctive(kHeavyQuery).ValueOrDie();
  auto light = ParseConjunctive(kLightQuery).ValueOrDie();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EngineOptions options;
    options.threads = threads;
    Engine engine(db, options);
    engine.options().limits.max_wall_ms = 1;
    auto start = std::chrono::steady_clock::now();
    auto aborted = engine.Run(heavy);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    ASSERT_FALSE(aborted.ok()) << "threads=" << threads;
    EXPECT_EQ(aborted.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(aborted.status().message().find("deadline"), std::string::npos);
    // The abort must land within roughly one scheduling quantum of the
    // deadline, not after the query completes (a clean run takes far
    // longer than this bound).
    EXPECT_LT(elapsed.count(), 1000) << "threads=" << threads;
    // Graceful degradation: the same engine answers the next query.
    engine.options().limits.max_wall_ms = 0;
    auto ok = engine.Run(light);
    ASSERT_TRUE(ok.ok()) << "threads=" << threads;
    EXPECT_EQ(ok.value().size(), db.relation(0).size());
  }
}

TEST(HardenedExecutionTest, DeadlineAbortsRerunSucceedsIdentically) {
  // Differential reuse-after-abort: abort the SAME query, then re-run it
  // unhardened on the same engine (plan cache and all) and on a fresh one —
  // answers must match exactly.
  Database db = GraphDatabase(CompleteGraph(16));
  auto q = ParseConjunctive(kHeavyQuery).ValueOrDie();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EngineOptions options;
    options.threads = threads;
    Engine engine(db, options);
    engine.options().limits.max_wall_ms = 1;
    // Tiny deadline: may or may not finish on this small instance; either
    // way the engine must stay consistent.
    (void)engine.Run(q);
    engine.options().limits.max_wall_ms = 0;
    auto after = engine.Run(q);
    ASSERT_TRUE(after.ok()) << "threads=" << threads;
    Engine fresh(db);
    auto expected = fresh.Run(q).ValueOrDie();
    EXPECT_TRUE(after.value().EqualsAsSet(expected)) << "threads=" << threads;
  }
}

TEST(HardenedExecutionTest, CancellationFromAnotherThread) {
  Database db = HeavyJoinDb();
  auto heavy = ParseConjunctive(kHeavyQuery).ValueOrDie();
  auto light = ParseConjunctive(kLightQuery).ValueOrDie();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    QueryContext ctx;
    EngineOptions options;
    options.threads = threads;
    options.query_ctx = &ctx;
    Engine engine(db, options);
    std::thread canceller([&ctx] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ctx.Cancel();
    });
    auto result = engine.Run(heavy);
    canceller.join();
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    // Cancellation is sticky until the owner resets the token.
    EXPECT_EQ(engine.Run(light).status().code(), StatusCode::kCancelled);
    ctx.Reset();
    auto ok = engine.Run(light);
    ASSERT_TRUE(ok.ok()) << "threads=" << threads;
    EXPECT_EQ(ok.value().size(), db.relation(0).size());
  }
}

TEST(HardenedExecutionTest, PreCancelledContextAbortsImmediately) {
  Database db = GraphDatabase(PathGraph(4));
  QueryContext ctx;
  ctx.Cancel();
  EngineOptions options;
  options.query_ctx = &ctx;
  Engine engine(db, options);
  auto q = ParseConjunctive(kLightQuery).ValueOrDie();
  EXPECT_EQ(engine.Run(q).status().code(), StatusCode::kCancelled);
}

TEST(HardenedExecutionTest, MemoryBudgetAbortsAndEngineStaysUsable) {
  Database db = HeavyJoinDb();
  auto heavy = ParseConjunctive(kHeavyQuery).ValueOrDie();
  auto light = ParseConjunctive(kLightQuery).ValueOrDie();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EngineOptions options;
    options.threads = threads;
    Engine engine(db, options);
    engine.options().limits.max_bytes = 1 << 20;  // 1 MiB << the join's need
    auto aborted = engine.Run(heavy);
    ASSERT_FALSE(aborted.ok()) << "threads=" << threads;
    EXPECT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(aborted.status().message().find("memory budget"),
              std::string::npos);
    engine.options().limits.max_bytes = 0;
    auto ok = engine.Run(light);
    ASSERT_TRUE(ok.ok()) << "threads=" << threads;
    EXPECT_EQ(ok.value().size(), db.relation(0).size());
  }
}

TEST(HardenedExecutionTest, DatalogMidFixpointDeadlineAbort) {
  // TC over a long chain: hundreds of semi-naive rounds. A tiny deadline
  // aborts mid-fixpoint; clearing it must then produce the exact closure —
  // no half-materialized IDB state or poisoned caches may survive.
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (Value v = 0; v < 400; ++v) db.relation(e).Add({v, v + 1});
  auto program = TransitiveClosureProgram();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EngineOptions options;
    options.threads = threads;
    Engine engine(db, options);
    engine.options().limits.max_wall_ms = 1;
    auto aborted = engine.Run(program);
    if (!aborted.ok()) {
      EXPECT_EQ(aborted.status().code(), StatusCode::kDeadlineExceeded);
    }
    engine.options().limits.max_wall_ms = 0;
    auto full = engine.Run(program);
    ASSERT_TRUE(full.ok()) << "threads=" << threads;
    EXPECT_EQ(full.value().size(), 400u * 401u / 2u);
  }
}

TEST(HardenedExecutionTest, GenerousLimitsDoNotPerturbAnswers) {
  // Hardening armed but never tripped: answers and cache behavior must be
  // identical to the unhardened engine.
  Database db = GraphDatabase(GnpRandom(25, 0.3, 99));
  const char* pool[] = {
      "ans(x, z) :- E(x, y), E(y, z).",
      "ans(x) :- E(x, y), E(y, z), E(z, x).",
      "ans(x, y) :- E(x, y), x != y.",
  };
  EngineOptions hardened_options;
  hardened_options.limits.max_wall_ms = 60000;
  hardened_options.limits.max_bytes = 1ull << 32;
  Engine hardened(db, hardened_options);
  Engine baseline(db);
  for (const char* text : pool) {
    auto q = ParseConjunctive(text).ValueOrDie();
    auto a = hardened.Run(q).ValueOrDie();
    auto b = baseline.Run(q).ValueOrDie();
    EXPECT_TRUE(a.EqualsAsSet(b)) << text;
  }
}

TEST(MemoryAccountantTest, ChargePeakAndLatchedTrip) {
  MemoryAccountant acct(1000);
  acct.Charge(600);
  EXPECT_EQ(acct.used(), 600u);
  EXPECT_EQ(acct.peak(), 600u);
  EXPECT_FALSE(acct.tripped());
  acct.Charge(600);
  EXPECT_TRUE(acct.tripped());
  acct.Charge(-1200);
  EXPECT_EQ(acct.used(), 0u);
  EXPECT_EQ(acct.peak(), 1200u);
  EXPECT_TRUE(acct.tripped()) << "trip must latch across frees";
}

TEST(MemoryAccountantTest, ScopedInstallAndRestore) {
  EXPECT_EQ(MemoryAccountant::Current(), nullptr);
  auto acct = std::make_shared<MemoryAccountant>(0);
  {
    ScopedMemoryAccounting scope(acct);
    EXPECT_EQ(MemoryAccountant::Current(), acct);
    {
      ScopedMemoryAccounting inner(nullptr);
      EXPECT_EQ(MemoryAccountant::Current(), nullptr);
    }
    EXPECT_EQ(MemoryAccountant::Current(), acct);
  }
  EXPECT_EQ(MemoryAccountant::Current(), nullptr);
}

TEST(QueryContextTest, CheckPriorityAndReset) {
  QueryContext ctx;
  EXPECT_TRUE(ctx.Check().ok());
  ctx.ArmDeadline(0);  // disarmed
  EXPECT_FALSE(ctx.Aborted());
  ctx.ArmDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
  ctx.Cancel();  // cancellation outranks the expired deadline
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
  ctx.Reset();
  EXPECT_TRUE(ctx.Check().ok());
  ctx.ArmMemory(10);
  ctx.memory()->Charge(100);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kResourceExhausted);
  ctx.ArmMemory(10);  // fresh accountant per arm
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(FaultInjectionTest, ArmPointFailsCleanlyAndDisarms) {
  Database db;
  FaultInjector::ArmPoint("csv.load", 1);
  auto failed = LoadCsv(&db, "R", "1,2\n3,4\n");
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("injected fault at csv.load"),
            std::string::npos);
  EXPECT_TRUE(FaultInjector::fired());
  FaultInjector::Disarm();
  auto ok = LoadCsv(&db, "R", "1,2\n3,4\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(db.relation(ok.value()).size(), 2u);
}

TEST(FaultInjectionTest, RecordingListsProbesInArrivalOrder) {
  Database db = GraphDatabase(PathGraph(5));
  Engine engine(db);
  auto q = ParseConjunctive("ans(x, z) :- E(x, y), E(y, z).").ValueOrDie();
  FaultInjector::StartRecording();
  ASSERT_TRUE(engine.Run(q).ok());
  std::vector<std::string> points = FaultInjector::StopRecording();
  ASSERT_FALSE(points.empty());
  EXPECT_EQ(points.front(), "acyclic.plan");
  EXPECT_FALSE(FaultInjector::armed());
}

// The fault sweep: for each workload and thread count, record the probe
// trace once (warm caches), then arm every k-th probe hit in turn and
// assert (a) an armed fault that fires surfaces as a clean non-OK Status,
// and (b) after disarming, the SAME engine reproduces the baseline answer —
// no poisoned cache, scheduler, or database state survives any failure
// point. Runs on one engine throughout, exactly the production shape.
TEST(HardenedExecutionTest, FaultSweepAllWorkloads) {
  constexpr uint64_t kMaxArmPoints = 40;
  struct Workload {
    const char* label;
    const char* text;
  };
  const Workload workloads[] = {
      {"acyclic", "ans(x, z) :- E(x, y), E(y, z)."},
      {"cyclic", "ans(x) :- E(x, y), E(y, z), E(z, x)."},
      {"theorem2", "ans(x, y) :- E(x, y), x != y."},
      {"ucq", "ans(x) := exists y . (E(x, y) or E(y, x))."},
      {"counting", "COUNT(x) :- E(x, y), E(y, z)."},
      {"counting-scalar", "COUNT(*) :- E(x, y), E(y, z), E(z, x)."},
      {"counting-ucq", "COUNT(x) := exists y . (E(x, y) or E(y, x))."},
      {"datalog",
       "tc(x, y) :- E(x, y).\ntc(x, y) :- E(x, z), tc(z, y).\n"},
  };
  Database db = GraphDatabase(GnpRandom(12, 0.3, 47));
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EngineOptions options;
    options.threads = threads;
    Engine engine(db, options);
    for (const Workload& w : workloads) {
      SCOPED_TRACE(std::string(w.label) + " threads=" +
                   std::to_string(threads));
      auto baseline = engine.RunText(w.text).ValueOrDie();  // warm caches
      FaultInjector::StartRecording();
      ASSERT_TRUE(engine.RunText(w.text).ok());
      const uint64_t probes = FaultInjector::StopRecording().size();
      ASSERT_GT(probes, 0u);
      for (uint64_t k = 1; k <= std::min(probes, kMaxArmPoints); ++k) {
        FaultInjector::ArmNth(k);
        auto result = engine.RunText(w.text);
        if (result.ok()) {
          // Legal only if the armed hit was never reached (thread-count or
          // cache-state divergence from the recording run).
          EXPECT_FALSE(FaultInjector::fired()) << "k=" << k;
        } else {
          EXPECT_FALSE(result.status().message().empty()) << "k=" << k;
        }
        FaultInjector::Disarm();
        auto recovered = engine.RunText(w.text);
        ASSERT_TRUE(recovered.ok()) << "k=" << k;
        EXPECT_TRUE(recovered.value().EqualsAsSet(baseline)) << "k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace paraquery
