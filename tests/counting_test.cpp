// Counting answers as a first-class workload: COUNT(*) / COUNT(keys) heads
// across the parser, classifier, planner (counting Yannakakis and the
// hypertree route), executor (Aggregate / SemijoinCount), UCQ
// inclusion-exclusion, and the active-domain fallback. The ground truth for
// every differential is brute force: evaluate the same body with ALL
// variables in the head (tuple mode), then group-count the distinct rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/classifier.hpp"
#include "core/engine.hpp"
#include "query/parser.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

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

// Brute-force reference: run `q`'s body with every variable in the head
// (tuple mode), then group-count the distinct assignments by `q`'s group
// keys. This is exactly the contract the counting engine must match.
Relation BruteForceCount(const Database& db, const ConjunctiveQuery& q) {
  ConjunctiveQuery enumq = q;
  enumq.answer = AnswerSpec::Tuples();
  enumq.head.clear();
  for (VarId v = 0; v < enumq.vars.size(); ++v) {
    enumq.head.push_back(Term::Var(v));
  }
  Relation rows = MakeEngine(db, 1).Run(enumq).ValueOrDie();
  rows.SortAndDedup();
  std::vector<size_t> gcols;
  for (const Term& t : q.head) gcols.push_back(static_cast<size_t>(t.var()));
  if (gcols.empty()) {
    Relation out(1);
    out.Add(std::vector<Value>{static_cast<Value>(rows.size())});
    return out;
  }
  std::map<std::vector<Value>, Value> groups;
  for (size_t r = 0; r < rows.size(); ++r) {
    std::vector<Value> key;
    for (size_t c : gcols) key.push_back(rows.At(r, c));
    ++groups[key];
  }
  Relation out(gcols.size() + 1);
  for (const auto& [key, count] : groups) {
    std::vector<Value> row = key;
    row.push_back(count);
    out.Add(row);
  }
  return out;
}

// Runs `q` at 1 and 4 threads, asserts byte-identical results, and returns
// the (shared) answer.
Relation RunBothWidths(const Database& db, const ConjunctiveQuery& q) {
  Result<Relation> sequential = MakeEngine(db, 1).Run(q);
  Result<Relation> parallel = MakeEngine(db, 4).Run(q);
  EXPECT_TRUE(sequential.ok()) << sequential.status();
  EXPECT_TRUE(parallel.ok()) << parallel.status();
  ExpectSameRelation(sequential.value(), parallel.value());
  return std::move(sequential).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Parser and validation
// ---------------------------------------------------------------------------

TEST(CountingParseTest, CountStarAndGroupedHeads) {
  auto star = ParseConjunctive("COUNT(*) :- R(x, y).").ValueOrDie();
  EXPECT_EQ(star.answer.kind, AnswerSpec::Kind::kCount);
  EXPECT_TRUE(star.head.empty());

  auto grouped = ParseConjunctive("COUNT(x, y) :- R(x, y), S(y, z).")
                     .ValueOrDie();
  EXPECT_EQ(grouped.answer.kind, AnswerSpec::Kind::kGroupedCount);
  ASSERT_EQ(grouped.head.size(), 2u);
  EXPECT_TRUE(grouped.Validate().ok());
  // The printer round-trips the counting head.
  EXPECT_EQ(ParseConjunctive(grouped.ToString()).ValueOrDie().ToString(),
            grouped.ToString());
  EXPECT_EQ(grouped.ToString().rfind("COUNT(", 0), 0u);
}

TEST(CountingParseTest, LowercaseCountStaysARelationName) {
  auto q = ParseConjunctive("count(x) :- R(x, y).").ValueOrDie();
  EXPECT_EQ(q.answer.kind, AnswerSpec::Kind::kTuples);
  ASSERT_EQ(q.head.size(), 1u);
}

TEST(CountingParseTest, InvalidCountingHeadsAreRejected) {
  // Repeated group key (rejected at parse or validation time).
  auto dup = ParseConjunctive("COUNT(x, x) :- R(x, y).");
  EXPECT_TRUE(!dup.ok() || !dup.value().Validate().ok());
  // Group key not bound by the body (safety).
  auto unsafe = ParseConjunctive("COUNT(w) :- R(x, y).");
  EXPECT_TRUE(!unsafe.ok() || !unsafe.value().Validate().ok());
  // Constant group key.
  auto constant = ParseConjunctive("COUNT(3) :- R(x, y).");
  EXPECT_TRUE(!constant.ok() || !constant.value().Validate().ok());
  // Datalog rules do not take COUNT heads.
  auto datalog = ParseDatalog(
      "COUNT(x) :- E(x, y).\n"
      "p(x) :- E(x, x).\n");
  EXPECT_FALSE(datalog.ok());
}

TEST(CountingParseTest, FormulaCountingHeadValidation) {
  // Group keys must be free variables of the formula.
  auto bound = ParseFirstOrder("COUNT(y) := exists y. R(x, y).");
  if (bound.ok()) EXPECT_FALSE(bound.value().Validate().ok());
  auto good = ParseFirstOrder("COUNT(x) := exists y. R(x, y).").ValueOrDie();
  EXPECT_TRUE(good.Validate().ok());
  EXPECT_EQ(good.answer.kind, AnswerSpec::Kind::kGroupedCount);
}

// ---------------------------------------------------------------------------
// Classifier
// ---------------------------------------------------------------------------

TEST(CountingClassifyTest, AcyclicCountingIsFpAndRoutedToCountingEngine) {
  auto q = ParseConjunctive("COUNT(x) :- R(x, y), S(y, z).").ValueOrDie();
  Classification c = ClassifyConjunctive(q);
  EXPECT_TRUE(c.counting);
  EXPECT_EQ(c.engine, EngineChoice::kCounting);
  EXPECT_NE(c.counting_class.find("counting Yannakakis"), std::string::npos);
  EXPECT_NE(c.ToString().find("counting:"), std::string::npos);
  // The tuple-mode classification is untouched.
  auto t = ParseConjunctive("ans(x) :- R(x, y), S(y, z).").ValueOrDie();
  EXPECT_FALSE(ClassifyConjunctive(t).counting);
}

// ---------------------------------------------------------------------------
// Differentials against brute force (threads 1 and 4, byte-identical)
// ---------------------------------------------------------------------------

TEST(CountingDifferentialTest, RandomAcyclicQueries) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Database db = RandomBinaryDatabase(3, 100, 12, seed);
    ConjunctiveQuery base = RandomAcyclicNeqQuery(3, 4, 0, seed * 17);
    // Full-head tuple variant so CountingVariant has keys to keep.
    base.head.clear();
    for (VarId v = 0; v < base.vars.size(); ++v) {
      base.head.push_back(Term::Var(v));
    }
    for (size_t keys = 0; keys <= 2; ++keys) {
      ConjunctiveQuery q = CountingVariant(base, keys);
      Relation got = RunBothWidths(db, q);
      Relation want = BruteForceCount(db, q);
      ExpectSameRelation(got, want);
    }
  }
}

TEST(CountingDifferentialTest, AcyclicQueriesWithInequalities) {
  // Comparisons force the enumeration fallback; the answer contract is
  // unchanged.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Database db = RandomBinaryDatabase(3, 80, 10, seed);
    ConjunctiveQuery base = RandomAcyclicNeqQuery(3, 3, 2, seed * 29);
    base.head.clear();
    for (VarId v = 0; v < base.vars.size(); ++v) {
      base.head.push_back(Term::Var(v));
    }
    for (size_t keys = 0; keys <= 1; ++keys) {
      ConjunctiveQuery q = CountingVariant(base, keys);
      Relation got = RunBothWidths(db, q);
      Relation want = BruteForceCount(db, q);
      ExpectSameRelation(got, want);
    }
  }
}

TEST(CountingDifferentialTest, CyclicQueries) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Database db = RandomBinaryDatabase(1, 150, 14, seed);
    const char* texts[] = {
        "COUNT(*) :- R0(x, y), R0(y, z), R0(z, x).",
        "COUNT(x) :- R0(x, y), R0(y, z), R0(z, x).",
        "COUNT(x, z) :- R0(x, y), R0(y, z), R0(z, w), R0(w, x).",
    };
    for (const char* text : texts) {
      auto q = ParseConjunctive(text).ValueOrDie();
      Relation got = RunBothWidths(db, q);
      Relation want = BruteForceCount(db, q);
      ExpectSameRelation(got, want);
    }
  }
}

TEST(CountingDifferentialTest, ComparisonClosureEdgeCases) {
  Database db = RandomBinaryDatabase(1, 60, 8, 5);
  // x = y merges the two group keys: the collapsed query is no longer a
  // valid counting head, so the engine must fall back to the original.
  auto merged = ParseConjunctive("COUNT(x, y) :- R0(x, y), x = y.")
                    .ValueOrDie();
  ExpectSameRelation(RunBothWidths(db, merged), BruteForceCount(db, merged));
  // Constant-folded key.
  auto folded = ParseConjunctive("COUNT(x) :- R0(x, y), x = 3.").ValueOrDie();
  ExpectSameRelation(RunBothWidths(db, folded), BruteForceCount(db, folded));
  // Inconsistent closure: scalar count is 0, grouped count is empty.
  auto incon =
      ParseConjunctive("COUNT(*) :- R0(x, y), x < y, y < x.").ValueOrDie();
  Relation zero = MakeEngine(db, 1).Run(incon).ValueOrDie();
  ASSERT_EQ(zero.arity(), 1u);
  ASSERT_EQ(zero.size(), 1u);
  EXPECT_EQ(zero.At(0, 0), 0);
  auto gincon =
      ParseConjunctive("COUNT(x) :- R0(x, y), x < y, y < x.").ValueOrDie();
  Relation none = MakeEngine(db, 1).Run(gincon).ValueOrDie();
  EXPECT_EQ(none.arity(), 2u);
  EXPECT_EQ(none.size(), 0u);
}

TEST(CountingDifferentialTest, EmptyBodyAndEmptyInput) {
  Database db;
  db.AddRelation("R", 2).ValueOrDie();
  // Empty body: exactly one (empty) assignment.
  auto one = ParseConjunctive("COUNT(*) :- .").ValueOrDie();
  Relation r1 = MakeEngine(db, 1).Run(one).ValueOrDie();
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1.At(0, 0), 1);
  // Empty relation: scalar 0, grouped empty.
  auto zero = ParseConjunctive("COUNT(*) :- R(x, y).").ValueOrDie();
  Relation r0 = MakeEngine(db, 1).Run(zero).ValueOrDie();
  ASSERT_EQ(r0.size(), 1u);
  EXPECT_EQ(r0.At(0, 0), 0);
  auto grouped = ParseConjunctive("COUNT(x) :- R(x, y).").ValueOrDie();
  Relation rg = MakeEngine(db, 1).Run(grouped).ValueOrDie();
  EXPECT_EQ(rg.size(), 0u);
  EXPECT_EQ(rg.arity(), 2u);
}

// ---------------------------------------------------------------------------
// The tentpole guarantee: acyclic counting never materializes the join
// ---------------------------------------------------------------------------

TEST(CountingBoundTest, StarJoinPeakStaysBoundedByInputs) {
  // One hub value, 50-wide arms: the join output has 50^3 = 125000 rows,
  // the inputs 150. Counting Yannakakis must answer without ever holding an
  // intermediate bigger than the (semijoin-reduced) inputs.
  Database db;
  const int kFanout = 50;
  size_t input_rows = 0;
  for (int i = 0; i < 3; ++i) {
    RelId r = db.AddRelation("R" + std::to_string(i), 2).ValueOrDie();
    for (int v = 0; v < kFanout; ++v) {
      db.relation(r).Add({0, 1000 * (i + 1) + v});
      ++input_rows;
    }
  }
  ConjunctiveQuery q = StarCountQuery(3);
  // Materialize-then-count: the same body with every variable in the head.
  ConjunctiveQuery enum_q = q;
  enum_q.answer = AnswerSpec::Tuples();
  for (VarId v = 0; v < enum_q.vars.size(); ++v) {
    enum_q.head.push_back(Term::Var(v));
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    Engine engine = MakeEngine(db, threads);
    Relation out = engine.Run(q).ValueOrDie();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out.At(0, 0), Value{kFanout} * kFanout * kFanout);
    const PlanStats plan = engine.last_stats().plan;
    EXPECT_GT(plan.aggregates, 0u);
    EXPECT_GT(plan.semijoin_counts, 0u);
    // Peak intermediate cardinality is bounded by the input size — the
    // 125000-row join output never exists.
    EXPECT_LE(plan.peak_intermediate_rows, input_rows);
    Relation materialized = engine.Run(enum_q).ValueOrDie();
    EXPECT_EQ(materialized.size(), size_t{kFanout} * kFanout * kFanout);
    EXPECT_GE(engine.last_stats().plan.rows_produced, 3 * plan.rows_produced);
  }
}

TEST(CountingBoundTest, StarCountOverflowFailsCleanly) {
  // One hub with 256 leaves: an 8-arm star has 256^8 = 2^64 assignments,
  // one past the signed 64-bit range, so the count must fail with
  // OutOfRange (never wrap); the 7-arm star (2^56) stays exact. Threads 4
  // with small morsels runs the counting kernels' morsel path. The hub
  // column holds one value, so every keyed counting kernel runs on its
  // dense key path; a second database puts a second hub 2^40 away, which
  // doubles the counts and sends every key to the RowIndex path.
  auto star = [](int arms) {
    std::string text = "COUNT(*) :- ";
    for (int i = 1; i <= arms; ++i) {
      text += "R(c, x" + std::to_string(i) + ")";
      text += i < arms ? ", " : ".";
    }
    return ParseConjunctive(text).ValueOrDie();
  };
  for (bool sparse : {false, true}) {
    SCOPED_TRACE(sparse);
    Database db;
    RelId r = db.AddRelation("R", 2).ValueOrDie();
    for (Value v = 0; v < 256; ++v) {
      db.relation(r).Add({0, v});
      if (sparse) db.relation(r).Add({Value{1} << 40, v});
    }
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      Engine engine = MakeEngine(db, threads);
      Relation seven = engine.Run(star(7)).ValueOrDie();
      ASSERT_EQ(seven.size(), 1u);
      EXPECT_EQ(seven.At(0, 0), Value{sparse ? 2 : 1} << 56);
      const PlanStats& plan = engine.last_stats().plan;
      EXPECT_GT(plan.semijoin_counts, 0u);
      if (sparse) {
        EXPECT_EQ(plan.dense_keys, 0u);
      } else {
        EXPECT_GE(plan.dense_keys, plan.semijoin_counts);
      }
      auto eight = engine.Run(star(8));
      ASSERT_FALSE(eight.ok());
      EXPECT_EQ(eight.status().code(), StatusCode::kOutOfRange)
          << eight.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// UCQ inclusion-exclusion and the first-order fallback
// ---------------------------------------------------------------------------

TEST(CountingUcqTest, InclusionExclusionMatchesEnumeration) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Database db = RandomBinaryDatabase(2, 120, 15, seed);
    struct Case {
      const char* count_text;
      const char* enum_text;
      size_t keys;
    };
    const Case cases[] = {
        {"COUNT(x) := exists y. (R0(x, y) or R1(y, x)).",
         "ans(x) := exists y. (R0(x, y) or R1(y, x)).", 1},
        {"COUNT(x, y) := R0(x, y) or R1(x, y) or R0(y, x).",
         "ans(x, y) := R0(x, y) or R1(x, y) or R0(y, x).", 2},
        {"COUNT(*) := exists x. exists y. (R0(x, y) or R1(x, y)).",
         "ans(x, y) := R0(x, y) or R1(x, y).", 0},
    };
    for (const Case& c : cases) {
      auto seq = MakeEngine(db, 1).RunText(c.count_text);
      auto par = MakeEngine(db, 4).RunText(c.count_text);
      ASSERT_TRUE(seq.ok()) << seq.status();
      ASSERT_TRUE(par.ok()) << par.status();
      ExpectSameRelation(seq.value(), par.value());
      Relation rows = MakeEngine(db, 1).RunText(c.enum_text).ValueOrDie();
      if (c.keys == 0) {
        // COUNT(*) over the free pair (x, y): the count of distinct rows.
        // (The enum query keeps x, y free to expose them.)
        ASSERT_EQ(seq.value().size(), 1u);
        continue;
      }
      std::map<std::vector<Value>, Value> groups;
      for (size_t r = 0; r < rows.size(); ++r) {
        std::vector<Value> key;
        for (size_t col = 0; col < c.keys; ++col) key.push_back(rows.At(r, col));
        ++groups[key];
      }
      const Relation& got = seq.value();
      ASSERT_EQ(got.size(), groups.size());
      size_t i = 0;
      for (const auto& [key, count] : groups) {
        for (size_t col = 0; col < c.keys; ++col) {
          EXPECT_EQ(got.At(i, col), key[col]);
        }
        EXPECT_EQ(got.At(i, c.keys), count);
        ++i;
      }
    }
  }
}

TEST(CountingUcqTest, InclusionExclusionSubsetsAreInstrumented) {
  Database db = RandomBinaryDatabase(2, 60, 10, 3);
  Engine engine = MakeEngine(db, 1);
  auto out = engine.RunText("COUNT(x) := R0(x, y) or R1(x, y).");
  ASSERT_TRUE(out.ok()) << out.status();
  // Two disjuncts: subsets {1}, {2}, {1,2} = 3 evaluated (minus pruned).
  EXPECT_GT(engine.last_stats().ucq.ie_subsets, 0u);
  EXPECT_LE(engine.last_stats().ucq.ie_subsets, 3u);
}

TEST(CountingFirstOrderTest, NegationFallsBackToActiveDomain) {
  Database db = RandomBinaryDatabase(2, 40, 6, 11);
  // Vertices with an R0 edge but no R1 edge: genuinely non-positive.
  const char* count_text =
      "COUNT(x) := (exists y. R0(x, y)) and not (exists z. R1(x, z)).";
  const char* enum_text =
      "ans(x) := (exists y. R0(x, y)) and not (exists z. R1(x, z)).";
  Relation got = MakeEngine(db, 1).RunText(count_text).ValueOrDie();
  Relation rows = MakeEngine(db, 1).RunText(enum_text).ValueOrDie();
  ASSERT_EQ(got.arity(), 2u);
  ASSERT_EQ(got.size(), rows.size());  // every x appears once
  for (size_t r = 0; r < got.size(); ++r) EXPECT_EQ(got.At(r, 1), 1);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

TEST(CountingObservabilityTest, PlanRenderAndMetrics) {
  Database db = RandomBinaryDatabase(2, 30, 6, 2);
  Engine engine = MakeEngine(db, 1);
  auto plan = engine.PlanText("COUNT(x) :- R0(x, y), R1(y, z).");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan.value().find("counting Yannakakis"), std::string::npos);
  EXPECT_NE(plan.value().find("Aggregate("), std::string::npos);
  EXPECT_NE(plan.value().find("SemijoinCount("), std::string::npos);
  EXPECT_NE(plan.value().find("#count"), std::string::npos);

  uint64_t before =
      engine.metrics().counter("pq_counting_queries_total").value();
  uint64_t groups_before =
      engine.metrics().histogram("pq_counting_groups").count();
  auto out = engine.RunText("COUNT(x) :- R0(x, y), R1(y, z).");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(engine.metrics().counter("pq_counting_queries_total").value(),
            before + 1);
  EXPECT_EQ(engine.metrics().histogram("pq_counting_groups").count(),
            groups_before + 1);

  // EXPLAIN ANALYZE annotates the counting nodes with actuals.
  auto analyzed = engine.AnalyzeText("COUNT(x) :- R0(x, y), R1(y, z).");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_NE(analyzed.value().find("Aggregate("), std::string::npos);
  EXPECT_NE(analyzed.value().find("actual="), std::string::npos);
}

}  // namespace
}  // namespace paraquery
