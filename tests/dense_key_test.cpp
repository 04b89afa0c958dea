// Dense-key kernels: the semijoin's bitmap filter and the array-summed
// counts (Aggregate, SemijoinCount, GroupCountRows) against the RowIndex
// kernels they replace on small key ranges. Every case runs at threads 1
// and 4 with 64-row morsels and must be byte-identical to the reference,
// on both sides of each size limit and on the value extremes (INT64_MIN /
// INT64_MAX, dictionary codes at 2^62 and up).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "eval/counting.hpp"
#include "plan/executor.hpp"
#include "plan/plan.hpp"
#include "relational/dictionary.hpp"
#include "relational/ops.hpp"
#include "relational/row_index.hpp"
#include "runtime/parallel_ops.hpp"
#include "runtime/scheduler.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

constexpr Value kMin = std::numeric_limits<Value>::min();
constexpr Value kMax = std::numeric_limits<Value>::max();
constexpr size_t kThreads[] = {1, 4};
constexpr size_t kMorselRows = 64;

// A relation over `attrs` whose column `key` cycles through `keys` and
// whose other columns are random in [0, 50) (row r holds keys[r % size]).
NamedRelation KeyedRel(std::vector<AttrId> attrs, size_t key,
                       const std::vector<Value>& keys, size_t rows,
                       uint64_t seed) {
  Rng rng(seed);
  NamedRelation out{std::move(attrs)};
  std::vector<Value> row(out.arity());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < row.size(); ++c) {
      row[c] = c == key ? keys[r % keys.size()] : rng.Range(0, 49);
    }
    out.rel().Add(row);
  }
  return out;
}

// `n` random keys in [lo, lo + slots - 1], with both ends present, so the
// column's range has exactly `slots` values.
std::vector<Value> KeysSpanning(Value lo, uint64_t slots, size_t n,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> keys{lo, static_cast<Value>(lo + (slots - 1))};
  while (keys.size() < n) {
    keys.push_back(lo + static_cast<Value>(rng.Below(slots)));
  }
  return keys;
}

void ExpectIdentical(const NamedRelation& a, const NamedRelation& b) {
  ASSERT_EQ(a.attrs(), b.attrs());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a.rel().data() == b.rel().data());
}

// --- Semijoin --------------------------------------------------------------

// ParallelSemijoin at every width equals the reference Semijoin and uses
// the expected key structure.
void CheckSemijoin(const NamedRelation& left, const NamedRelation& right,
                   KeyKind expected_key) {
  const NamedRelation expected = Semijoin(left, right);
  for (size_t threads : kThreads) {
    SCOPED_TRACE(threads);
    TaskScheduler scheduler(threads);
    KeyKind key = KeyKind::kNone;
    NamedRelation out = ParallelSemijoin(
        left, right, RuntimeOptions{&scheduler, kMorselRows}, nullptr, &key);
    ExpectIdentical(out, expected);
    EXPECT_EQ(key, expected_key);
    EXPECT_EQ(out.rel().SharesStorageWith(left.rel()),
              expected.rel().SharesStorageWith(left.rel()));
  }
}

TEST(DenseSemijoinTest, BitmapLimitIsSixtyFourBitsPerInputRow) {
  // 300 left + 100 right rows: the bitmap may span 64 * 400 values.
  const uint64_t limit = 64 * 400;
  for (uint64_t slots : {limit - 1, limit, limit + 1}) {
    SCOPED_TRACE(slots);
    NamedRelation right =
        KeyedRel({1, 2}, 0, KeysSpanning(-7, slots, 100, slots), 100, 1);
    // Left keys from a wider span: some fall outside [min, max].
    NamedRelation left = KeyedRel(
        {0, 1}, 1, KeysSpanning(-7 - 50, slots + 100, 300, slots + 1), 300, 2);
    CheckSemijoin(left, right,
                  slots <= limit ? KeyKind::kDense : KeyKind::kHash);
  }
}

TEST(DenseSemijoinTest, ValueExtremesAndDictionaryCodes) {
  // INT64_MIN and INT64_MAX in one column: max - min overflows, so the
  // RowIndex runs.
  std::vector<Value> extremes{kMin, kMax, 0, -1, 1, kMin + 1, kMax - 1};
  NamedRelation right = KeyedRel({1, 2}, 0, extremes, 50, 3);
  NamedRelation left =
      KeyedRel({0, 1}, 1, {kMin, 5, kMax, -1, kMax - 2, 0}, 200, 4);
  CheckSemijoin(left, right, KeyKind::kHash);

  // Dictionary codes are dense from 2^62 up; left keys below and above.
  const Value code = Dictionary::kCodeBase;
  NamedRelation codes =
      KeyedRel({1, 2}, 0, KeysSpanning(code, 500, 300, 5), 300, 6);
  NamedRelation probe = KeyedRel(
      {0, 1}, 1, {code - 1, code, code + 17, code + 499, code + 500, kMax, 3},
      400, 7);
  CheckSemijoin(probe, codes, KeyKind::kDense);

  // A range at the top of the domain: offsets reach INT64_MAX exactly.
  NamedRelation top = KeyedRel({1, 2}, 0, {kMax, kMax - 3}, 20, 8);
  NamedRelation top_probe =
      KeyedRel({0, 1}, 1, {kMax, kMax - 1, kMax - 3, kMin}, 90, 9);
  CheckSemijoin(top_probe, top, KeyKind::kDense);
}

TEST(DenseSemijoinTest, AllEqualKeysEmptySidesAndSharedStorage) {
  NamedRelation same = KeyedRel({1, 2}, 0, {42}, 80, 10);
  NamedRelation left = KeyedRel({0, 1}, 1, {41, 42, 43}, 300, 11);
  CheckSemijoin(left, same, KeyKind::kDense);

  // Every left row survives: the result shares the left's storage.
  NamedRelation all = KeyedRel({0, 1}, 1, {42}, 300, 12);
  CheckSemijoin(all, same, KeyKind::kDense);
  TaskScheduler scheduler(4);
  NamedRelation out = ParallelSemijoin(all, same, {&scheduler, kMorselRows});
  EXPECT_TRUE(out.rel().SharesStorageWith(all.rel()));

  // An empty right side keeps nothing; an empty left side stays itself.
  CheckSemijoin(left, NamedRelation{{1, 2}}, KeyKind::kDense);
  CheckSemijoin(NamedRelation{{0, 1}}, same, KeyKind::kDense);
  // Both empty: no range to size a bitmap from, so the RowIndex runs.
  CheckSemijoin(NamedRelation{{0, 1}}, NamedRelation{{1, 2}}, KeyKind::kHash);
}

TEST(DenseSemijoinTest, MultiColumnKeysProbeTheRowIndex) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    NamedRelation left = KeyedRel({0, 1, 2}, 0, {1, 2, 3}, 700, seed);
    NamedRelation right = KeyedRel({1, 2, 3}, 2, {9}, 500, seed + 10);
    CheckSemijoin(left, right, KeyKind::kHash);
  }
}

// --- Aggregate and SemijoinCount ---------------------------------------------

// RowIndex group count (the pre-dense kernel): first-occurrence groups,
// each summing its rows' multiplicity in row order.
Result<NamedRelation> ReferenceAggregate(const NamedRelation& in,
                                         AttrId group) {
  const int gcol = in.ColumnOf(group), mcol = in.ColumnOf(kCountAttr);
  const std::vector<int> cols{gcol};
  RowIndex idx(in.rel(), cols);
  NamedRelation out{{group, kCountAttr}};
  for (size_t r = 0; r < in.size(); ++r) {
    const uint32_t head = idx.Find(in.rel(), r, cols);
    if (head != r) continue;
    Value total = 0;
    for (uint32_t row = head; row != RowIndex::kNone; row = idx.Next(row)) {
      const Value m = mcol < 0 ? 1 : in.rel().At(row, mcol);
      if (__builtin_add_overflow(total, m, &total)) {
        return Status::OutOfRange("overflow");
      }
    }
    out.rel().Add({in.rel().At(r, gcol), total});
  }
  return out;
}

// Counting semijoin with no right-only columns through a RowIndex: each
// matching left row's regular values, times the summed right multiplicity.
Result<NamedRelation> ReferenceSemijoinCount(const NamedRelation& left,
                                             const NamedRelation& right,
                                             AttrId key) {
  const int lkey = left.ColumnOf(key), lm = left.ColumnOf(kCountAttr);
  const int rm = right.ColumnOf(kCountAttr);
  RowIndex idx(right.rel(), {right.ColumnOf(key)});
  const std::vector<int> probe{lkey};
  std::vector<AttrId> attrs;
  std::vector<int> regular;
  for (size_t c = 0; c < left.arity(); ++c) {
    if (left.attrs()[c] == kCountAttr) continue;
    attrs.push_back(left.attrs()[c]);
    regular.push_back(static_cast<int>(c));
  }
  attrs.push_back(kCountAttr);
  NamedRelation out{attrs};
  std::vector<Value> row;
  for (size_t r = 0; r < left.size(); ++r) {
    const uint32_t head = idx.Find(left.rel(), r, probe);
    if (head == RowIndex::kNone) continue;
    Value rsum = 0, mult;
    for (uint32_t rr = head; rr != RowIndex::kNone; rr = idx.Next(rr)) {
      if (__builtin_add_overflow(rsum, rm < 0 ? 1 : right.rel().At(rr, rm),
                                 &rsum)) {
        return Status::OutOfRange("overflow");
      }
    }
    const Value lmult = lm < 0 ? 1 : left.rel().At(r, lm);
    if (__builtin_mul_overflow(lmult, rsum, &mult)) {
      return Status::OutOfRange("overflow");
    }
    row.clear();
    for (int c : regular) row.push_back(left.rel().At(r, c));
    row.push_back(mult);
    out.rel().Add(row);
  }
  return out;
}

// Executes `root` over `inputs` at every width and checks the result (or
// OutOfRange) against `expected`, and the key structure it reports.
void CheckCountPlan(PlanNode& root,
                    const std::vector<const NamedRelation*>& inputs,
                    const Result<NamedRelation>& expected,
                    KeyKind expected_key) {
  for (size_t threads : kThreads) {
    SCOPED_TRACE(threads);
    TaskScheduler scheduler(threads);
    PlanStats stats;
    ExecContext ctx{inputs, {}, &stats, RuntimeOptions{&scheduler,
                                                        kMorselRows}};
    Result<NamedRelation> out = ExecutePlan(root, ctx);
    EXPECT_EQ(root.actual_key, expected_key);
    if (!expected.ok()) {
      ASSERT_FALSE(out.ok());
      EXPECT_EQ(out.status().code(), StatusCode::kOutOfRange);
      continue;
    }
    ASSERT_TRUE(out.ok()) << out.status();
    ExpectIdentical(out.value(), expected.value());
    EXPECT_EQ(stats.dense_keys, expected_key == KeyKind::kDense ? 1u : 0u);
  }
}

void CheckAggregate(const NamedRelation& in, AttrId group,
                    KeyKind expected_key) {
  PlanNodePtr root = MakeAggregate(MakeScan(0, in.attrs(), "in", 1), {group});
  CheckCountPlan(*root, {&in}, ReferenceAggregate(in, group), expected_key);
}

void CheckSemijoinCount(const NamedRelation& left, const NamedRelation& right,
                        AttrId key, KeyKind expected_key) {
  PlanNodePtr root = MakeSemijoinCount(MakeScan(0, left.attrs(), "L", 1),
                                       MakeScan(1, right.attrs(), "R", 1));
  CheckCountPlan(*root, {&left, &right},
                 ReferenceSemijoinCount(left, right, key), expected_key);
}

TEST(DenseCountTest, AggregateArrayLimitIsTwoSlotsPerRow) {
  // 200 rows: the array may span fewer than 400 values.
  for (uint64_t slots : {uint64_t{398}, uint64_t{399}, uint64_t{400}}) {
    for (Value lo : {Value{-1000}, Value{0}, Dictionary::kCodeBase}) {
      SCOPED_TRACE(testing::Message() << slots << " " << lo);
      NamedRelation in = KeyedRel({0, 1}, 0, KeysSpanning(lo, slots, 200, 7),
                                  200, slots);
      CheckAggregate(in, 0, slots < 400 ? KeyKind::kDense : KeyKind::kHash);
      // With a multiplicity column, summed per group in row order.
      NamedRelation weighted = KeyedRel(
          {0, kCountAttr}, 0, KeysSpanning(lo, slots, 200, 8), 200, slots + 1);
      CheckAggregate(weighted, 0,
                     slots < 400 ? KeyKind::kDense : KeyKind::kHash);
    }
  }
}

TEST(DenseCountTest, AggregateExtremesAndOverflow) {
  NamedRelation extremes =
      KeyedRel({0, 1}, 0, {kMin, kMax, 0, kMin, 7}, 100, 1);
  CheckAggregate(extremes, 0, KeyKind::kHash);
  NamedRelation same = KeyedRel({0, 1}, 0, {kMax}, 100, 2);
  CheckAggregate(same, 0, KeyKind::kDense);
  NamedRelation empty{{0, 1}};
  CheckAggregate(empty, 0, KeyKind::kHash);

  // Two rows of one group at INT64_MAX overflow: OutOfRange on the dense
  // path (all keys equal) and on the sparse one (keys 2^40 apart).
  NamedRelation dense_over{{0, kCountAttr}};
  dense_over.rel().Add({5, kMax});
  dense_over.rel().Add({6, 1});
  dense_over.rel().Add({5, 1});
  CheckAggregate(dense_over, 0, KeyKind::kDense);
  NamedRelation sparse_over = dense_over;
  sparse_over.rel().Add({Value{1} << 40, 3});
  CheckAggregate(sparse_over, 0, KeyKind::kHash);
}

TEST(DenseCountTest, SemijoinCountArrayLimitAndExtremes) {
  // 150 right rows: the array may span fewer than 300 values.
  for (uint64_t slots : {uint64_t{299}, uint64_t{300}}) {
    for (bool weighted : {false, true}) {
      SCOPED_TRACE(testing::Message() << slots << " " << weighted);
      std::vector<AttrId> rattrs{1};
      if (weighted) rattrs.push_back(kCountAttr);
      NamedRelation right =
          KeyedRel(rattrs, 0, KeysSpanning(-40, slots, 150, 3), 150, slots);
      NamedRelation left =
          KeyedRel({0, 1, kCountAttr}, 1,
                   KeysSpanning(-60, slots + 40, 400, 4), 400, slots + 2);
      CheckSemijoinCount(left, right, 1,
                         slots < 300 ? KeyKind::kDense : KeyKind::kHash);
    }
  }
  NamedRelation extremes = KeyedRel({1}, 0, {kMin, kMax, 3}, 30, 5);
  NamedRelation probe = KeyedRel({0, 1}, 1, {kMin, 3, 4, kMax}, 200, 6);
  CheckSemijoinCount(probe, extremes, 1, KeyKind::kHash);
  NamedRelation codes =
      KeyedRel({1}, 0, {Dictionary::kCodeBase, Dictionary::kCodeBase + 2}, 9, 7);
  NamedRelation code_probe = KeyedRel(
      {0, 1}, 1,
      {Dictionary::kCodeBase - 1, Dictionary::kCodeBase,
       Dictionary::kCodeBase + 1, Dictionary::kCodeBase + 2},
      200, 8);
  CheckSemijoinCount(code_probe, codes, 1, KeyKind::kDense);
}

TEST(DenseCountTest, SemijoinCountOverflowFailsOnlyWhenProbed) {
  // Key 5's right multiplicities overflow when summed; key 6's do not, but
  // times the left's multiplicity they do.
  NamedRelation right{{1, kCountAttr}};
  right.rel().Add({5, kMax});
  right.rel().Add({6, Value{1} << 40});
  right.rel().Add({5, 1});
  NamedRelation quiet{{0, 1, kCountAttr}};
  for (Value v = 0; v < 100; ++v) quiet.rel().Add({v, 7, 1});
  CheckSemijoinCount(quiet, right, 1, KeyKind::kDense);  // never reaches 5

  NamedRelation hits_sum = quiet;
  hits_sum.rel().Add({100, 5, 1});
  CheckSemijoinCount(hits_sum, right, 1, KeyKind::kDense);
  NamedRelation hits_product = quiet;
  hits_product.rel().Add({100, 6, Value{1} << 30});
  CheckSemijoinCount(hits_product, right, 1, KeyKind::kDense);
  ASSERT_FALSE(ReferenceSemijoinCount(hits_sum, right, 1).ok());
  ASSERT_FALSE(ReferenceSemijoinCount(hits_product, right, 1).ok());
}

// --- GroupCountRows ------------------------------------------------------------

// The std::map grouping GroupCountRows used before the dense/sorted paths.
Relation MapGroupCountRows(const Relation& rows, const std::vector<int>& cols) {
  std::map<std::vector<Value>, Value> groups;
  std::vector<Value> key(cols.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t i = 0; i < cols.size(); ++i) key[i] = rows.At(r, cols[i]);
    ++groups[key];
  }
  Relation out(cols.size() + 1);
  for (const auto& [g, count] : groups) {
    std::vector<Value> row = g;
    row.push_back(count);
    out.Add(row);
  }
  return out;
}

TEST(GroupCountRowsTest, MatchesMapGroupingOnRandomAndNegativeKeys) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    // Domains from dense (10 values over 300 rows) to sparse (2^40).
    for (Value domain : {Value{10}, Value{599}, Value{600}, Value{1} << 40}) {
      Relation rows(3);
      for (int r = 0; r < 300; ++r) {
        rows.Add({rng.Range(-domain / 2, domain - domain / 2 - 1),
                  rng.Range(-3, 3), rng.Range(0, 1000)});
      }
      rows.HashDedup();
      for (const std::vector<int>& cols :
           {std::vector<int>{0}, std::vector<int>{1}, std::vector<int>{2, 0},
            std::vector<int>{1, 1}, std::vector<int>{0, 1, 2}}) {
        SCOPED_TRACE(testing::Message() << seed << " " << domain << " "
                                        << cols.size());
        Relation got = GroupCountRows(rows, cols);
        EXPECT_TRUE(got.data() == MapGroupCountRows(rows, cols).data());
      }
    }
  }
  Relation extremes(2);
  for (Value v : {kMin, kMax, Value{0}, kMin + 1}) extremes.Add({v, 1});
  extremes.Add({kMin, 2});
  EXPECT_TRUE(GroupCountRows(extremes, {0}).data() ==
              MapGroupCountRows(extremes, {0}).data());
  Relation empty(2);
  EXPECT_EQ(GroupCountRows(empty, {1}).size(), 0u);
}

TEST(GroupCountRowsTest, SumGroupsFailsCleanlyOnOverflow) {
  for (Value far : {Value{2}, Value{1} << 50}) {  // dense, then sorted path
    Relation rows(2);
    rows.Add({1, kMax});
    rows.Add({far, 5});
    rows.Add({1, 1});
    auto sums = SumGroups(rows, {0}, 1);
    ASSERT_FALSE(sums.ok());
    EXPECT_EQ(sums.status().code(), StatusCode::kOutOfRange);
  }
}

// --- EXPLAIN ANALYZE -------------------------------------------------------------

// The lines of `text` that start (after indentation) with `op` + "(",
// except references to a node rendered earlier ("see #k").
std::vector<std::string> OpLines(const std::string& text,
                                 const std::string& op) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const size_t at = line.find_first_not_of(' ');
    if (at != std::string::npos &&
        line.compare(at, op.size() + 1, op + "(") == 0 &&
        line.find(" see #") == std::string::npos) {
      out.push_back(line);
    }
  }
  return out;
}

TEST(DenseKeyAnalyzeTest, AnalyzeShowsTheKeyStructureThatRan) {
  for (size_t threads : kThreads) {
    SCOPED_TRACE(threads);
    EngineOptions options;
    options.threads = threads;
    options.morsel_rows = kMorselRows;
    // The 3-path over random binary relations: every semijoin key is the
    // single join variable over a dense domain.
    Database paths = RandomBinaryDatabase(3, 5000, 1000, 5);
    Engine path_engine(paths, options);
    std::string path =
        path_engine.AnalyzeText("g(x, w) :- R0(x, y), R1(y, z), R2(z, w).")
            .ValueOrDie();
    std::vector<std::string> semis = OpLines(path, "Semijoin");
    ASSERT_EQ(semis.size(), 4u) << path;
    for (const std::string& line : semis) {
      EXPECT_NE(line.find(" key=dense"), std::string::npos) << path;
    }
    // The 2-path runs no reducer: its fused join-project root probes the
    // same kind of key through key runs.
    path = path_engine.AnalyzeText("g(x, z) :- R0(x, y), R1(y, z).")
               .ValueOrDie();
    EXPECT_TRUE(OpLines(path, "Semijoin").empty()) << path;
    std::vector<std::string> joins = OpLines(path, "HashJoin");
    ASSERT_EQ(joins.size(), 1u) << path;
    EXPECT_NE(joins[0].find(" project-out(y) "), std::string::npos) << path;
    EXPECT_NE(joins[0].find(" key=dense"), std::string::npos) << path;
    EXPECT_EQ(path_engine.last_stats().plan.dense_keys, 1u);

    // The 4-cycle: its bags share two variables, so every semijoin between
    // them keys on two columns and probes a RowIndex.
    Database cycles = RandomBinaryDatabase(4, 3000, 300, 6);
    Engine cycle_engine(cycles, options);
    std::string cycle = cycle_engine
                            .AnalyzeText(
                                "g(x, y, z, w) :- R0(x, y), R1(y, z), "
                                "R2(z, w), R3(w, x).")
                            .ValueOrDie();
    semis = OpLines(cycle, "Semijoin");
    ASSERT_FALSE(semis.empty()) << cycle;
    for (const std::string& line : semis) {
      EXPECT_NE(line.find(" key=hash"), std::string::npos) << cycle;
    }
    // Its COUNT(*) runs no semijoin at all: each bag's join-count (the
    // root's and its weight's) probes its one-column join key through key
    // runs.
    std::string count = cycle_engine
                            .AnalyzeText(
                                "COUNT(*) :- R0(x, y), R1(y, z), R2(z, w), "
                                "R3(w, x).")
                            .ValueOrDie();
    EXPECT_TRUE(OpLines(count, "Semijoin").empty()) << count;
    joins = OpLines(count, "HashJoin");
    size_t fused = 0;
    for (const std::string& line : joins) {
      if (line.find(" count-out(") == std::string::npos) continue;
      ++fused;
      EXPECT_NE(line.find(" key=dense"), std::string::npos) << count;
    }
    EXPECT_EQ(fused, 2u) << count;
  }
}

}  // namespace
}  // namespace paraquery
