// Row sort kernel (relational/row_sort.hpp): differential against
// std::sort + std::unique on row-major data, across arities (fixed-arity and
// generic paths), sizes around the kernel's cutoffs, value ranges that
// stress the unsigned key arithmetic, and execution widths. Plus the users
// of the kernel: Relation::SortAndDedup, TrieIndex::Build, and the engine's
// answers at threads 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "relational/relation.hpp"
#include "relational/row_sort.hpp"
#include "relational/trie_index.hpp"
#include "runtime/scheduler.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

// Sizes around the kernel's file-local cutoffs: the comparison-sort cutoff
// (256 rows) and the parallel threshold (65536 rows).
constexpr size_t kCutoff = 256;
constexpr size_t kParallelThreshold = size_t{1} << 16;

constexpr Value kMin = std::numeric_limits<Value>::min();
constexpr Value kMax = std::numeric_limits<Value>::max();
constexpr Value kCodeBase = Value{1} << 62;

enum class Pattern {
  kSmallDomain,  // values in [-20, 20): negatives, many duplicates
  kExtremes,     // column 0 mixes INT64_MIN, INT64_MAX and small values
  kDictionary,   // codes in [2^62, 2^63), column 1 mixed with small values
  kAllEqual,
  kSorted,
  kReverse,
  kHeavyDuplicates,  // few distinct rows, each repeated many times
};

const Pattern kAllPatterns[] = {
    Pattern::kSmallDomain, Pattern::kExtremes, Pattern::kDictionary,
    Pattern::kAllEqual,    Pattern::kSorted,   Pattern::kReverse,
    Pattern::kHeavyDuplicates,
};

std::string PatternName(Pattern p) {
  switch (p) {
    case Pattern::kSmallDomain:
      return "small_domain";
    case Pattern::kExtremes:
      return "extremes";
    case Pattern::kDictionary:
      return "dictionary";
    case Pattern::kAllEqual:
      return "all_equal";
    case Pattern::kSorted:
      return "sorted";
    case Pattern::kReverse:
      return "reverse";
    case Pattern::kHeavyDuplicates:
      return "heavy_duplicates";
  }
  return "?";
}

// std::sort + std::unique over row indexes: the kernel's specification.
std::vector<Value> Reference(const std::vector<Value>& rows, size_t k) {
  const size_t n = rows.size() / k;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  const Value* base = rows.data();
  std::sort(order.begin(), order.end(), [base, k](size_t a, size_t b) {
    return std::lexicographical_compare(base + a * k, base + (a + 1) * k,
                                        base + b * k, base + (b + 1) * k);
  });
  auto last = std::unique(order.begin(), order.end(), [base, k](size_t a,
                                                                size_t b) {
    return std::equal(base + a * k, base + (a + 1) * k, base + b * k);
  });
  std::vector<Value> out;
  out.reserve(rows.size());
  for (auto it = order.begin(); it != last; ++it) {
    out.insert(out.end(), base + *it * k, base + (*it + 1) * k);
  }
  return out;
}

std::vector<Value> MakeRows(Pattern p, size_t n, size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> rows(n * k);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < k; ++c) {
      Value& v = rows[r * k + c];
      switch (p) {
        case Pattern::kSmallDomain:
        case Pattern::kSorted:
        case Pattern::kReverse:
          v = rng.Range(-20, 19);
          break;
        case Pattern::kExtremes: {
          const Value picks[] = {kMin, kMax, kMin + 1, kMax - 1, -1, 0, 1};
          v = c == 0 ? picks[rng.Below(7)] : rng.Range(-3, 3);
          break;
        }
        case Pattern::kDictionary:
          v = c == 1 && rng.Chance(0.5)
                  ? rng.Range(-5, 5)
                  : kCodeBase + static_cast<Value>(rng.Below(kCodeBase));
          break;
        case Pattern::kAllEqual:
          v = 7;
          break;
        case Pattern::kHeavyDuplicates:
          v = static_cast<Value>(r % 3) - 1;
          break;
      }
    }
  }
  if (p == Pattern::kSorted || p == Pattern::kReverse) {
    // Presorted (or reverse-sorted) input, duplicates kept.
    const std::vector<Value> unsorted = rows;
    const Value* base = unsorted.data();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [base, k](size_t a, size_t b) {
      return std::lexicographical_compare(base + a * k, base + (a + 1) * k,
                                          base + b * k, base + (b + 1) * k);
    });
    if (p == Pattern::kReverse) std::reverse(order.begin(), order.end());
    for (size_t r = 0; r < n; ++r) {
      std::copy_n(base + order[r] * k, k, rows.data() + r * k);
    }
  }
  return rows;
}

// Runs the kernel sequentially and with a 4-thread scheduler and checks
// both against the reference, byte for byte.
void CheckCase(Pattern p, size_t n, size_t k, const ParallelForFn& pfor) {
  SCOPED_TRACE(PatternName(p) + " n=" + std::to_string(n) +
               " k=" + std::to_string(k));
  const std::vector<Value> rows = MakeRows(p, n, k, 1000 * n + k);
  const std::vector<Value> expected = Reference(rows, k);
  std::vector<Value> seq = rows;
  SortDedupRows(seq, k);
  EXPECT_TRUE(seq == expected);
  std::vector<Value> par = rows;
  SortDedupRows(par, k, pfor);
  EXPECT_TRUE(par == expected);
}

TEST(RowSortTest, SmallSizesAllAritiesAllPatterns) {
  TaskScheduler scheduler(4);
  const ParallelForFn pfor = MakeParallelFor(&scheduler);
  for (size_t k = 1; k <= 6; ++k) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, kCutoff - 1, kCutoff,
                     kCutoff + 1}) {
      for (Pattern p : kAllPatterns) CheckCase(p, n, k, pfor);
    }
  }
}

TEST(RowSortTest, ParallelThresholdBothPaths) {
  TaskScheduler scheduler(4);
  const ParallelForFn pfor = MakeParallelFor(&scheduler);
  CheckCase(Pattern::kSmallDomain, kParallelThreshold - 1, 2, pfor);
  CheckCase(Pattern::kDictionary, kParallelThreshold, 2, pfor);  // 16 passes
  CheckCase(Pattern::kExtremes, kParallelThreshold + 1, 5, pfor);
}

TEST(RowSortTest, LargeInput) {
  TaskScheduler scheduler(4);
  CheckCase(Pattern::kSmallDomain, 200'000, 2, MakeParallelFor(&scheduler));
}

// Strictly increasing input exits after one linear check; anything else —
// an adjacent duplicate, one row out of place — takes the full path.
TEST(RowSortTest, EarlyExitOnlyForStrictlyIncreasingInput) {
  TaskScheduler scheduler(4);
  const ParallelForFn widths[] = {ParallelForFn(),
                                  MakeParallelFor(&scheduler)};
  for (size_t k = 1; k <= 5; ++k) {
    for (size_t n : {kCutoff / 2, size_t{5000}, kParallelThreshold + 10}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
      Rng rng(31 * n + k);
      std::vector<Value> random(n * k);
      for (Value& v : random) v = rng.Range(-1000000, 1000000);
      const std::vector<Value> sorted = Reference(random, k);
      ASSERT_GT(sorted.size() / k, size_t{2});
      const size_t rows = sorted.size() / k;
      const size_t mid = rows / 2;
      // One adjacent duplicate: row `mid` twice.
      std::vector<Value> dup = sorted;
      dup.insert(dup.begin() + mid * k, sorted.begin() + mid * k,
                 sorted.begin() + (mid + 1) * k);
      // Sorted except the last row, which belongs at the front.
      std::vector<Value> last = sorted;
      last.insert(last.end(), sorted.begin(), sorted.begin() + k);
      last.back() -= 1;
      const std::vector<Value> last_expected = Reference(last, k);
      for (const ParallelForFn& pfor : widths) {
        std::vector<Value> out = sorted;
        SortDedupRows(out, k, pfor);
        EXPECT_TRUE(out == sorted);  // unchanged = the reference
        out = dup;
        SortDedupRows(out, k, pfor);
        EXPECT_TRUE(out == sorted);
        out = last;
        SortDedupRows(out, k, pfor);
        EXPECT_TRUE(out == last_expected);
        EXPECT_EQ(out.size(), last.size());  // the moved row is distinct
        EXPECT_FALSE(out == last);
      }
    }
  }
}

TEST(RowSortTest, RelationSortAndDedupUsesKernelAndSkipsSortedInput) {
  std::vector<Value> rows = MakeRows(Pattern::kSmallDomain, 5000, 2, 9);
  const std::vector<Value> expected = Reference(rows, 2);
  Relation rel(2, rows);
  Relation alias = rel;  // shared storage: the sort must not touch it
  TaskScheduler scheduler(4);
  rel.SortAndDedup(MakeParallelFor(&scheduler));
  EXPECT_TRUE(rel.sorted());
  EXPECT_TRUE(rel.data() == expected);
  EXPECT_TRUE(alias.data() == rows);
  // Sorting a sorted relation is a no-op: the storage stays shared.
  Relation view = rel;
  view.SortAndDedup();
  EXPECT_TRUE(view.SharesStorageWith(rel));
}

TEST(RowSortTest, TrieMatchesSortedDistinctProjection) {
  std::vector<Value> rows = MakeRows(Pattern::kExtremes, 70'000, 3, 4);
  Relation rel(3, rows);
  const std::vector<int> cols = {2, 0};
  std::vector<Value> proj;
  for (size_t r = 0; r < rel.size(); ++r) {
    for (int c : cols) proj.push_back(rel.At(r, c));
  }
  const std::vector<Value> expected = Reference(proj, cols.size());
  TaskScheduler scheduler(4);
  for (const ParallelForFn& pfor :
       {ParallelForFn(), MakeParallelFor(&scheduler)}) {
    auto trie = TrieIndex::Build(rel, cols, pfor);
    ASSERT_EQ(trie->rows() * cols.size(), expected.size());
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), trie->data()));
  }
}

// Every route sorts its answer once, at the evaluator boundary, with the
// runtime's scheduler: answers must be byte-identical at threads 1 and 4.
TEST(RowSortTest, EngineAnswersByteIdenticalAcrossThreads) {
  Database dense = GraphDatabase(GnpRandom(60, 0.15, 11));
  Database sparse = GraphDatabase(GnpRandom(60, 0.04, 12));
  struct Case {
    const char* label;
    const Database* db;
    const char* text;
  };
  const Case cases[] = {
      {"acyclic", &dense, "ans(x, y) :- E(x, z), E(z, y)."},
      {"ucq", &dense,
       "ans(x, y) := E(x, y) or exists z . (E(x, z) and E(z, y))."},
      {"inequality", &dense, "ans(x, z) :- E(x, y), E(y, z), x != z."},
      {"datalog", &sparse,
       "path(x, y) :- E(x, y).\n"
       "path(x, y) :- path(x, z), E(z, y).\n"
       "@goal path.\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    std::vector<Relation> answers;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      EngineOptions options;
      options.threads = threads;
      Engine engine(*c.db, options);
      auto result = engine.RunText(c.text, nullptr);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(result.value().sorted());
      answers.push_back(std::move(result).value());
    }
    EXPECT_GT(answers[0].size(), 0u);
    EXPECT_TRUE(answers[0].data() == answers[1].data());
  }
}

}  // namespace
}  // namespace paraquery
