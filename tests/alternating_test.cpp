// Tests for the Section 4 alternating (AW[P]) extension: the alternating
// weighted satisfiability solver and its reduction to first-order queries.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "eval/fo.hpp"
#include "reductions/alternating.hpp"

namespace paraquery {
namespace {

AlternatingInstance Make(Circuit c, std::vector<std::vector<int>> blocks,
                         std::vector<int> weights) {
  AlternatingInstance inst;
  inst.circuit = std::move(c);
  inst.blocks = std::move(blocks);
  inst.weights = std::move(weights);
  return inst;
}

TEST(AlternatingSolverTest, PureExistentialMatchesWeightedSat) {
  // One ∃ block over all inputs == ordinary weighted satisfiability.
  Circuit c = AndOfInputs(3);
  auto yes = Make(c, {{0, 1, 2}}, {3});
  EXPECT_TRUE(SolveAlternatingWeightedSat(yes).ValueOrDie());
  auto no = Make(c, {{0, 1, 2}}, {2});
  EXPECT_FALSE(SolveAlternatingWeightedSat(no).ValueOrDie());
}

TEST(AlternatingSolverTest, ExistsForallSemantics) {
  // C = OR(x0, x1) over blocks V1 = {x0}, V2 = {x1}.
  // ∃ S1 (k=1) ∀ S2 (k=1): choosing x0 makes the OR true whatever x1 does:
  // true. With C = AND(x0, x1): ∃x0 ∀x1: x1 = itself always set -> true;
  // contrast AND(x0, x1, x2) with V2 = {x1, x2}, k2 = 1: the ∀ can pick x1
  // only or x2 only — AND fails: false.
  Circuit or2 = OrOfInputs(2);
  EXPECT_TRUE(SolveAlternatingWeightedSat(Make(or2, {{0}, {1}}, {1, 1}))
                  .ValueOrDie());
  Circuit and3 = AndOfInputs(3);
  EXPECT_FALSE(SolveAlternatingWeightedSat(Make(and3, {{0}, {1, 2}}, {1, 1}))
                   .ValueOrDie());
  // OR over the ∀ block: any single choice satisfies: true.
  Circuit or3 = OrOfInputs(3);
  EXPECT_TRUE(SolveAlternatingWeightedSat(Make(or3, {{0}, {1, 2}}, {1, 1}))
                  .ValueOrDie());
}

TEST(AlternatingSolverTest, OversizedWeightSemantics) {
  Circuit or2 = OrOfInputs(2);
  // ∃ block weight exceeding the block: false.
  EXPECT_FALSE(SolveAlternatingWeightedSat(Make(or2, {{0}}, {2})).ValueOrDie());
  // ∀ block weight exceeding the block: vacuously true (no subsets).
  EXPECT_TRUE(SolveAlternatingWeightedSat(Make(or2, {{0}, {1}}, {1, 2}))
                  .ValueOrDie());
}

TEST(AlternatingSolverTest, ValidationCatchesBadInstances) {
  Circuit c = OrOfInputs(2);
  auto overlap = Make(c, {{0, 1}, {1}}, {1, 1});
  EXPECT_FALSE(SolveAlternatingWeightedSat(overlap).ok());
  Circuit with_not(1);
  with_not.SetOutput(with_not.AddGate(GateKind::kNot, {0}));
  auto non_monotone = Make(with_not, {{0}}, {1});
  EXPECT_FALSE(SolveAlternatingWeightedSat(non_monotone).ok());
}

TEST(AlternatingReductionTest, QueryStructure) {
  Circuit c = OrOfInputs(4);
  auto inst = Make(c, {{0, 1}, {2, 3}}, {1, 1});
  auto red = AlternatingToFo(inst).ValueOrDie();
  // Variables: x1_1, x2_1, w, y.
  EXPECT_EQ(red.query.NumVariables(), 4);
  EXPECT_TRUE(red.db.HasRelation("P"));
  EXPECT_TRUE(red.db.HasRelation("C"));
}

// The headline property: query truth == alternating solver verdict.
class AlternatingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlternatingPropertyTest, FoQueryMatchesSolver) {
  Rng rng(GetParam());
  // Small random monotone circuit over 4 inputs.
  Circuit c(4);
  int g1 = c.AddGate(rng.Chance(0.5) ? GateKind::kAnd : GateKind::kOr,
                     {0, 1, static_cast<int>(rng.Below(4))});
  int g2 = c.AddGate(rng.Chance(0.5) ? GateKind::kAnd : GateKind::kOr,
                     {2, 3, g1});
  c.SetOutput(c.AddGate(rng.Chance(0.5) ? GateKind::kAnd : GateKind::kOr,
                        {g1, g2}));
  // Two blocks (∃ then ∀), weight 1 each, random split of the inputs.
  std::vector<int> v1, v2;
  for (int i = 0; i < 4; ++i) (rng.Chance(0.5) ? v1 : v2).push_back(i);
  if (v1.empty()) {
    v1.push_back(v2.back());
    v2.pop_back();
  }
  if (v2.empty()) {
    v2.push_back(v1.back());
    v1.pop_back();
  }
  auto inst = Make(c, {v1, v2}, {1, 1});
  bool truth = SolveAlternatingWeightedSat(inst).ValueOrDie();
  auto red = AlternatingToFo(inst).ValueOrDie();
  FoOptions fo;
  fo.max_rows = 50'000'000;
  bool query = FirstOrderNonempty(red.db, red.query, {}, fo).ValueOrDie();
  EXPECT_EQ(truth, query) << "|V1|=" << v1.size() << " |V2|=" << v2.size();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlternatingPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(AlternatingReductionTest, WeightTwoExistentialBlock) {
  // ∃ two distinct inputs from V1 such that AND(V1) quantified ... use
  // C = AND(x0, x1): ∃ S1 = {x0, x1}: true.
  Circuit c = AndOfInputs(2);
  auto inst = Make(c, {{0, 1}}, {2});
  ASSERT_TRUE(SolveAlternatingWeightedSat(inst).ValueOrDie());
  auto red = AlternatingToFo(inst).ValueOrDie();
  EXPECT_TRUE(FirstOrderNonempty(red.db, red.query).ValueOrDie());
  // k = 1 cannot satisfy the AND.
  auto inst1 = Make(c, {{0, 1}}, {1});
  ASSERT_FALSE(SolveAlternatingWeightedSat(inst1).ValueOrDie());
  auto red1 = AlternatingToFo(inst1).ValueOrDie();
  EXPECT_FALSE(FirstOrderNonempty(red1.db, red1.query).ValueOrDie());
}

TEST(AlternatingReductionTest, ForallWeightTwo) {
  // C = OR(x1, x2) with V1 = {x0} (∃, irrelevant), V2 = {x1, x2} (∀, k=2):
  // the single ∀ choice sets both -> OR true. With AND(x1, x2) also true;
  // with AND(x0, x1, x2) and k1=1 on {x0}: ∃x0 ∀{x1,x2}: all three set:
  // true.
  Circuit and3 = AndOfInputs(3);
  auto inst = Make(and3, {{0}, {1, 2}}, {1, 2});
  ASSERT_TRUE(SolveAlternatingWeightedSat(inst).ValueOrDie());
  auto red = AlternatingToFo(inst).ValueOrDie();
  FoOptions fo;
  fo.max_rows = 50'000'000;
  EXPECT_TRUE(FirstOrderNonempty(red.db, red.query, {}, fo).ValueOrDie());
}

}  // namespace
}  // namespace paraquery
