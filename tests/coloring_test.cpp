#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <set>

#include "common/rng.hpp"
#include "hashing/coloring.hpp"

namespace paraquery {
namespace {

TEST(ColoringTest, MonteCarloSizeMatchesFormula) {
  auto fam = ColoringFamily::MonteCarlo(4, 2.0, 1);
  EXPECT_EQ(fam.size(),
            static_cast<size_t>(std::ceil(2.0 * std::exp(4.0))));
  EXPECT_EQ(fam.k(), 4);
  EXPECT_FALSE(fam.certified());
}

TEST(ColoringTest, TrivialKIsSingleMemberCertified) {
  auto fam0 = ColoringFamily::MonteCarlo(0, 1.0, 1);
  EXPECT_EQ(fam0.size(), 1u);
  EXPECT_TRUE(fam0.certified());
  auto fam1 = ColoringFamily::MonteCarlo(1, 1.0, 1);
  EXPECT_EQ(fam1.size(), 1u);
  EXPECT_EQ(fam1.Color(0, 12345), 1);
}

TEST(ColoringTest, ColorsInRange) {
  auto fam = ColoringFamily::MonteCarlo(5, 1.0, 7);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    Value v = static_cast<Value>(rng.Next());
    for (size_t m = 0; m < 3; ++m) {
      Value c = fam.Color(m, v);
      EXPECT_GE(c, 1);
      EXPECT_LE(c, 5);
    }
  }
}

TEST(ColoringTest, ColorIsDeterministic) {
  auto a = ColoringFamily::MonteCarlo(3, 1.0, 42);
  auto b = ColoringFamily::MonteCarlo(3, 1.0, 42);
  for (Value v = 0; v < 100; ++v) EXPECT_EQ(a.Color(0, v), b.Color(0, v));
}

TEST(ColoringTest, CertifiedIsPerfectOnGround) {
  std::vector<Value> ground;
  for (Value v = 100; v < 130; ++v) ground.push_back(v * 7919);
  for (int k = 2; k <= 4; ++k) {
    auto fam = ColoringFamily::Certified(ground, k, /*seed=*/5).ValueOrDie();
    EXPECT_TRUE(fam.certified());
    EXPECT_TRUE(fam.IsPerfectOn(ground)) << "k=" << k;
    EXPECT_GE(fam.size(), 1u);
  }
}

TEST(ColoringTest, CertifiedRejectsHugeGround) {
  std::vector<Value> ground(100);
  for (int i = 0; i < 100; ++i) ground[i] = i;
  auto fam = ColoringFamily::Certified(ground, 5, 1, /*max_subsets=*/1000);
  EXPECT_EQ(fam.status().code(), StatusCode::kResourceExhausted);
}

TEST(ColoringTest, CertifiedTinyGround) {
  // Ground smaller than k: no k-subsets, trivially certified.
  std::vector<Value> ground = {10, 20};
  auto fam = ColoringFamily::Certified(ground, 3, 1).ValueOrDie();
  EXPECT_TRUE(fam.certified());
  // Ground exactly k: needs one injective member.
  std::vector<Value> ground3 = {10, 20, 30};
  auto fam3 = ColoringFamily::Certified(ground3, 3, 1).ValueOrDie();
  EXPECT_TRUE(fam3.IsPerfectOn(ground3));
  EXPECT_STREQ(fam3.KindName(), "random");
}

// The k = 2 family must separate every pair of `ground` (sorted distinct):
// each value's colors across the members, read as a signature, are pairwise
// distinct. Exhaustively re-checked with IsPerfectOn for small grounds.
ColoringFamily ExpectSeparatesPairs(const std::vector<Value>& ground) {
  auto fam = ColoringFamily::Certified(ground, 2, /*seed=*/1).ValueOrDie();
  EXPECT_TRUE(fam.certified());
  EXPECT_STREQ(fam.KindName(), "bits");
  const uint64_t n = ground.size();
  // ceil(log2 n) members, the fewest that can separate n values with two
  // colors.
  EXPECT_EQ(fam.size(), std::bit_width(n - 1));
  std::set<std::vector<Value>> signatures;
  for (Value v : ground) {
    std::vector<Value> signature;
    for (size_t m = 0; m < fam.size(); ++m) {
      const Value c = fam.Color(m, v);
      EXPECT_TRUE(c == 1 || c == 2);
      signature.push_back(c);
    }
    signatures.insert(std::move(signature));
  }
  EXPECT_EQ(signatures.size(), ground.size());
  // A value's code is its rank in the ground set.
  const std::vector<uint32_t> codes = fam.Codes(Relation(1, ground), {0});
  EXPECT_EQ(codes.size(), n);
  for (uint32_t i = 0; i < codes.size(); ++i) EXPECT_EQ(codes[i], i);
  if (n <= 300) {
    EXPECT_TRUE(fam.IsPerfectOn(ground));
  }
  return fam;
}

TEST(ColoringTest, PairFamilyIsABitCodeOfMinimalSize) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  for (uint64_t n : {2, 3, 4, 5, 8, 9, 64, 65, 256, 257}) {
    SCOPED_TRACE(n);
    std::vector<Value> dense, gapped, sparse, negative, dictionary, low, high;
    for (uint64_t i = 0; i < n; ++i) {
      const Value v = static_cast<Value>(i);
      dense.push_back(1'000'000 + v);
      gapped.push_back(2 * v);
      sparse.push_back(v * 7919 * 7919);
      negative.push_back(-static_cast<Value>(n) + v);
      dictionary.push_back((Value{1} << 62) + v * 1'000'003);
      low.push_back(kMin + v);
      high.push_back(kMax - static_cast<Value>(n - 1) + v);
    }
    // Every ground codes by rank, whatever its gaps or sign.
    for (const auto* g :
         {&dense, &gapped, &sparse, &negative, &dictionary, &low, &high}) {
      ExpectSeparatesPairs(*g);
    }
  }
  // 0, 2, ..., 198: 100 values in 7 members (an offset code would need 8).
  std::vector<Value> evens;
  for (Value v = 0; v < 200; v += 2) evens.push_back(v);
  EXPECT_EQ(ExpectSeparatesPairs(evens).size(), 7u);
  // The full value range: ranks need 1 or 2 bits.
  EXPECT_EQ(ExpectSeparatesPairs({kMin, kMax}).size(), 1u);
  EXPECT_EQ(ExpectSeparatesPairs({kMin, -1, 0, kMax}).size(), 2u);
  // Fewer than two values: one member, nothing to separate.
  EXPECT_EQ(ColoringFamily::Certified({}, 2, 1).ValueOrDie().size(), 1u);
  EXPECT_EQ(ColoringFamily::Certified({kMin}, 2, 1).ValueOrDie().size(), 1u);
}

TEST(ColoringTest, PrecomputedCodesColorLikeColor) {
  // Ground values and values between or outside them, in two columns.
  const std::vector<Value> ground = {-50, -7, 3, 4, 90, Value{1} << 62};
  auto fam = ColoringFamily::Certified(ground, 2, 1).ValueOrDie();
  Relation rows(2);
  for (Value v : {-50, -8, 3, 5, 91}) rows.Add({v, -v});
  rows.Add({Value{1} << 62, std::numeric_limits<Value>::min()});
  const std::vector<uint32_t> codes = fam.Codes(rows, {1, 0});
  ASSERT_EQ(codes.size(), 2 * rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t m = 0; m < fam.size(); ++m) {
      EXPECT_EQ(ColoringFamily::BitColor(m, codes[2 * r]),
                fam.Color(m, rows.At(r, 1)));
      EXPECT_EQ(ColoringFamily::BitColor(m, codes[2 * r + 1]),
                fam.Color(m, rows.At(r, 0)));
    }
  }
}

TEST(ColoringTest, PairFamilyNeedsNoSubsetEnumeration) {
  // C(3000, 2) ~ 4.5M pairs exceed the subset budget a random covering
  // would need; the bit family is certified anyway, with 12 members.
  std::vector<Value> ground;
  for (Value v = 0; v < 3000; ++v) ground.push_back(v * 3);
  auto fam = ColoringFamily::Certified(ground, 2, 1, /*max_subsets=*/1);
  ASSERT_TRUE(fam.ok()) << fam.status();
  EXPECT_EQ(fam.value().size(), 12u);
  ExpectSeparatesPairs(ground);
  // The member budget still binds.
  EXPECT_EQ(ColoringFamily::Certified(ground, 2, 1, 2'000'000,
                                      /*max_members=*/11)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(ColoringTest, InjectiveOnDetectsCollisions) {
  auto fam = ColoringFamily::MonteCarlo(2, 1.0, 9);
  // With k=2 and 3 values, injectivity is impossible.
  EXPECT_FALSE(fam.InjectiveOn(0, {1, 2, 3}));
}

TEST(ColoringTest, MonteCarloHitsWitnessWithHighProbability) {
  // Empirical sanity check of the paper's probability bound: for a fixed
  // witness set of size k, at least one member of a c=3 family should be
  // injective on it (failure probability <= e^-3 ~ 0.05; seeds chosen fixed).
  for (int k = 2; k <= 5; ++k) {
    std::vector<Value> witness;
    for (int i = 0; i < k; ++i) witness.push_back(1000 + i * 31337);
    auto fam = ColoringFamily::MonteCarlo(k, 3.0, 1234 + k);
    bool hit = false;
    for (size_t m = 0; m < fam.size() && !hit; ++m) {
      hit = fam.InjectiveOn(m, witness);
    }
    EXPECT_TRUE(hit) << "k=" << k;
  }
}

}  // namespace
}  // namespace paraquery
