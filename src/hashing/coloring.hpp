// Color-coding hash families for the Theorem 2 driver.
//
// The paper evaluates Q(d) = ∪_h Q_h(d) over functions h : D -> {1..k}. Two
// regimes are implemented:
//
//  * Monte Carlo (the paper's randomized algorithm): c·e^k independent random
//    colorings. If a satisfying instantiation exists, each trial is consistent
//    with it with probability >= l!/l^k > e^-k, so all trials fail with
//    probability <= (1 - e^-k)^{c·e^k} <= e^-c.
//
//  * Certified (the deterministic algorithm): the paper invokes a k-perfect
//    family of size 2^{O(k)} log |D| from Alon-Yuster-Zwick. We substitute
//    families that are *certified* k-perfect on a known ground set (the
//    active domain of the relevant columns):
//      - k = 2: the bit family, perfect by construction. Each ground value
//        is coded by its rank in the ground set, and member b colors v by
//        bit b of its code. Two distinct values differ in some bit, so
//        ceil(log2 |ground|) members separate every pair, and no smaller
//        family can.
//      - k >= 3: a seeded random covering. Members are added until every
//        k-subset of the ground set is injectively colored by some member.
//        Expected size is O(e^k · k · log |ground|) (coupon collector),
//        matching the paper's g(v) = 2^{O(v log v)} budget.
//    Either way the union ∪_h Q_h(d) is provably exact. See DESIGN.md §2
//    for the substitution rationale.
#ifndef PARAQUERY_HASHING_COLORING_H_
#define PARAQUERY_HASHING_COLORING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "relational/relation.hpp"
#include "relational/value.hpp"

namespace paraquery {

/// A finite family of colorings h_i : Value -> {1..k}.
class ColoringFamily {
 public:
  /// Monte Carlo family of ceil(c · e^k) seeded random colorings.
  /// `c` is the error exponent: failure probability <= e^-c on satisfiable
  /// instances. k must be >= 0; for k <= 1 a single member suffices and the
  /// family is exact.
  static ColoringFamily MonteCarlo(int k, double c, uint64_t seed);

  /// Deterministic family certified k-perfect on `ground` (sorted distinct
  /// values): for every k-subset S of `ground`, some member is injective on
  /// S. For k = 2 this is the bit family (bit_width(|ground| - 1) members, at
  /// least one, and no subset enumeration). For k >= 3 it fails with
  /// ResourceExhausted if C(|ground|, k) > max_subsets; for every k, if
  /// more than max_members members would be needed.
  static Result<ColoringFamily> Certified(const std::vector<Value>& ground,
                                          int k, uint64_t seed,
                                          uint64_t max_subsets = 2'000'000,
                                          size_t max_members = 100'000);

  int k() const { return k_; }
  size_t size() const { return coded() ? bits_ : seeds_.size(); }
  bool certified() const { return certified_; }
  /// Whether members color by one bit of a value's code (the k = 2
  /// certified family) rather than by a seeded hash.
  bool coded() const { return bits_ > 0; }
  /// "bits" or "random".
  const char* KindName() const { return coded() ? "bits" : "random"; }

  /// Bit family only: the codes of the values of `rows` in columns `cols`,
  /// row by row (codes[r * cols.size() + i] for column cols[i]), looked up
  /// through one hash index over the ground set instead of a search per
  /// value.
  std::vector<uint32_t> Codes(const Relation& rows,
                              const std::vector<int>& cols) const;

  /// Bit family only: the color member `member` gives a value of code
  /// `code`.
  static Value BitColor(size_t member, uint64_t code) {
    return 1 + static_cast<Value>((code >> member) & 1);
  }

  /// Color of `v` under member `member`, in {1..k} (always 1 when k <= 1).
  Value Color(size_t member, Value v) const {
    if (k_ <= 1) return 1;
    if (coded()) return BitColor(member, Code(v));
    return 1 + static_cast<Value>(HashValue(static_cast<Value>(
                                      static_cast<uint64_t>(v) ^
                                      seeds_[member])) %
                                  static_cast<uint64_t>(k_));
  }

  /// True if `member` assigns pairwise-distinct colors to `values`.
  bool InjectiveOn(size_t member, const std::vector<Value>& values) const;

  /// Exhaustive check that the family is k-perfect on `ground`
  /// (test helper; cost C(|ground|, k) · size()).
  bool IsPerfectOn(const std::vector<Value>& ground) const;

 private:
  ColoringFamily(int k, std::vector<uint64_t> seeds, bool certified)
      : k_(k), seeds_(std::move(seeds)), certified_(certified) {}

  /// The k = 2 bit family over `ground` (sorted distinct values).
  static Result<ColoringFamily> Bits(const std::vector<Value>& ground,
                                     size_t max_members);

  /// Bit family only: the code of `v`, its rank in the ground set.
  uint64_t Code(Value v) const {
    const std::vector<Value>& ground = ground_.data();
    auto at = std::lower_bound(ground.begin(), ground.end(), v);
    return static_cast<uint64_t>(at - ground.begin());
  }

  int k_;
  std::vector<uint64_t> seeds_;  // random members
  size_t bits_ = 0;              // bit family: members (= code bits used)
  Relation ground_{1};           // bit family: the ground set (codes = ranks)
  bool certified_;
};

}  // namespace paraquery

#endif  // PARAQUERY_HASHING_COLORING_H_
