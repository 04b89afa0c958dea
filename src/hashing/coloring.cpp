#include "hashing/coloring.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "relational/row_index.hpp"

namespace paraquery {

ColoringFamily ColoringFamily::MonteCarlo(int k, double c, uint64_t seed) {
  PQ_CHECK(k >= 0, "MonteCarlo: negative k");
  PQ_CHECK(c > 0, "MonteCarlo: error exponent must be positive");
  size_t members = 1;
  if (k > 1) {
    double raw = std::ceil(c * std::exp(static_cast<double>(k)));
    members = static_cast<size_t>(std::max(1.0, raw));
  }
  Rng rng(seed);
  std::vector<uint64_t> seeds(members);
  for (auto& s : seeds) s = rng.Next();
  return ColoringFamily(k, std::move(seeds), /*certified=*/k <= 1);
}

Result<ColoringFamily> ColoringFamily::Certified(
    const std::vector<Value>& ground, int k, uint64_t seed,
    uint64_t max_subsets, size_t max_members) {
  PQ_CHECK(k >= 0, "Certified: negative k");
  if (k == 2) return Bits(ground, max_members);
  int n = static_cast<int>(ground.size());
  if (k <= 1 || n <= k) {
    // One member suffices: with n <= k we may still need injectivity, which a
    // single hash seed might miss, so for 1 < n <= k fall through to the
    // search below over all (= one) subsets.
    if (k <= 1) {
      return ColoringFamily(k, {0xabcdef1234567890ull}, /*certified=*/true);
    }
  }
  uint64_t num_subsets = Binomial(static_cast<uint64_t>(n),
                                  static_cast<uint64_t>(k));
  if (num_subsets > max_subsets) {
    return Status::ResourceExhausted(internal::StrCat(
        "Certified coloring family: C(", n, ",", k, ") = ", num_subsets,
        " exceeds limit ", max_subsets));
  }
  // Collect all k-subsets (by ground indices), then cover them greedily with
  // seeded random members.
  std::vector<std::vector<int>> uncovered;
  uncovered.reserve(num_subsets);
  ForEachKSubset(n, k, [&](const std::vector<int>& subset) {
    uncovered.push_back(subset);
    return true;
  });

  Rng rng(seed);
  std::vector<uint64_t> seeds;
  std::vector<Value> colors(k);
  while (!uncovered.empty()) {
    if (seeds.size() >= max_members) {
      return Status::ResourceExhausted(internal::StrCat(
          "Certified coloring family: exceeded ", max_members, " members with ",
          uncovered.size(), " subsets uncovered"));
    }
    uint64_t s = rng.Next();
    ColoringFamily probe(k, {s}, false);
    size_t kept = 0;
    for (size_t i = 0; i < uncovered.size(); ++i) {
      bool injective = true;
      for (int j = 0; j < k; ++j) {
        colors[j] = probe.Color(0, ground[uncovered[i][j]]);
        for (int l = 0; l < j; ++l) {
          if (colors[l] == colors[j]) {
            injective = false;
            break;
          }
        }
        if (!injective) break;
      }
      if (!injective) {
        if (kept != i) uncovered[kept] = std::move(uncovered[i]);
        ++kept;
      }
    }
    bool useful = kept < uncovered.size();
    uncovered.resize(kept);
    if (useful) seeds.push_back(s);
  }
  if (seeds.empty()) seeds.push_back(rng.Next());
  return ColoringFamily(k, std::move(seeds), /*certified=*/true);
}

Result<ColoringFamily> ColoringFamily::Bits(const std::vector<Value>& ground,
                                            size_t max_members) {
  ColoringFamily family(2, {}, /*certified=*/true);
  const uint64_t n = ground.size();
  if (n > 0) family.ground_ = Relation(1, ground);
  const int bits = static_cast<int>(std::bit_width(n > 0 ? n - 1 : 0));
  // Fewer than two values: no pair to separate, one member still runs.
  family.bits_ = static_cast<size_t>(std::max(bits, 1));
  if (family.bits_ > max_members) {
    return Status::ResourceExhausted(internal::StrCat(
        "Certified coloring family: ", family.bits_, " members exceed limit ",
        max_members));
  }
  return family;
}

std::vector<uint32_t> ColoringFamily::Codes(
    const Relation& rows, const std::vector<int>& cols) const {
  PQ_CHECK(coded(), "ColoringFamily::Codes: not a bit family");
  std::vector<uint32_t> codes(rows.size() * cols.size());
  if (codes.empty()) return codes;
  // The ground relation is sorted, so a value's row in it is its rank.
  const RowIndex index(ground_, {0});
  uint32_t* code = codes.data();
  for (size_t r = 0; r < rows.size(); ++r) {
    for (const int& c : cols) {
      const uint32_t at = index.Find(rows, r, std::span<const int>(&c, 1));
      *code++ = at != RowIndex::kNone
                    ? at
                    : static_cast<uint32_t>(Code(rows.At(r, c)));
    }
  }
  return codes;
}

bool ColoringFamily::InjectiveOn(size_t member,
                                 const std::vector<Value>& values) const {
  std::vector<Value> colors;
  colors.reserve(values.size());
  for (Value v : values) colors.push_back(Color(member, v));
  std::sort(colors.begin(), colors.end());
  return std::adjacent_find(colors.begin(), colors.end()) == colors.end();
}

bool ColoringFamily::IsPerfectOn(const std::vector<Value>& ground) const {
  if (k_ <= 1) return true;
  int n = static_cast<int>(ground.size());
  bool all_covered = true;
  ForEachKSubset(n, k_, [&](const std::vector<int>& subset) {
    std::vector<Value> values;
    values.reserve(subset.size());
    for (int i : subset) values.push_back(ground[i]);
    for (size_t m = 0; m < size(); ++m) {
      if (InjectiveOn(m, values)) return true;  // next subset
    }
    all_covered = false;
    return false;  // stop
  });
  return all_covered;
}

}  // namespace paraquery
