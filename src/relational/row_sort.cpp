#include "relational/row_sort.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "common/status.hpp"

namespace paraquery {

namespace {

/// Below this many rows a comparison sort beats the radix passes' fixed
/// per-pass cost (a 256-bucket prefix sum).
constexpr size_t kRadixMinRows = 256;
/// Below this the passes run sequentially even when `pfor` is bound.
constexpr size_t kParallelSortMinRows = size_t{1} << 16;
/// Rows per chunk of the parallel passes; every pass chunks identically.
constexpr size_t kSortGrain = size_t{1} << 14;
constexpr size_t kBuckets = 256;

/// One radix pass: the byte at `shift` of column `col`'s key.
struct Digit {
  size_t col;
  unsigned shift;
};

// Row geometry: K values per row, or the runtime arity `k` when K == 0 (the
// generic path above arity 4). A fixed K turns every row copy and compare
// into a few register moves.
template <size_t K>
struct RowShape {
  size_t k;
  size_t width() const { return K != 0 ? K : k; }
  void Copy(Value* dst, const Value* src) const {
    std::memcpy(dst, src, width() * sizeof(Value));
  }
  bool Equal(const Value* a, const Value* b) const {
    return std::equal(a, a + width(), b);
  }
};

size_t DigitOf(const Value* row, const Digit& d, const uint64_t* mins) {
  return ((static_cast<uint64_t>(row[d.col]) - mins[d.col]) >> d.shift) &
         (kBuckets - 1);
}

size_t FloorLog2(size_t n) {
  size_t log = 0;
  while (n >>= 1) ++log;
  return log;
}

template <size_t K>
void ComparisonSortDedup(std::vector<Value>& rows, size_t n,
                         RowShape<K> shape) {
  if constexpr (K != 0) {
    using Row = std::array<Value, K>;
    static_assert(sizeof(Row) == K * sizeof(Value));
    std::vector<Row> tmp(n);
    std::memcpy(tmp.data(), rows.data(), n * sizeof(Row));
    std::sort(tmp.begin(), tmp.end());
    const size_t kept = std::unique(tmp.begin(), tmp.end()) - tmp.begin();
    std::memcpy(rows.data(), tmp.data(), kept * sizeof(Row));
    rows.resize(kept * K);
  } else {
    const size_t k = shape.width();
    const Value* base = rows.data();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [base, k](size_t a, size_t b) {
      return std::lexicographical_compare(base + a * k, base + (a + 1) * k,
                                          base + b * k, base + (b + 1) * k);
    });
    std::vector<Value> out(n * k);
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      const Value* row = base + order[i] * k;
      if (kept > 0 && shape.Equal(row, out.data() + (kept - 1) * k)) continue;
      shape.Copy(out.data() + kept * k, row);
      ++kept;
    }
    out.resize(kept * k);
    rows.swap(out);
  }
}

// LSD radix sort over `digits` (least significant first), then a
// deduplicating compaction. `pfor` is empty for sequential inputs.
template <size_t K>
void RadixSortDedup(std::vector<Value>& rows, size_t n, RowShape<K> shape,
                    const std::vector<Digit>& digits,
                    const std::vector<uint64_t>& mins,
                    const ParallelForFn& pfor) {
  const size_t w = shape.width();
  const size_t passes = digits.size();
  const uint64_t* mn = mins.data();
  std::vector<Value> scratch(n * w);
  Value* src = rows.data();
  Value* dst = scratch.data();
  // Per-chunk histograms give each chunk its own scatter offsets per bucket
  // (buckets in order, chunks in order within a bucket), so the scatter is
  // stable and chunks write disjoint slots. Sequential inputs are one chunk.
  const size_t grain = pfor ? kSortGrain : n;
  const size_t chunks = (n + grain - 1) / grain;
  std::vector<size_t> counts(chunks * kBuckets);
  for (size_t p = 0; p < passes; ++p) {
    const Digit d = digits[p];
    ForChunks(pfor, n, grain, [&, src](size_t c, size_t b, size_t e) {
      size_t* local = counts.data() + c * kBuckets;
      std::fill(local, local + kBuckets, size_t{0});
      for (size_t i = b; i < e; ++i) ++local[DigitOf(src + i * w, d, mn)];
    });
    size_t acc = 0;
    bool noop = false;
    for (size_t bucket = 0; bucket < kBuckets && !noop; ++bucket) {
      const size_t start = acc;
      for (size_t c = 0; c < chunks; ++c) {
        size_t& slot = counts[c * kBuckets + bucket];
        const size_t count = slot;
        slot = acc;
        acc += count;
      }
      noop = acc - start == n;
    }
    if (noop) continue;  // every row shares this digit
    ForChunks(pfor, n, grain, [&, src, dst](size_t c, size_t b, size_t e) {
      size_t offs[kBuckets];
      std::copy_n(counts.data() + c * kBuckets, kBuckets, offs);
      for (size_t i = b; i < e; ++i) {
        const Value* row = src + i * w;
        shape.Copy(dst + offs[DigitOf(row, d, mn)]++ * w, row);
      }
    });
    std::swap(src, dst);
  }
  // Deduplicating compaction from `src` into `dst`: a row survives when it
  // differs from its predecessor, so chunks count and copy independently.
  std::vector<size_t> chunk_off(chunks + 1, 0);
  ForChunks(pfor, n, grain, [&, src](size_t c, size_t b, size_t e) {
    size_t kept = 0;
    for (size_t i = b; i < e; ++i) {
      kept += i == 0 || !shape.Equal(src + i * w, src + (i - 1) * w);
    }
    chunk_off[c + 1] = kept;
  });
  std::partial_sum(chunk_off.begin(), chunk_off.end(), chunk_off.begin());
  ForChunks(pfor, n, grain, [&, src, dst](size_t c, size_t b, size_t e) {
    Value* out = dst + chunk_off[c] * w;
    for (size_t i = b; i < e; ++i) {
      if (i > 0 && shape.Equal(src + i * w, src + (i - 1) * w)) continue;
      shape.Copy(out, src + i * w);
      out += w;
    }
  });
  if (dst != rows.data()) rows.swap(scratch);
  rows.resize(chunk_off[chunks] * w);
}

// True iff every row is lexicographically greater than the one before it
// (already sorted and duplicate-free). Stops at the first row that is not,
// so random input costs O(1).
template <size_t K>
bool StrictlyIncreasing(const Value* base, size_t n, RowShape<K> shape) {
  const size_t w = shape.width();
  for (size_t i = 1; i < n; ++i) {
    const Value* prev = base + (i - 1) * w;
    if (!std::lexicographical_compare(prev, prev + w, prev + w, prev + 2 * w)) {
      return false;
    }
  }
  return true;
}

template <size_t K>
void SortDedup(std::vector<Value>& rows, size_t n, RowShape<K> shape,
               const ParallelForFn& pfor) {
  if (StrictlyIncreasing(rows.data(), n, shape)) return;
  if (n < kRadixMinRows) {
    ComparisonSortDedup(rows, n, shape);
    return;
  }
  const size_t w = shape.width();
  const ParallelForFn& par =
      n >= kParallelSortMinRows ? pfor : ParallelForFn();
  // Per-column value ranges; the radix key of column c is v - min_c.
  const size_t grain = par ? kSortGrain : n;
  const size_t chunks = (n + grain - 1) / grain;
  std::vector<Value> lo(chunks * w), hi(chunks * w);
  const Value* base = rows.data();
  ForChunks(par, n, grain, [&](size_t c, size_t b, size_t e) {
    Value* l = lo.data() + c * w;
    Value* h = hi.data() + c * w;
    std::copy_n(base + b * w, w, l);
    std::copy_n(base + b * w, w, h);
    for (size_t i = b + 1; i < e; ++i) {
      const Value* row = base + i * w;
      for (size_t j = 0; j < w; ++j) {
        l[j] = std::min(l[j], row[j]);
        h[j] = std::max(h[j], row[j]);
      }
    }
  });
  std::vector<uint64_t> mins(w);
  std::vector<Digit> digits;
  for (size_t j = w; j-- > 0;) {
    Value l = lo[j], h = hi[j];
    for (size_t c = 1; c < chunks; ++c) {
      l = std::min(l, lo[c * w + j]);
      h = std::max(h, hi[c * w + j]);
    }
    mins[j] = static_cast<uint64_t>(l);
    const uint64_t range = static_cast<uint64_t>(h) - mins[j];
    for (unsigned shift = 0; shift < 64 && (range >> shift) != 0; shift += 8) {
      digits.push_back(Digit{j, shift});
    }
  }
  // A comparison sort costs about log2(n) steps per row, a radix pass one:
  // wide keys on a small input (e.g. a column mixing plain integers with
  // dictionary codes, 8 passes alone) sort faster by comparison.
  if (digits.size() > FloorLog2(n)) {
    ComparisonSortDedup(rows, n, shape);
    return;
  }
  RadixSortDedup(rows, n, shape, digits, mins, par);
}

}  // namespace

void SortDedupRows(std::vector<Value>& rows, size_t arity,
                   const ParallelForFn& pfor) {
  PQ_CHECK(arity > 0, "SortDedupRows requires arity > 0");
  PQ_CHECK(rows.size() % arity == 0,
           "SortDedupRows: buffer size is not a multiple of the arity");
  const size_t n = rows.size() / arity;
  if (n <= 1) return;
  switch (arity) {
    case 1:
      return SortDedup(rows, n, RowShape<1>{1}, pfor);
    case 2:
      return SortDedup(rows, n, RowShape<2>{2}, pfor);
    case 3:
      return SortDedup(rows, n, RowShape<3>{3}, pfor);
    case 4:
      return SortDedup(rows, n, RowShape<4>{4}, pfor);
    default:
      return SortDedup(rows, n, RowShape<0>{arity}, pfor);
  }
}

}  // namespace paraquery
