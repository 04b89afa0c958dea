// Flat hash index over the rows of a Relation — the shared join/lookup kernel
// behind NaturalJoin, Semijoin, Difference, Intersect, hash-based dedup, and
// the naive evaluator's indexed backtracking.
//
// Memory layout (RowIndex)
// ------------------------
// Three contiguous arrays, no per-key heap allocations:
//
//   hashes_[r]  : uint64  cached hash of row r's key columns (one per row)
//   slots_[s]   : uint32  open-addressing table, power-of-two size, linear
//                         probing; each occupied slot holds the FIRST row id
//                         of one distinct key (kNone = empty slot)
//   next_[r]    : uint32  intrusive chain: next row with the SAME key as row
//                         r (full key equality, not just equal hash), in
//                         increasing row order; kNone terminates the chain
//
// Invariants:
//   * slots_.size() is a power of two and at least 2 * rel.size(), so the
//     load factor never exceeds 1/2 and linear probing terminates.
//   * Each occupied slot corresponds to exactly one distinct key value; hash
//     collisions between different keys occupy different slots (probing
//     continues past a slot whose key differs).
//   * The chain hanging off a slot's head row enumerates every row with that
//     key in increasing row order, so probes see rows in insertion order —
//     the same match order a scan would produce.
//   * The index borrows `rel`'s row storage; it must not outlive it, and the
//     relation must not be modified while the index is in use. Because row
//     storage is a shared RowBlock (see relation.hpp), the index is equally
//     valid for ANY Relation view sharing storage with `rel`
//     (SharesStorageWith) — e.g. an attribute-relabeled view of a cached EDB
//     materialization. Copy-on-write keeps borrowed storage alive and
//     unmodified even if some alias later mutates.
//
// Build is one pass over the rows (O(n) expected); a probe is one hash, an
// expected O(1) slot walk, and a single full-key comparison, after which
// matches stream off the chain with no further comparisons.
#ifndef PARAQUERY_RELATIONAL_ROW_INDEX_H_
#define PARAQUERY_RELATIONAL_ROW_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel_for.hpp"
#include "relational/relation.hpp"
#include "relational/value.hpp"

namespace paraquery {

/// Hash index over a Relation's rows keyed on a column subset.
class RowIndex {
 public:
  /// Sentinel row id: "no row" / end of chain.
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Builds the index over `rel` keyed on `key_cols` (each must be a valid
  /// column of `rel`). An empty `key_cols` keys every row to the same value,
  /// which makes Find enumerate all rows — the degenerate cross-product case.
  ///
  /// Large inputs build partitioned: the hash pass morsels over row chunks,
  /// rows scatter into hash-prefix partitions, and each partition fills its
  /// own sub-table region of the one flat `slots_` array (sized to its own
  /// content, so skew can never overflow a region). The partition count is a
  /// pure function of the row count — never of the thread count — so the
  /// layout, and a fortiori every observable probe result (chain heads,
  /// increasing-row-order chains, MatchCount, distinct_keys), is identical
  /// at any execution width, `pfor` bound or not.
  RowIndex(const Relation& rel, std::vector<int> key_cols,
           const ParallelForFn& pfor = {});

  /// First row of `rel` whose key equals `key` (values in key_cols order),
  /// or kNone. Follow the chain with Next for further matches.
  uint32_t Find(std::span<const Value> key) const;

  /// As Find(key), but the key is read from `probe`'s row `probe_row` at
  /// columns `probe_cols` (parallel to this index's key columns) without
  /// materializing it.
  uint32_t Find(const Relation& probe, size_t probe_row,
                std::span<const int> probe_cols) const;

  /// Next row with the same key as `row`, or kNone.
  uint32_t Next(uint32_t row) const { return next_[row]; }

  /// Number of rows in the chain headed by `head` (a row returned by Find).
  /// Lets joins size their output exactly before materializing.
  uint32_t MatchCount(uint32_t head) const { return counts_[head]; }

  bool Contains(const Relation& probe, size_t probe_row,
                std::span<const int> probe_cols) const {
    return Find(probe, probe_row, probe_cols) != kNone;
  }

  /// Number of distinct keys in the indexed relation.
  size_t distinct_keys() const { return distinct_; }

  const std::vector<int>& key_cols() const { return key_cols_; }
  const Relation& rel() const { return *rel_; }

 private:
  // Indexed-row access via the base pointer cached at build time (skips the
  // RowBlock indirection on every probe; valid because the storage is
  // immutable while borrowed).
  Value IndexedAt(uint32_t row, int col) const {
    return base_[static_cast<size_t>(row) * rel_arity_ + col];
  }

  bool RowKeysEqual(uint32_t a, uint32_t b) const;

  // Shared probe loop: walks slots from `h` until an empty slot (kNone) or a
  // head whose hash matches and `key_eq(head)` confirms full key equality.
  template <typename KeyEq>
  uint32_t Probe(uint64_t h, KeyEq key_eq) const;

  const Relation* rel_;
  const Value* base_ = nullptr;  // rel_'s row-major buffer
  size_t rel_arity_ = 0;
  std::vector<int> key_cols_;
  std::vector<uint64_t> hashes_;  // per-row key hash
  std::vector<uint32_t> slots_;   // open-addressing table of chain heads
  std::vector<uint32_t> next_;    // per-row same-key chain
  std::vector<uint32_t> counts_;  // chain length, valid at chain-head rows
  uint64_t mask_ = 0;             // slots_.size() - 1 (single-partition)
  size_t distinct_ = 0;
  /// Partitioned layout (part_count_ > 1): partition p of hash h is its top
  /// bits (h >> kPartShift); its sub-table occupies
  /// slots_[part_base_[p] .. part_base_[p] + part_mask_[p]].
  size_t part_count_ = 1;
  std::vector<size_t> part_base_;
  std::vector<uint64_t> part_mask_;
};

/// Which key structure a keyed kernel probed: a KeyRange-indexed array, a
/// RowIndex, or none (the kernel did not run or needed no key).
enum class KeyKind : uint8_t { kNone, kDense, kHash };

/// The dense-key alternative to a RowIndex for single-column keys: the value
/// range [min, max] of one column, found in one pass. When the range is
/// small relative to the input, a kernel indexes a plain array (a bitmap of
/// present keys, per-key sums) by Offset(v) = v − min instead of hashing —
/// the RAM-model indexing by domain values Durand and Grandjean use for
/// linear-time acyclic evaluation. Above a size limit (FitsIn for the
/// semijoin's bitmap, DenseForCounts for the counting kernels' sums) the
/// kernels fall back to a RowIndex.
///
/// Offsets and the span are computed in unsigned arithmetic, so a column
/// holding both INT64_MIN and INT64_MAX has span 2^64 − 1 (no signed
/// overflow) and fits no limit. An empty column gets the range [0, 0], so
/// an array over it has one slot that no key ever fills.
class KeyRange {
 public:
  KeyRange(const Relation& rel, int col);

  /// True when the range has at most `slots` values (max − min < slots).
  bool FitsIn(uint64_t slots) const { return span_ < slots; }
  /// max − min + 1; meaningful only after FitsIn(...) returned true.
  size_t slots() const { return static_cast<size_t>(span_) + 1; }
  /// The counting kernels' rule (Aggregate, SemijoinCount, SumGroups): sum
  /// into an array over the range when it has fewer than 2 values per input
  /// row, so the array of 8-byte sums stays under 16 bytes per row.
  bool DenseForCounts(size_t rows) const {
    return rows > 0 && span_ < 2 * static_cast<uint64_t>(rows) - 1;
  }

  /// Sets `*off` to v − min and returns true when v lies in [min, max].
  bool Offset(Value v, uint64_t* off) const {
    *off = static_cast<uint64_t>(v) - min_;
    return *off <= span_;
  }
  /// The value at offset `off` (the inverse of Offset).
  Value ValueAt(uint64_t off) const { return static_cast<Value>(min_ + off); }

 private:
  uint64_t min_ = 0;   // the minimum, as its two's-complement bits
  uint64_t span_ = 0;  // max − min, modulo 2^64
};

/// One bit per KeyRange offset: the key sets of the dense kernels.
class KeyBitmap {
 public:
  explicit KeyBitmap(size_t slots) : words_(slots / 64 + 1, 0) {}
  void Set(uint64_t off) { words_[off >> 6] |= Bit(off); }
  bool Test(uint64_t off) const { return (words_[off >> 6] & Bit(off)) != 0; }
  /// Clears bit `off` and returns whether it was set.
  bool TestAndClear(uint64_t off) {
    const bool was = Test(off);
    words_[off >> 6] &= ~Bit(off);
    return was;
  }

 private:
  static uint64_t Bit(uint64_t off) { return uint64_t{1} << (off & 63); }
  std::vector<uint64_t> words_;
};

/// The dense-key alternative to a RowIndex's chains for the grouped join
/// kernels: one counting-sort pass over a KeyRange groups a relation's rows
/// by one key column into contiguous runs. Entry i holds the `payload`
/// columns of one row (width() values); the rows with key v occupy the
/// entries of Find(v), in row order. The per-key start offsets cost
/// range.slots() + 1 words, so callers build runs only over a range that
/// passes KeyRange::DenseForCounts.
class KeyRuns {
 public:
  KeyRuns(const Relation& rel, int key_col, const KeyRange& range,
          const std::vector<int>& payload);

  /// Sets [*begin, *end) to the entries of key `v`; false when no row has
  /// that key.
  bool Find(Value v, uint32_t* begin, uint32_t* end) const {
    uint64_t off = 0;
    if (!range_.Offset(v, &off)) return false;
    *begin = start_[off];
    *end = start_[off + 1];
    return *begin < *end;
  }
  /// The payload values of entry `i`.
  const Value* Entry(uint32_t i) const {
    return values_.data() + static_cast<size_t>(i) * width_;
  }
  size_t width() const { return width_; }

 private:
  KeyRange range_;
  size_t width_;
  std::vector<uint32_t> start_;  // slots + 1 offsets into the entries
  std::vector<Value> values_;    // entries, width_ values each
};

/// Incrementally grown set of distinct rows, backed by an owned Relation.
/// Same flat layout as RowIndex minus the chains (members are distinct, so
/// every slot maps to exactly one stored row). Used for hash-based dedup and
/// for fixpoint "seen tuple" bookkeeping, replacing re-sorting on every
/// insertion round.
class RowHashSet {
 public:
  explicit RowHashSet(size_t arity);

  /// Pre-sizes the table and backing storage for `rows` insertions,
  /// avoiding growth rehashes when the input size is known.
  void Reserve(size_t rows);

  /// Adds `row` if absent. Returns true iff the row was newly inserted.
  bool Insert(std::span<const Value> row);

  bool Contains(std::span<const Value> row) const;

  /// The distinct rows inserted so far, in first-insertion order.
  const Relation& rel() const { return rel_; }
  size_t size() const { return rel_.size(); }

  /// Moves the backing relation out; the set must not be used afterwards.
  Relation TakeRelation() { return std::move(rel_); }

 private:
  // Probes for `row` (with hash `h`): returns the slot holding an equal row,
  // or the first empty slot.
  size_t ProbeSlot(std::span<const Value> row, uint64_t h) const;
  void Grow();
  void Rehash(size_t cap);

  Relation rel_;
  std::vector<uint64_t> hashes_;  // per stored row
  std::vector<uint32_t> slots_;
  uint64_t mask_ = 0;
};

}  // namespace paraquery

#endif  // PARAQUERY_RELATIONAL_ROW_INDEX_H_
