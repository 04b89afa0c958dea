// Sorted-trie (prefix) index for worst-case-optimal multi-way joins.
//
// A TrieIndex over a Relation and a column order (c0, c1, ..., ck-1) is the
// set of the relation's rows projected to those columns, stored as DISTINCT
// tuples sorted lexicographically in that column order. Because the buffer
// is sorted, the index IS a trie: the tuples sharing a length-d prefix form
// one contiguous row range, so descending a trie edge is a range narrowing
// and the leapfrog seek/next-geq primitives are binary searches within the
// current range (relational/leapfrog.hpp walks it that way).
//
// Like the per-column distinct-count stats, tries are built lazily and
// cached on the shared RowBlock (Relation::TrieView): every storage-sharing
// view of one materialization — relabels, aliases, snapshot pins — sees the
// same cache, keyed by column order; any mutation (in place or
// copy-on-write) invalidates it. The tuple buffer settles its capacity bytes
// against the thread-current MemoryAccountant through ColumnBlock, the same
// accounting RowBlock uses, so trie construction is charged to the query
// that triggers it and released when the owning relation mutates or dies.
#ifndef PARAQUERY_RELATIONAL_TRIE_INDEX_H_
#define PARAQUERY_RELATIONAL_TRIE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/parallel_for.hpp"
#include "common/query_context.hpp"
#include "relational/relation.hpp"
#include "relational/value.hpp"

namespace paraquery {

/// A flat buffer of Values, byte-accounted like RowBlock: charges the
/// thread-current accountant at construction and on Account(), releases on
/// destruction.
struct ColumnBlock {
  std::vector<Value> values;

  std::shared_ptr<MemoryAccountant> accountant;
  size_t charged_bytes = 0;

  ColumnBlock() : accountant(MemoryAccountant::Current()) {}
  explicit ColumnBlock(std::vector<Value> v)
      : values(std::move(v)), accountant(MemoryAccountant::Current()) {
    Account();
  }
  ColumnBlock(const ColumnBlock&) = delete;
  ColumnBlock& operator=(const ColumnBlock&) = delete;
  ~ColumnBlock() {
    if (accountant) accountant->Charge(-static_cast<int64_t>(charged_bytes));
  }

  /// Brings the charged byte count up to date with the buffer's capacity.
  void Account() {
    if (!accountant) return;
    size_t cap = values.capacity() * sizeof(Value);
    if (cap == charged_bytes) return;
    accountant->Charge(static_cast<int64_t>(cap) -
                       static_cast<int64_t>(charged_bytes));
    charged_bytes = cap;
  }
};

/// Immutable sorted-tuple trie over one column permutation of a relation.
class TrieIndex {
 public:
  /// Projects `rel` to `cols` (each must index a column of `rel`), sorts
  /// the projected tuples lexicographically and deduplicates (the shared
  /// row-sort kernel, relational/row_sort.hpp). The gather and sort passes
  /// morsel through `pfor` when bound; the result is byte-identical at any
  /// width. Prefer Relation::TrieView, which caches the build on the
  /// shared RowBlock.
  static std::shared_ptr<const TrieIndex> Build(const Relation& rel,
                                                const std::vector<int>& cols,
                                                const ParallelForFn& pfor = {});

  /// Number of indexed columns (trie depth).
  size_t arity() const { return cols_.size(); }
  /// Number of distinct projected tuples (trie leaves).
  size_t rows() const { return rows_; }
  /// The source columns, in trie level order.
  const std::vector<int>& cols() const { return cols_; }
  /// Flat row-major sorted tuple buffer (rows() * arity() values).
  const Value* data() const { return tuples_.values.data(); }

  /// Value at (row, level).
  Value At(size_t row, size_t level) const {
    return tuples_.values[row * cols_.size() + level];
  }

  /// First row in [lo, hi) whose `level` column is >= v (rows [lo, hi) must
  /// share their length-`level` prefix, so that column is sorted on it).
  size_t SeekGeq(size_t lo, size_t hi, size_t level, Value v) const;

  /// First row in [lo, hi) whose `level` column is > v (the end of v's
  /// group; same precondition as SeekGeq).
  size_t GroupEnd(size_t lo, size_t hi, size_t level, Value v) const;

 private:
  TrieIndex() = default;

  std::vector<int> cols_;
  size_t rows_ = 0;
  /// Byte-accounted flat buffer.
  ColumnBlock tuples_;
};

}  // namespace paraquery

#endif  // PARAQUERY_RELATIONAL_TRIE_INDEX_H_
