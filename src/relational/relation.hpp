// Positional (unnamed-column) relation: a multiset of fixed-arity rows stored
// row-major in a single contiguous buffer.
//
// Shared-storage design
// ---------------------
// The row buffer lives in a ref-counted, logically immutable RowBlock shared
// between Relation instances. Copying a Relation (and therefore a
// NamedRelation — attribute relabeling, whole-relation aliasing, identity
// selections/projections) copies only the shared_ptr, never the rows; this is
// what lets evaluators treat S_j materializations as cheap views (the
// fixed-query regime of Papadimitriou & Yannakakis makes the data the large
// object, so views must not duplicate it). Mutation goes through a
// copy-on-write gate: the first mutating call on a Relation whose block is
// shared clones the block, so aliases never observe each other's writes.
// SharesStorageWith() exposes the aliasing relation for tests, stats, and
// index-validity checks.
#ifndef PARAQUERY_RELATIONAL_RELATION_H_
#define PARAQUERY_RELATIONAL_RELATION_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/parallel_for.hpp"
#include "common/query_context.hpp"
#include "common/status.hpp"
#include "relational/value.hpp"

namespace paraquery {

class TrieIndex;

/// Ref-counted flat row-major buffer shared between Relation views.
/// Logically immutable while shared: Relation's copy-on-write gate clones it
/// before the first mutation through any alias.
///
/// Besides the rows the block carries lazily computed per-column statistics
/// (currently distinct-value counts, see Relation::DistinctCount). Keeping
/// them here — not on the Relation view — means every storage-sharing view
/// of one materialization sees the same cache, and copy-on-write naturally
/// invalidates: a clone starts with empty stats, an in-place mutation clears
/// them (see Relation::MutableValues).
struct RowBlock {
  std::vector<Value> values;

  /// Guards `distinct_counts` (stats are computed lazily, possibly from
  /// concurrent read-only views of the same block).
  std::mutex stats_mutex;
  /// Per-column distinct-value counts; empty until first computed, entries
  /// of kStatUnknown not yet computed. Sized to the owning relation's arity.
  std::vector<size_t> distinct_counts;

  /// Cached sorted-trie indexes of this block, keyed by column order (see
  /// Relation::TrieView) — the leapfrog multiway-join access path. Guarded
  /// by `stats_mutex` like the stats and invalidated wherever
  /// `distinct_counts` is: cleared on any in-place mutation, and not copied
  /// by the copy-on-write clone (the user-defined copy constructor below
  /// copies only the rows).
  std::vector<std::pair<std::vector<int>, std::shared_ptr<const TrieIndex>>>
      tries;

  /// Cached set form of the rows (see Relation::HashDedup), guarded by
  /// `stats_mutex` and invalidated exactly like `tries`. Either
  /// `duplicate_free` (the rows are pairwise distinct) or `set_form` points
  /// at the deduplicated block (the first occurrence of each row, in row
  /// order); neither when unknown. Never set on the global empty block, and
  /// never for arity 0 (whose row count lives outside the block).
  bool duplicate_free = false;
  std::shared_ptr<RowBlock> set_form;

  /// Byte accounting for query memory budgets: the thread-current accountant
  /// at construction time (null outside engine runs), and the capacity bytes
  /// already charged to it. Account() keeps the charge equal to the buffer's
  /// capacity; the destructor releases it. Shared blocks never change
  /// capacity (copy-on-write clones first), so Account() on a shared block
  /// is a read-only no-op and needs no synchronization.
  std::shared_ptr<MemoryAccountant> accountant;
  size_t charged_bytes = 0;

  static constexpr size_t kStatUnknown = ~size_t{0};

  RowBlock() : accountant(MemoryAccountant::Current()) {}
  explicit RowBlock(std::vector<Value> v)
      : values(std::move(v)), accountant(MemoryAccountant::Current()) {
    Account();
  }
  /// Clones only the rows; the copy recomputes its stats lazily and charges
  /// the cloning thread's accountant (not the source's).
  RowBlock(const RowBlock& o)
      : values(o.values), accountant(MemoryAccountant::Current()) {
    Account();
  }
  RowBlock& operator=(const RowBlock&) = delete;
  ~RowBlock() {
    if (accountant) accountant->Charge(-static_cast<int64_t>(charged_bytes));
  }

  /// Drops every cache derived from the rows. Called on in-place mutation
  /// of an exclusively owned block.
  void InvalidateCaches() {
    distinct_counts.clear();
    tries.clear();
    duplicate_free = false;
    set_form.reset();
  }

  /// Brings the charged byte count up to date with the buffer's capacity.
  /// Called by Relation::Sync after every mutation.
  void Account() {
    if (!accountant) return;
    size_t cap = values.capacity() * sizeof(Value);
    if (cap == charged_bytes) return;
    accountant->Charge(static_cast<int64_t>(cap) -
                       static_cast<int64_t>(charged_bytes));
    charged_bytes = cap;
  }
};

/// A fixed-arity table of Values with set or multiset semantics.
///
/// Storage is row-major (`values[row * arity + col]`) inside a shared
/// RowBlock, the layout used for the tuple-at-a-time operators in this
/// library. Set semantics are obtained by calling SortAndDedup(); operators
/// that require sortedness check the `sorted()` flag in debug builds.
class Relation {
 public:
  /// Creates an empty relation of the given arity. Arity 0 is allowed and
  /// models Boolean (goal) relations: such a relation has either zero rows
  /// (false) or one empty row (true). Empty relations share one global empty
  /// block, so construction allocates nothing; the copy-on-write gate
  /// (which always sees the global block as shared) detaches on first
  /// mutation.
  explicit Relation(size_t arity) : arity_(arity), block_(EmptyBlock()) {
    Sync();
  }

  // Copying produces an independent VIEW: it shares rows but never the
  // mutation counter — a view's copy-on-write mutations change its own
  // content, not the bound owner's. Copy-assignment, by contrast, REPLACES
  // this relation's content, so a bound target reports the mutation.
  // Moves NEVER transfer the binding: a relation moved out of a Database
  // slot must not carry a pointer into the Database's lifetime (its later
  // mutations are its own business), while the emptied source stays bound
  // and reports the theft. Database rebinds its elements after vector
  // growth, the one place relocation would otherwise strand bindings.
  Relation(const Relation& o)
      : arity_(o.arity_),
        block_(o.block_),
        base_(o.base_),
        nvalues_(o.nvalues_),
        zero_ary_rows_(o.zero_ary_rows_),
        sorted_(o.sorted_) {}
  Relation& operator=(const Relation& o) {
    arity_ = o.arity_;
    block_ = o.block_;
    base_ = o.base_;
    nvalues_ = o.nvalues_;
    zero_ary_rows_ = o.zero_ary_rows_;
    sorted_ = o.sorted_;
    Bump();
    return *this;
  }
  Relation(Relation&& o) noexcept
      : arity_(o.arity_),
        block_(std::move(o.block_)),
        base_(o.base_),
        nvalues_(o.nvalues_),
        zero_ary_rows_(o.zero_ary_rows_),
        sorted_(o.sorted_) {
    o.block_ = EmptyBlock();
    o.Sync();
    o.zero_ary_rows_ = 0;
    o.Bump();  // the source was emptied (a content change where bound)
  }
  Relation& operator=(Relation&& o) noexcept {
    arity_ = o.arity_;
    block_ = std::move(o.block_);
    base_ = o.base_;
    nvalues_ = o.nvalues_;
    zero_ary_rows_ = o.zero_ary_rows_;
    sorted_ = o.sorted_;
    o.block_ = EmptyBlock();
    o.Sync();
    o.zero_ary_rows_ = 0;
    o.Bump();  // source emptied
    Bump();    // this relation's content replaced
    return *this;
  }

  /// Binds a mutation counter (Database::generation): every content
  /// mutation THROUGH THIS RELATION — including via a retained `Relation&`
  /// handle — increments it, which is what invalidates plan caches. When
  /// `stamp` is given (Database's per-relation stamp slot), each mutation
  /// also records the new clock value there, so caches can tell WHICH
  /// relation changed. Copies (zero-copy views) do not inherit the binding.
  void BindMutationCounter(uint64_t* counter, uint64_t* stamp = nullptr) {
    on_mutate_ = counter;
    rel_stamp_ = stamp;
  }

  /// Wraps a prefilled row-major buffer (`data.size()` must be a multiple of
  /// `arity`; arity 0 is not supported here). Used by operators that emit
  /// rows directly into a flat buffer to skip per-row Add calls.
  Relation(size_t arity, std::vector<Value> data);

  size_t arity() const { return arity_; }

  /// Number of rows.
  size_t size() const {
    return arity_ == 0 ? zero_ary_rows_ : nvalues_ / arity_;
  }
  bool empty() const { return size() == 0; }

  /// Appends a row; `row.size()` must equal arity().
  void Add(std::span<const Value> row);
  void Add(std::initializer_list<Value> row) {
    Add(std::span<const Value>(row.begin(), row.size()));
  }

  /// Appends the empty row to an arity-0 relation (sets it "true").
  void AddEmptyRow();

  // Reads go through base_/nvalues_, a cache of the block's buffer pointer
  // and length maintained by every mutator: sharing costs no indirection on
  // the hot paths relative to an owned vector.
  Value At(size_t row, size_t col) const { return base_[row * arity_ + col]; }
  std::span<const Value> Row(size_t row) const {
    return std::span<const Value>(base_ + row * arity_, arity_);
  }

  /// Raw row-major buffer (size() * arity() values).
  const std::vector<Value>& data() const { return block_->values; }

  /// True iff this relation and `other` are views over the same RowBlock
  /// (copies that have not diverged through copy-on-write; all empty
  /// relations trivially share the global empty block). Arity-0 relations
  /// never share: their row count lives outside the block.
  bool SharesStorageWith(const Relation& other) const {
    return arity_ > 0 && block_ == other.block_;
  }

  /// Sorts rows lexicographically and removes duplicates (set semantics),
  /// through the row-sort kernel (relational/row_sort.hpp). A relation
  /// already sorted() is left untouched.
  void SortAndDedup() { SortAndDedup({}); }

  /// As SortAndDedup(); with `pfor` bound, large inputs sort with
  /// chunk-parallel radix passes. The sorted distinct rows are unique, so
  /// results are byte-identical at any width.
  void SortAndDedup(const ParallelForFn& pfor);

  /// Removes duplicate rows in one hash pass, keeping the first occurrence
  /// of each row in its original position (no sorting). Preferred over
  /// SortAndDedup wherever the caller needs only set semantics, not a
  /// sorted order. A duplicate-free relation keeps its shared storage.
  ///
  /// The outcome is cached on the shared RowBlock, like the distinct
  /// counts: the first dedup of a block records that it is duplicate-free,
  /// or the deduplicated block itself, and later dedups of any view of the
  /// same block keep the storage or adopt that block in O(1). Any mutation
  /// invalidates the cache.
  void HashDedup() { HashDedup({}); }

  /// As HashDedup(); with `pfor` bound, large inputs deduplicate with a
  /// hash-partitioned parallel pass (hash rows, scatter row ids into
  /// partitions by hash prefix, dedup each partition independently, compact
  /// survivors in row order). Duplicates of a row share its hash and
  /// therefore its partition, and within a partition row ids stay
  /// increasing, so the survivor set — first occurrence of each row — is
  /// exactly the sequential one: results are byte-identical at any width.
  void HashDedup(const ParallelForFn& pfor);

  /// The cached sorted-trie index of this relation's storage over `cols`
  /// (a column order; see trie_index.hpp), built on first use (morselized
  /// through `pfor` when bound) and cached on the shared RowBlock —
  /// storage-sharing views share one trie per column order, and any
  /// mutation invalidates the cache, exactly like the distinct-count stats.
  /// Empty relations return an uncached empty trie.
  std::shared_ptr<const TrieIndex> TrieView(const std::vector<int>& cols,
                                            const ParallelForFn& pfor = {}) const;

  /// Records that the rows are pairwise distinct, so HashDedup of any view
  /// of this storage costs O(1). The caller guarantees it (e.g. rows that a
  /// RowHashSet admitted as new); debug builds check it. No-op for arity 0
  /// and empty relations.
  void MarkDuplicateFree();

  /// True iff this relation's storage is `other`'s storage or the set form
  /// that a HashDedup cached on it. A peek that never computes the set form.
  bool SharesStorageOrSetFormWith(const Relation& other) const;

  /// True if SortAndDedup has run (or MarkSorted) and no row was added
  /// since.
  bool sorted() const { return sorted_; }

  /// Records that the rows are already sorted and pairwise distinct, so
  /// SortAndDedup is a no-op. The caller guarantees it (e.g. a merge of
  /// sorted, deduplicated parts); debug builds check it.
  void MarkSorted();

  /// True iff every row is lexicographically greater than the one before.
  bool StrictlyIncreasing() const;

  /// Membership test. O(log n) when sorted, O(n·arity) otherwise.
  bool Contains(std::span<const Value> row) const;

  /// Set equality (sorts copies of both sides; duplicates ignored).
  bool EqualsAsSet(const Relation& other) const;

  /// Number of distinct values in column `col`, computed lazily with one
  /// RowIndex pass and cached on the shared RowBlock — storage-sharing views
  /// share the cache, and any mutation (copy-on-write or in-place)
  /// invalidates it. Thread-safe against concurrent reads; feeds the
  /// planner's join cardinality estimates.
  size_t DistinctCount(size_t col) const;

  /// Removes all rows. Detaches from shared storage instead of clearing it.
  void Clear();

  /// Reserves space for `rows` rows (detaches from shared storage).
  void Reserve(size_t rows) {
    if (arity_ == 0) return;
    MutableValues().reserve(rows * arity_);
    Sync();
  }

  /// Releases excess capacity (for relations cached long-term). No-op on
  /// shared storage: trimming an alias is never worth a full copy.
  void ShrinkToFit() {
    if (block_.use_count() == 1) {
      block_->values.shrink_to_fit();
      Sync();
    }
  }

  /// Debug rendering: "{(1,2),(3,4)}".
  std::string ToString() const;

 private:
  /// The block shared by all freshly constructed (empty) relations.
  static const std::shared_ptr<RowBlock>& EmptyBlock();

  /// Refreshes the read cache after any operation that may have changed the
  /// block's buffer (COW clone, insert-with-reallocation, replacement), and
  /// settles the block's byte charge against the query memory budget.
  void Sync() {
    base_ = block_->values.data();
    nvalues_ = block_->values.size();
    block_->Account();
  }

  /// Copy-on-write gate: clones the block if any other view shares it,
  /// then returns the (now exclusively owned) buffer. Callers must Sync()
  /// after mutating the returned vector. In-place mutation of an exclusive
  /// block invalidates its cached column stats (a clone starts empty).
  std::vector<Value>& MutableValues() {
    if (block_.use_count() > 1) {
      block_ = std::make_shared<RowBlock>(*block_);
    } else {
      block_->InvalidateCaches();
    }
    return block_->values;
  }

  /// The deduplicated rows of this relation's storage (marked
  /// duplicate-free), or null when they already are duplicate-free. Arity
  /// > 0 and non-empty only; never reads or writes the set-form cache.
  std::shared_ptr<RowBlock> BuildSetForm(const ParallelForFn& pfor) const;

  /// Append without the copy-on-write check, for owners that know their
  /// block is exclusive (RowHashSet's backing relation, which detaches from
  /// the global empty block up front). Arity > 0 only. The caller appends
  /// only rows absent from the block, so the block stays duplicate-free.
  void AppendRowUnchecked(std::span<const Value> row) {
    PQ_DCHECK(block_.use_count() == 1,
              "AppendRowUnchecked requires exclusive storage");
    block_->InvalidateCaches();
    block_->duplicate_free = true;
    block_->values.insert(block_->values.end(), row.begin(), row.end());
    Sync();
    sorted_ = false;
    Bump();
  }

  /// Reports a content mutation to the bound counter (no-op when unbound),
  /// stamping the bound per-relation slot with the new clock value.
  void Bump() {
    if (on_mutate_ != nullptr) {
      ++*on_mutate_;
      if (rel_stamp_ != nullptr) *rel_stamp_ = *on_mutate_;
    }
  }

  friend class RowHashSet;

  size_t arity_;
  std::shared_ptr<RowBlock> block_;  // never null
  const Value* base_ = nullptr;      // cached block_->values.data()
  size_t nvalues_ = 0;               // cached block_->values.size()
  size_t zero_ary_rows_ = 0;         // row count for arity-0 relations
  bool sorted_ = false;
  /// Bound mutation counter (Database::generation) or null, plus the
  /// per-relation stamp slot it updates. Not copied to views; not
  /// transferred by moves.
  uint64_t* on_mutate_ = nullptr;
  uint64_t* rel_stamp_ = nullptr;
};

}  // namespace paraquery

#endif  // PARAQUERY_RELATIONAL_RELATION_H_
