#include "relational/relation.hpp"

#include <algorithm>
#include <sstream>

#include "common/status.hpp"
#include "relational/row_index.hpp"
#include "relational/row_sort.hpp"
#include "relational/storage_cache_stats.hpp"

namespace paraquery {

const std::shared_ptr<RowBlock>& Relation::EmptyBlock() {
  // The global empty block is never charged to any query's budget: it is
  // process-lifetime shared state, and first construction must not capture
  // whichever accountant happens to be thread-current at that moment.
  static const std::shared_ptr<RowBlock> kEmpty = [] {
    auto block = std::make_shared<RowBlock>();
    block->accountant = nullptr;
    return block;
  }();
  return kEmpty;
}

Relation::Relation(size_t arity, std::vector<Value> data)
    : arity_(arity), block_(std::make_shared<RowBlock>(std::move(data))) {
  PQ_CHECK(arity > 0, "Relation buffer constructor requires arity > 0");
  PQ_CHECK(block_->values.size() % arity == 0,
           "Relation buffer size is not a multiple of the arity");
  Sync();
}

void Relation::Add(std::span<const Value> row) {
  PQ_DCHECK(row.size() == arity_, "Relation::Add: arity mismatch");
  if (arity_ == 0) {
    ++zero_ary_rows_;
    sorted_ = false;
    Bump();
    return;
  }
  std::vector<Value>& values = MutableValues();
  values.insert(values.end(), row.begin(), row.end());
  Sync();
  sorted_ = false;
  Bump();
}

void Relation::AddEmptyRow() {
  PQ_DCHECK(arity_ == 0, "AddEmptyRow requires arity 0");
  ++zero_ary_rows_;
  sorted_ = false;
  Bump();
}

void Relation::SortAndDedup(const ParallelForFn& pfor) {
  if (sorted_) return;  // already sorted and deduplicated
  if (arity_ == 0) {
    zero_ary_rows_ = zero_ary_rows_ > 0 ? 1 : 0;
  } else {
    SortDedupRows(MutableValues(), arity_, pfor);
    Sync();
  }
  sorted_ = true;
  Bump();
}

namespace {

size_t DedupNextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Rows per chunk of the partitioned parallel dedup passes. Every pass must
/// chunk identically, so this is fixed rather than taken from the runtime's
/// morsel knob.
constexpr size_t kDedupGrain = 4096;
/// Below this the sequential single-pass dedup wins outright.
constexpr size_t kParallelDedupMinRows = size_t{1} << 13;
/// Hash-prefix partition count (top 6 bits of the row hash).
constexpr size_t kDedupParts = 64;
constexpr int kDedupPartShift = 58;

}  // namespace

void Relation::HashDedup(const ParallelForFn& pfor) {
  if (arity_ == 0) {
    zero_ary_rows_ = zero_ary_rows_ > 0 ? 1 : 0;
    sorted_ = true;
    Bump();
    return;
  }
  if (sorted_) return;  // already deduplicated (and sorted)
  if (empty()) {  // never touch the global empty block's caches
    sorted_ = true;
    return;
  }
  StorageCacheStats& cache_stats = GlobalStorageCacheStats();
  std::shared_ptr<RowBlock> set_form;
  bool cached = false;
  {
    std::lock_guard<std::mutex> lock(block_->stats_mutex);
    cached = block_->duplicate_free || block_->set_form != nullptr;
    set_form = block_->set_form;
  }
  if (cached) {
    cache_stats.set_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Build outside the lock, as DistinctCount does: concurrent views of one
    // block may race to build it; the results are byte-identical and the
    // first one stored is the one every view adopts.
    set_form = BuildSetForm(pfor);
    cache_stats.set_builds.fetch_add(1, std::memory_order_relaxed);
    // An exclusive block dies on the swap below; caching on it buys nothing.
    if (set_form == nullptr || block_.use_count() > 1) {
      std::lock_guard<std::mutex> lock(block_->stats_mutex);
      if (set_form == nullptr) {
        block_->duplicate_free = true;
      } else if (block_->set_form == nullptr) {
        block_->set_form = set_form;
      } else {
        set_form = block_->set_form;
      }
    }
  }
  if (set_form != nullptr) {
    block_ = std::move(set_form);
    Sync();
    Bump();
  }
  sorted_ = size() <= 1;
}

std::shared_ptr<RowBlock> Relation::BuildSetForm(
    const ParallelForFn& pfor) const {
  size_t n = size();
  if (!pfor || n < kParallelDedupMinRows) {
    RowHashSet set(arity_);
    set.Reserve(n);
    for (size_t r = 0; r < n; ++r) set.Insert(Row(r));
    // Appended through AppendRowUnchecked: already marked duplicate-free.
    if (set.size() == n) return nullptr;
    return std::move(set.TakeRelation().block_);
  }

  // Partitioned parallel dedup. Duplicates of a row share its full-row hash
  // and therefore its hash-prefix partition; the scatter below keeps row ids
  // increasing within each partition, so marking the first occurrence per
  // partition marks exactly the rows the sequential RowHashSet pass keeps.
  const Value* base = base_;
  const size_t arity = arity_;
  std::vector<uint64_t> hashes(n);
  size_t chunks =
      ForChunks(pfor, n, kDedupGrain, [&](size_t, size_t b, size_t e) {
        for (size_t r = b; r < e; ++r) {
          hashes[r] =
              HashRow(std::span<const Value>(base + r * arity, arity));
        }
      });
  // Per-(chunk, partition) counts -> deterministic scatter offsets.
  std::vector<size_t> counts(chunks * kDedupParts, 0);
  ForChunks(pfor, n, kDedupGrain, [&](size_t c, size_t b, size_t e) {
    size_t* local = counts.data() + c * kDedupParts;
    for (size_t r = b; r < e; ++r) ++local[hashes[r] >> kDedupPartShift];
  });
  std::vector<size_t> part_start(kDedupParts + 1, 0);
  for (size_t c = 0; c < chunks; ++c) {
    for (size_t p = 0; p < kDedupParts; ++p) {
      part_start[p + 1] += counts[c * kDedupParts + p];
    }
  }
  for (size_t p = 0; p < kDedupParts; ++p) part_start[p + 1] += part_start[p];
  std::vector<size_t> offs(chunks * kDedupParts);
  for (size_t p = 0; p < kDedupParts; ++p) {
    size_t acc = part_start[p];
    for (size_t c = 0; c < chunks; ++c) {
      offs[c * kDedupParts + p] = acc;
      acc += counts[c * kDedupParts + p];
    }
  }
  std::vector<uint32_t> part_rows(n);
  ForChunks(pfor, n, kDedupGrain, [&](size_t c, size_t b, size_t e) {
    size_t local[kDedupParts];
    std::copy(offs.begin() + c * kDedupParts,
              offs.begin() + (c + 1) * kDedupParts, local);
    for (size_t r = b; r < e; ++r) {
      part_rows[local[hashes[r] >> kDedupPartShift]++] =
          static_cast<uint32_t>(r);
    }
  });
  // Each partition dedups independently (disjoint keep[] entries).
  std::vector<uint8_t> keep(n, 0);
  std::vector<size_t> part_kept(kDedupParts, 0);
  ForChunks(pfor, kDedupParts, 1, [&](size_t, size_t pb, size_t pe) {
    for (size_t p = pb; p < pe; ++p) {
      size_t pbegin = part_start[p], pend = part_start[p + 1];
      if (pbegin == pend) continue;
      size_t cap = DedupNextPowerOfTwo(std::max<size_t>(
          (pend - pbegin) * 2, 16));
      uint64_t mask = cap - 1;
      std::vector<uint32_t> slots(cap, UINT32_MAX);
      size_t kept = 0;
      for (size_t i = pbegin; i < pend; ++i) {
        uint32_t r = part_rows[i];
        uint64_t h = hashes[r];
        size_t s = h & mask;
        bool dup = false;
        while (slots[s] != UINT32_MAX) {
          uint32_t o = slots[s];
          if (hashes[o] == h &&
              std::equal(base + size_t{o} * arity,
                         base + (size_t{o} + 1) * arity,
                         base + size_t{r} * arity)) {
            dup = true;
            break;
          }
          s = (s + 1) & mask;
        }
        if (!dup) {
          slots[s] = r;
          keep[r] = 1;
          ++kept;
        }
      }
      part_kept[p] = kept;
    }
  });
  size_t total = 0;
  for (size_t p = 0; p < kDedupParts; ++p) total += part_kept[p];
  if (total == n) return nullptr;
  // Ordered compaction of the survivors into a fresh flat buffer.
  std::vector<size_t> chunk_off(chunks + 1, 0);
  ForChunks(pfor, n, kDedupGrain, [&](size_t c, size_t b, size_t e) {
    size_t k = 0;
    for (size_t r = b; r < e; ++r) k += keep[r];
    chunk_off[c + 1] = k;
  });
  for (size_t c = 0; c < chunks; ++c) chunk_off[c + 1] += chunk_off[c];
  std::vector<Value> out(total * arity);
  ForChunks(pfor, n, kDedupGrain, [&](size_t c, size_t b, size_t e) {
    Value* dst = out.data() + chunk_off[c] * arity;
    for (size_t r = b; r < e; ++r) {
      if (!keep[r]) continue;
      dst = std::copy(base + r * arity, base + (r + 1) * arity, dst);
    }
  });
  auto block = std::make_shared<RowBlock>(std::move(out));
  block->duplicate_free = true;
  return block;
}

bool Relation::Contains(std::span<const Value> row) const {
  PQ_DCHECK(row.size() == arity_, "Relation::Contains: arity mismatch");
  if (arity_ == 0) return zero_ary_rows_ > 0;
  size_t n = size();
  if (sorted_) {
    size_t lo = 0, hi = n;
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      auto mid_row = Row(mid);
      if (std::lexicographical_compare(mid_row.begin(), mid_row.end(),
                                       row.begin(), row.end())) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < n && std::equal(Row(lo).begin(), Row(lo).end(), row.begin());
  }
  for (size_t i = 0; i < n; ++i) {
    if (std::equal(Row(i).begin(), Row(i).end(), row.begin())) return true;
  }
  return false;
}

size_t Relation::DistinctCount(size_t col) const {
  PQ_CHECK(col < arity_, "DistinctCount: column out of range");
  // Empty relations share the one global block across all arities; never
  // touch its stats (and the answer is trivially 0).
  if (empty()) return 0;
  {
    std::lock_guard<std::mutex> lock(block_->stats_mutex);
    const std::vector<size_t>& counts = block_->distinct_counts;
    if (counts.size() == arity_ && counts[col] != RowBlock::kStatUnknown) {
      return counts[col];
    }
  }
  // Compute outside the lock, so one block's stats do not serialize behind
  // an O(rows) pass. Concurrent misses recompute the same value; last store
  // wins.
  size_t distinct = RowIndex(*this, {static_cast<int>(col)}).distinct_keys();
  std::lock_guard<std::mutex> lock(block_->stats_mutex);
  std::vector<size_t>& counts = block_->distinct_counts;
  if (counts.size() != arity_) counts.assign(arity_, RowBlock::kStatUnknown);
  counts[col] = distinct;
  return distinct;
}

void Relation::MarkSorted() {
  PQ_DCHECK(arity_ == 0 || StrictlyIncreasing(),
            "MarkSorted: the rows are not strictly increasing");
  if (arity_ == 0) zero_ary_rows_ = zero_ary_rows_ > 0 ? 1 : 0;
  sorted_ = true;
}

bool Relation::StrictlyIncreasing() const {
  for (size_t r = 1; r < size(); ++r) {
    auto prev = Row(r - 1), row = Row(r);
    if (!std::lexicographical_compare(prev.begin(), prev.end(), row.begin(),
                                      row.end())) {
      return false;
    }
  }
  return true;
}

void Relation::MarkDuplicateFree() {
  if (arity_ == 0 || empty()) return;
  PQ_DCHECK(BuildSetForm({}) == nullptr,
            "MarkDuplicateFree: the relation holds duplicate rows");
  std::lock_guard<std::mutex> lock(block_->stats_mutex);
  block_->duplicate_free = true;
  block_->set_form.reset();
}

bool Relation::SharesStorageOrSetFormWith(const Relation& other) const {
  if (SharesStorageWith(other)) return true;
  if (arity_ == 0 || other.arity_ == 0 || other.empty()) return false;
  std::lock_guard<std::mutex> lock(other.block_->stats_mutex);
  return other.block_->set_form == block_;
}

bool Relation::EqualsAsSet(const Relation& other) const {
  if (arity_ != other.arity_) return false;
  Relation a = *this;
  Relation b = other;
  a.SortAndDedup();
  b.SortAndDedup();
  if (arity_ == 0) return a.zero_ary_rows_ == b.zero_ary_rows_;
  return a.block_->values == b.block_->values;
}

void Relation::Clear() {
  if (block_.use_count() == 1) {
    block_->values.clear();  // keep the exclusive buffer's capacity
    block_->InvalidateCaches();
  } else {
    block_ = EmptyBlock();
  }
  Sync();
  zero_ary_rows_ = 0;
  sorted_ = false;
  Bump();
}

std::string Relation::ToString() const {
  std::ostringstream oss;
  oss << "{";
  size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) oss << ",";
    oss << "(";
    for (size_t j = 0; j < arity_; ++j) {
      if (j > 0) oss << ",";
      oss << At(i, j);
    }
    oss << ")";
  }
  oss << "}";
  return oss.str();
}

}  // namespace paraquery
