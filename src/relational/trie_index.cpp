#include "relational/trie_index.hpp"

#include "common/status.hpp"
#include "relational/row_sort.hpp"
#include "relational/storage_cache_stats.hpp"

namespace paraquery {

namespace {
/// Rows per gather chunk; matches the runtime's default morsel size.
constexpr size_t kGatherGrain = 4096;
}  // namespace

std::shared_ptr<const TrieIndex> TrieIndex::Build(const Relation& rel,
                                                  const std::vector<int>& cols,
                                                  const ParallelForFn& pfor) {
  PQ_CHECK(!cols.empty(), "TrieIndex requires at least one column");
  for (int c : cols) {
    PQ_CHECK(c >= 0 && static_cast<size_t>(c) < rel.arity(),
             "TrieIndex column out of range");
  }
  auto trie = std::shared_ptr<TrieIndex>(new TrieIndex());
  trie->cols_ = cols;
  const size_t n = rel.size();
  const size_t k = cols.size();
  if (n == 0) return trie;

  // Gather the projection row-major (parallel chunks write disjoint
  // pre-sized slices, so the buffer is width-independent).
  std::vector<Value> proj(n * k);
  const Value* base = rel.data().data();
  const size_t arity = rel.arity();
  ForChunks(pfor, n, kGatherGrain, [&](size_t, size_t b, size_t e) {
    for (size_t r = b; r < e; ++r) {
      const Value* row = base + r * arity;
      Value* out = proj.data() + r * k;
      for (size_t j = 0; j < k; ++j) out[j] = row[cols[j]];
    }
  });

  SortDedupRows(proj, k, pfor);
  proj.shrink_to_fit();
  trie->rows_ = proj.size() / k;
  trie->tuples_.values = std::move(proj);
  trie->tuples_.Account();
  return trie;
}

size_t TrieIndex::SeekGeq(size_t lo, size_t hi, size_t level, Value v) const {
  const size_t k = cols_.size();
  const Value* p = tuples_.values.data() + level;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (p[mid * k] < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t TrieIndex::GroupEnd(size_t lo, size_t hi, size_t level, Value v) const {
  const size_t k = cols_.size();
  const Value* p = tuples_.values.data() + level;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (p[mid * k] <= v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::shared_ptr<const TrieIndex> Relation::TrieView(
    const std::vector<int>& cols, const ParallelForFn& pfor) const {
  // Empty relations all share the one global block; never cache on it (the
  // build below is trivially cheap there anyway).
  if (arity_ == 0 || empty()) return TrieIndex::Build(*this, cols, pfor);
  StorageCacheStats& cache_stats = GlobalStorageCacheStats();
  {
    std::lock_guard<std::mutex> lock(block_->stats_mutex);
    for (const auto& [key, trie] : block_->tries) {
      if (key == cols) {
        cache_stats.trie_hits.fetch_add(1, std::memory_order_relaxed);
        return trie;
      }
    }
  }
  // Build outside the lock: concurrent views may race to build the same
  // trie; the loser's copy is discarded by the re-check below.
  std::shared_ptr<const TrieIndex> built = TrieIndex::Build(*this, cols, pfor);
  cache_stats.trie_builds.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(block_->stats_mutex);
  for (const auto& [key, trie] : block_->tries) {
    if (key == cols) return trie;
  }
  block_->tries.emplace_back(cols, built);
  return built;
}

}  // namespace paraquery
