// Process-wide counters for the storage-attached caches: the columnar
// mirror (Relation::ColumnarView), the sorted tries (Relation::TrieView)
// and the set form (Relation::HashDedup), all cached per shared RowBlock.
// The caches are a property of storage, not of any engine instance, so the
// counters are process-global; the engine scrapes them into its metrics
// registry after each query (Counter::Set over monotonic sources).
#ifndef PARAQUERY_RELATIONAL_STORAGE_CACHE_STATS_H_
#define PARAQUERY_RELATIONAL_STORAGE_CACHE_STATS_H_

#include <atomic>
#include <cstdint>

namespace paraquery {

struct StorageCacheStats {
  std::atomic<uint64_t> columnar_hits{0};
  std::atomic<uint64_t> columnar_builds{0};
  std::atomic<uint64_t> trie_hits{0};
  std::atomic<uint64_t> trie_builds{0};
  /// HashDedup calls answered from the block's cached set form, and hash
  /// passes that computed one.
  std::atomic<uint64_t> set_hits{0};
  std::atomic<uint64_t> set_builds{0};
};

/// The process-wide instance.
StorageCacheStats& GlobalStorageCacheStats();

}  // namespace paraquery

#endif  // PARAQUERY_RELATIONAL_STORAGE_CACHE_STATS_H_
