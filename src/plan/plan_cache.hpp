// Program-wide plan cache: compiled plans keyed by a renaming-invariant
// query signature plus the database's data generation.
//
// The fixed-query regime of the paper makes per-query compilation (S_j
// materialization, GYO/join-tree construction, per-column statistics, plan
// node building) a constant — but on small-data/many-query workloads that
// constant dominates (Durand–Grandjean; Mengel's survey). The cache removes
// it: repeated conjunctive queries, UCQ disjuncts re-expanded across calls,
// Datalog rule variants shared between programs, and — the headline — the
// k^k per-coloring re-executions of one Theorem 2 residual plan all reuse
// one compiled artifact.
//
// Keys are built from CanonicalCqSignature (moved here from eval/ucq.* — it
// identifies queries up to variable renaming), namespaced by a short route
// prefix ("cq-eval:", "cq-dec:", "cq-cyc:", "cq-cnt:", "ineq:", "rule:")
// because each route caches a different artifact type; planner-built
// entries also carry PlannerCacheTag, so a plan built under one planner
// setting is never served under another. Because signatures equate queries
// that differ only in variable ids, cached plans are compiled from the
// CANONICAL form of the query (CanonicalizeCq) so their attribute ids are
// renaming-independent.
//
// Invalidation is per-relation: every entry records, for each stored
// relation its query's body actually reads, the Database::relation_generation
// stamp at compile time. A lookup revalidates those (id, stamp) pairs and
// drops only entries whose dependencies moved — a hot write to one relation
// no longer evicts plans that never touch it. Whole-cache flushes remain
// only for explicit Clear(). Capacity is bounded by a real LRU (see
// set_capacity). The Engine owns one cache per database and threads it to
// the evaluators through the EvalContext.
//
// Thread-safety: Lookup/Insert/stats are mutex-guarded (concurrent UCQ
// disjuncts and Datalog rule firings share the cache). The cached ARTIFACTS
// are not: a cached PhysicalPlan carries executor-written actual_rows, so a
// given entry must not be executed by two threads at once. Within one
// engine call that cannot happen (UCQ disjuncts are signature-deduplicated;
// the Datalog engine clones rule plans per variant); across calls the
// engine is sequential.
#ifndef PARAQUERY_PLAN_PLAN_CACHE_H_
#define PARAQUERY_PLAN_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "plan/plan.hpp"
#include "query/conjunctive_query.hpp"
#include "relational/database.hpp"

namespace paraquery {

/// Canonical text of a CQ with variables renamed to first-occurrence
/// indexes: two queries map to the same string iff they are syntactically
/// identical up to variable naming. Used to deduplicate UCQ disjuncts, as
/// the plan-cache key, and by EXPLAIN's plan rendering. (Moved from
/// eval/ucq.hpp when the cache made it a cross-evaluator concern.)
std::string CanonicalCqSignature(const ConjunctiveQuery& cq);

/// A query rewritten onto canonical variable ids (first occurrence over
/// head, then body, then comparisons — the CanonicalCqSignature traversal),
/// plus that signature. Plans compiled from `query` carry attribute ids
/// that any renaming-equivalent original can reuse; `query.vars` keeps the
/// original's variable names for rendering. Answer relations are unchanged
/// by canonicalization (head terms keep their positions and constants).
struct CanonicalCq {
  std::string signature;
  ConjunctiveQuery query;
  /// order[canonical id] = original VarId (the renaming, for callers that
  /// must rename satellite structures — e.g. an IneqFormula — consistently).
  std::vector<VarId> order;
};
CanonicalCq CanonicalizeCq(const ConjunctiveQuery& q);

/// Cumulative cache counters (engine lifetime, not per query).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Whole-cache flushes (explicit Clear() only).
  uint64_t invalidations = 0;
  /// Entries dropped at lookup because a relation they read was mutated
  /// since compilation. Each also counts as a miss.
  uint64_t stale_entries = 0;
  /// Entries dropped by the LRU capacity cap.
  uint64_t evictions = 0;
  size_t entries = 0;

  std::string ToString() const;
};

/// The cache proper: type-erased entries (each key prefix stores exactly one
/// artifact type), each stamped with the per-relation generations of the
/// stored relations its query reads, held in a capacity-bounded LRU.
class PlanCache {
 public:
  /// Default LRU capacity. Entries may hold data-sized artifacts (the S_j
  /// inputs of atoms with constants or repeated variables, compiled
  /// Theorem 2 families; constant-free atoms share the stored relation's
  /// storage or its cached set form), so a long-lived engine receiving a
  /// stream of distinct queries must not grow without bound;
  /// EngineOptions::plan_cache_capacity overrides this (0 = unlimited).
  static constexpr size_t kDefaultCapacity = 4096;

  /// Returns the entry for `key`, or nullptr (a counted miss). An entry
  /// whose recorded dependencies are stale against `db` — any relation it
  /// reads was mutated since compilation — is dropped (counted as
  /// stale_entries and a miss). A returned entry becomes most recently used.
  template <typename T>
  std::shared_ptr<T> Lookup(const std::string& key, const Database& db) {
    return std::static_pointer_cast<T>(LookupErased(key, db));
  }

  /// Stores `value` under `key` (replacing any previous entry), recording
  /// the current generation of every stored relation that `reads`'s body
  /// references (unknown relation names — IDB views — carry no stamp; such
  /// entries depend only on the relations that do resolve). Insert does not
  /// change hit/miss counters; it may evict LRU entries over capacity.
  template <typename T>
  void Insert(const std::string& key, const Database& db,
              const ConjunctiveQuery& reads, std::shared_ptr<T> value) {
    InsertErased(key, db, reads, std::move(value));
  }

  /// Credits `n` reuses of a compiled artifact that bypass Lookup — the
  /// Theorem 2 driver compiles one residual plan and re-executes it per
  /// coloring, which is the cache's headline win even on a cold cache.
  void NoteReuse(uint64_t n);

  /// Sets the LRU capacity (0 = unlimited), evicting down if over.
  void set_capacity(size_t capacity);
  size_t capacity() const;

  PlanCacheStats stats() const;
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<void> value;
    /// (relation id, relation_generation at compile time) for every stored
    /// relation the entry's query reads.
    std::vector<std::pair<RelId, uint64_t>> deps;
    std::list<std::string>::iterator lru;
  };

  std::shared_ptr<void> LookupErased(const std::string& key,
                                     const Database& db);
  void InsertErased(const std::string& key, const Database& db,
                    const ConjunctiveQuery& reads, std::shared_ptr<void> value);
  /// Evicts LRU-back entries until size <= capacity. Caller holds mutex_.
  void EvictOverCapacityLocked();

  mutable std::mutex mutex_;
  size_t capacity_ = kDefaultCapacity;
  /// Keys in recency order, most recent first; entries point at their node.
  std::list<std::string> lru_;
  std::unordered_map<std::string, Entry> entries_;
  PlanCacheStats stats_;
};

}  // namespace paraquery

#endif  // PARAQUERY_PLAN_PLAN_CACHE_H_
