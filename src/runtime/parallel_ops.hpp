// Morsel-driven data-parallel relational operators: row-range morsels of the
// input RowBlock are processed by scheduler tasks into per-morsel output
// buffers, which are then merged in morsel order — so each operator's output
// holds exactly the rows, in exactly the order, its sequential counterpart
// in relational/ops.hpp produces. Join and semijoin probe a shared
// read-only key structure over the build side (a RowIndex, the semijoin's
// dense-key bitmap, or the grouped kernels' contiguous key runs), built
// once before the probe; the morsels split only the probe side.
//
// Callers (the plan executor) choose when to engage Select, Project and
// Join via RuntimeOptions::ShouldMorsel; JoinProject, JoinCount and
// Semijoin apply it themselves and always run. Every function degrades to
// one inline chunk under a null/width-1 scheduler.
#ifndef PARAQUERY_RUNTIME_PARALLEL_OPS_H_
#define PARAQUERY_RUNTIME_PARALLEL_OPS_H_

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "relational/named_relation.hpp"
#include "relational/predicate.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {

class RowIndex;
enum class KeyKind : uint8_t;

/// Morsel-parallel σ. Output identical to Select(in, pred), including the
/// zero-copy view for an empty predicate. `morsels` (optional) accumulates
/// the number of morsels processed.
NamedRelation ParallelSelect(const NamedRelation& in, const Predicate& pred,
                             const RuntimeOptions& runtime,
                             size_t* morsels = nullptr);

/// Morsel-parallel π. Output identical to Project(in, attrs, dedup),
/// including the zero-copy view for a no-op projection (deduplication of
/// the merged output runs hash-partitioned over the scheduler and keeps
/// first occurrences, byte-identical to the sequential pass).
NamedRelation ParallelProject(const NamedRelation& in,
                              const std::vector<AttrId>& attrs, bool dedup,
                              const RuntimeOptions& runtime,
                              size_t* morsels = nullptr);

/// Morsel-parallel ⋈ against a prebuilt index over `right` (see the indexed
/// NaturalJoin overload for the validity conditions). Implements the
/// unfiltered, unlimited fast path only — callers fall back to the
/// sequential kernel when a post filter or row cap applies. Output is
/// identical (rows and order) to NaturalJoin(left, right, right_index).
NamedRelation ParallelJoin(const NamedRelation& left,
                           const NamedRelation& right,
                           const RowIndex& right_index,
                           const RuntimeOptions& runtime,
                           size_t* morsels = nullptr);

/// Fused join-project: the distinct rows of π_{out_attrs}(σ_filter(left ⋈
/// right)), without materializing the join. `out_attrs` (nonempty) draws
/// each attribute from `left` when left has it, else from `right`. `filter`
/// (empty = none) indexes the join row: left's columns, then right's columns
/// absent from left, in right order (as NaturalJoin's post_filter).
///
/// The left side is grouped through its cached sorted trie
/// (Relation::TrieView) over K ++ J: K are the left columns the output
/// keeps, in output order, and J the join columns K lacks; with a filter,
/// every other left column follows. Per K-group the
/// kernel probes the right with every J value of the left rows that pass the
/// filter's left-only constraints, keeps the matches that pass the rest, and
/// sort-deduplicates their kept columns. A single join column whose
/// right-side range passes KeyRange::DenseForCounts for both inputs' rows
/// is probed through contiguous per-key runs of the right values the kernel
/// reads (KeyRuns, one counting sort per execution); other keys probe `right_index` — a
/// RowIndex over `right` on JoinKeyColumns(left, right), as for
/// ParallelJoin — or, when it is null, a RowIndex built here. `key`
/// (optional) receives the structure used. Rows come out group by group in
/// ascending K, each group's right tuples ascending; when K is a prefix of
/// `out_attrs` the output is therefore sorted and duplicate-free, and is
/// marked sorted(). Morsels split the groups (when runtime.ShouldMorsel on
/// the trie's rows), and their buffers are copied into the result in group
/// order by parallel tasks, so the output is byte-identical at any width.
/// Fails with ResourceExhausted once the output exceeds `max_rows` (0 =
/// unlimited). An aborted query skips the remaining morsels; the caller
/// must re-check the abort state before using the result.
Result<NamedRelation> JoinProject(const NamedRelation& left,
                                  const NamedRelation& right,
                                  const RowIndex* right_index,
                                  const std::vector<AttrId>& out_attrs,
                                  const Predicate& filter,
                                  const RuntimeOptions& runtime,
                                  uint64_t max_rows = 0,
                                  size_t* morsels = nullptr,
                                  KeyKind* key = nullptr);

/// A second join whose counts JoinCount multiplies in group by group: the
/// join-count of `left` ⋈ `right` over the same group attributes, with the
/// same ones drawn from its left side. `right_index` as for JoinCount.
struct JoinCountWeight {
  const NamedRelation* left = nullptr;
  const NamedRelation* right = nullptr;
  const RowIndex* right_index = nullptr;
  /// Out: the groups of the weight's own join-count that were counted (its
  /// groups whose K some group of the main join shares), and the key
  /// structure its right side was probed through.
  uint64_t groups = 0;
  KeyKind key{};
};

/// Fused join-count, the count twin of JoinProject: per distinct value of
/// the group attributes (all of `out_attrs` but the last, which names the
/// count column), the number of rows of left ⋈ right that carry it —
/// γ_{group; count}(left ⋈ right) — without materializing the join. Both
/// inputs are sets without a count column. The left is grouped by its
/// cached trie over K ++ J ++ its other columns, so that each trie row is
/// one left row; each run of rows sharing K and J probes the right once and
/// counts its length. Per K-group the matches sum into an array over the
/// kept right column's KeyRange when there is one such column and its range
/// passes DenseForCounts, else into (tuple, count) entries that are sorted
/// and summed. The right is probed as in JoinProject; `key` receives the
/// structure used. Output rows come group by group in ascending K, each
/// group's right tuples ascending.
///
/// A non-null `weight` folds a second join-count into the kernel, as
/// SemijoinCount(join-count, weight's join-count) would: the two joins'
/// groups pair up by K in one forward walk, each group's count is the
/// product of the two counts, and a group only one join has drops out — a
/// K-group the weight lacks is never probed. Neither join-count is
/// materialized.
///
/// Sums and products that leave the signed 64-bit range fail with
/// OutOfRange; more than `max_rows` emitted groups (0 = unlimited) fail
/// with ResourceExhausted. Morsels, determinism and aborts as JoinProject.
Result<NamedRelation> JoinCount(const NamedRelation& left,
                                const NamedRelation& right,
                                const RowIndex* right_index,
                                const std::vector<AttrId>& out_attrs,
                                const RuntimeOptions& runtime,
                                JoinCountWeight* weight = nullptr,
                                uint64_t max_rows = 0,
                                size_t* morsels = nullptr,
                                KeyKind* key = nullptr);

/// Morsel-parallel ⋉. Output identical to Semijoin(left, right), including
/// the zero-copy all-survivors and nonempty-right degenerate paths; a left
/// side below two morsels (or a sequential runtime) runs as one inline
/// chunk. A single-column key whose right-side value range (KeyRange) has
/// at most 64 × (|left| + |right|) values filters through a bitmap over
/// that range, one bit test per left row; multi-column keys and sparse
/// ranges probe a RowIndex over the right, built partitioned over the
/// runtime's scheduler. `key` (optional) receives the structure used.
NamedRelation ParallelSemijoin(const NamedRelation& left,
                               const NamedRelation& right,
                               const RuntimeOptions& runtime,
                               size_t* morsels = nullptr,
                               KeyKind* key = nullptr);

}  // namespace paraquery

#endif  // PARAQUERY_RUNTIME_PARALLEL_OPS_H_
