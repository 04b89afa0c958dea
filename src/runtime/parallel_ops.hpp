// Morsel-driven data-parallel relational operators: row-range morsels of the
// input RowBlock are processed by scheduler tasks into per-morsel output
// buffers, which are then merged in morsel order — so each operator's output
// holds exactly the rows, in exactly the order, its sequential counterpart
// in relational/ops.hpp produces. Join and semijoin probe a shared
// read-only key structure over the build side (a RowIndex, or the
// semijoin's dense-key bitmap), built once before the probe; the morsels
// split only the probe side.
//
// Callers (the plan executor) choose when to engage Select, Project and
// Join via RuntimeOptions::ShouldMorsel; JoinProject and Semijoin apply it
// themselves and always run. Every function degrades to one inline chunk
// under a null/width-1 scheduler.
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

/// Fused join-project: the distinct rows of π_{out_attrs}(left ⋈ right),
/// without materializing the join. `right_index` indexes `right` on
/// JoinKeyColumns(left, right), as for ParallelJoin; `out_attrs` (nonempty)
/// draws each attribute from `left` when left has it, else from `right`.
///
/// The left side is grouped through its cached sorted trie
/// (Relation::TrieView) over K ++ J: K are the left columns the output
/// keeps, in output order, and J the join columns K lacks. Per K-group the
/// kernel probes the right with every J value, gathers the matching right
/// rows' kept columns and sort-deduplicates them. Rows come out group by
/// group in ascending K, each group's right tuples ascending; when K is a
/// prefix of `out_attrs` the output is therefore sorted and duplicate-free.
/// Morsels split the groups (when runtime.ShouldMorsel on the trie's rows)
/// and merge in group order, so the output is byte-identical at any width.
/// Fails with ResourceExhausted once the output exceeds `max_rows` (0 =
/// unlimited). An aborted query skips the remaining morsels; the caller must
/// re-check the abort state before using the result.
Result<NamedRelation> JoinProject(const NamedRelation& left,
                                  const NamedRelation& right,
                                  const RowIndex& right_index,
                                  const std::vector<AttrId>& out_attrs,
                                  const RuntimeOptions& runtime,
                                  uint64_t max_rows = 0,
                                  size_t* morsels = nullptr);

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
