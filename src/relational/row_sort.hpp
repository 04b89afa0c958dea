// Row sort kernel: sorts a row-major Value buffer lexicographically and
// removes duplicate rows. Every sorted, deduplicated answer and every
// sorted-trie index goes through it (Relation::SortAndDedup,
// TrieIndex::Build).
//
// Sorting is linear in the input on a RAM when keys are small integers —
// the observation Durand and Grandjean use to keep acyclic evaluation
// linear in input plus output. The kernel runs a least-significant-digit
// radix sort with 8-bit digits over the key bytes that vary: column c's key
// is (uint64)(v - min_c), computed in unsigned arithmetic, so a column whose
// values span fewer than 2^16 codes costs at most two passes however large
// the values are, a constant column costs none, and a digit on which all
// rows agree skips its scatter. Rows move whole, by fixed-size copies for
// arities 1–4. Small inputs, and inputs whose keys span too many bytes
// (a column mixing plain integers with dictionary codes, which sit at 2^62
// and up), use a comparison sort instead. Duplicates are dropped in the
// final compaction pass.
//
// Input that is already strictly increasing (sorted, no duplicates) is
// detected by one pass that stops at the first row not greater than its
// predecessor — O(1) on random input — and returned untouched; sorted input
// with a duplicate still takes the full path. Kernels that emit their rows
// in order (the grouped join-project) thus pay one linear check here instead
// of a sort.
//
// With `pfor` bound, large inputs run their min/max, histogram and scatter
// passes chunk-parallel. Sorted-then-deduplicated output is unique, so the
// result is byte-identical at any width and on either path.
#ifndef PARAQUERY_RELATIONAL_ROW_SORT_H_
#define PARAQUERY_RELATIONAL_ROW_SORT_H_

#include <cstddef>
#include <vector>

#include "common/parallel_for.hpp"
#include "relational/value.hpp"

namespace paraquery {

/// Sorts the rows of `rows` (row-major, `arity` >= 1 values per row; the
/// size must be a multiple of `arity`) into ascending lexicographic order
/// and removes duplicate rows, in place: on return `rows` holds the distinct
/// rows, sorted. Scratch memory stays within one more buffer of the input's
/// size plus one 8-byte row index per row.
void SortDedupRows(std::vector<Value>& rows, size_t arity,
                   const ParallelForFn& pfor = {});

}  // namespace paraquery

#endif  // PARAQUERY_RELATIONAL_ROW_SORT_H_
