#include "runtime/parallel_ops.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "obs/trace.hpp"
#include "relational/ops.hpp"
#include "relational/row_index.hpp"
#include "relational/row_sort.hpp"
#include "relational/trie_index.hpp"

namespace paraquery {

namespace {

// Positions of the common attributes, as (left column, right column) pairs
// in left-attribute order (the sequential kernels' CommonColumns).
std::vector<std::pair<int, int>> CommonColumns(const NamedRelation& left,
                                               const NamedRelation& right) {
  std::vector<std::pair<int, int>> out;
  for (size_t i = 0; i < left.attrs().size(); ++i) {
    int rc = right.ColumnOf(left.attrs()[i]);
    if (rc >= 0) out.emplace_back(static_cast<int>(i), rc);
  }
  return out;
}

// Concatenates per-morsel buffers (in morsel order) into one flat relation.
NamedRelation MergeMorsels(std::vector<AttrId> attrs, size_t arity,
                           const std::vector<std::vector<Value>>& bufs) {
  size_t total = 0;
  for (const std::vector<Value>& b : bufs) total += b.size();
  std::vector<Value> out(total);
  Value* dst = out.data();
  for (const std::vector<Value>& b : bufs) {
    std::copy(b.begin(), b.end(), dst);
    dst += b.size();
  }
  return NamedRelation{std::move(attrs), Relation(arity, std::move(out))};
}

// Exclusive prefix sum of per-chunk row counts; returns the total.
size_t PrefixOffsets(std::vector<size_t>* counts) {
  size_t total = 0;
  for (size_t& c : *counts) {
    size_t n = c;
    c = total;
    total += n;
  }
  return total;
}

/// Bits per input row (left plus right) a semijoin's key bitmap may use:
/// 64 bits, so the bitmap never outgrows 8 bytes per input row. A function
/// of the input only, like RowIndex's partitioning threshold.
constexpr uint64_t kDenseSemijoinBitsPerRow = 64;

}  // namespace

NamedRelation ParallelSelect(const NamedRelation& in, const Predicate& pred,
                             const RuntimeOptions& runtime, size_t* morsels) {
  if (pred.empty()) return in;  // identity selection: zero-copy view
  size_t n = in.size(), arity = in.arity();
  std::vector<std::vector<Value>> bufs(ChunkCount(n, runtime.morsel_rows));
  size_t chunks = ParallelChunks(
      runtime.scheduler, n, runtime.morsel_rows,
      [&](size_t c, size_t begin, size_t end) {
        // Aborted query: skip the morsel. The executor re-checks the abort
        // after the operator, so a partially filled result never escapes.
        if (runtime.Interrupted()) return;
        TraceSpan span(runtime.tracer, "morsel.select");
        std::vector<Value>& buf = bufs[c];
        for (size_t r = begin; r < end; ++r) {
          auto row = in.rel().Row(r);
          if (pred.Eval(row)) buf.insert(buf.end(), row.begin(), row.end());
        }
      });
  if (morsels != nullptr) *morsels += chunks;
  return MergeMorsels(in.attrs(), arity, bufs);
}

NamedRelation ParallelProject(const NamedRelation& in,
                              const std::vector<AttrId>& attrs, bool dedup,
                              const RuntimeOptions& runtime, size_t* morsels) {
  if (attrs == in.attrs()) return Project(in, attrs, dedup);  // view path
  std::vector<int> cols(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) {
    int c = in.ColumnOf(attrs[i]);
    PQ_CHECK(c >= 0, "ParallelProject: attribute not present in input");
    cols[i] = c;
  }
  size_t n = in.size(), out_arity = attrs.size();
  std::vector<std::vector<Value>> bufs(ChunkCount(n, runtime.morsel_rows));
  size_t chunks = ParallelChunks(
      runtime.scheduler, n, runtime.morsel_rows,
      [&](size_t c, size_t begin, size_t end) {
        if (runtime.Interrupted()) return;  // abort: executor discards below
        TraceSpan span(runtime.tracer, "morsel.project");
        std::vector<Value>& buf = bufs[c];
        buf.reserve((end - begin) * out_arity);
        for (size_t r = begin; r < end; ++r) {
          for (int col : cols) buf.push_back(in.rel().At(r, col));
        }
      });
  if (morsels != nullptr) *morsels += chunks;
  NamedRelation out = MergeMorsels(attrs, out_arity, bufs);
  // Same order as the sequential kernel, so first-occurrence dedup keeps
  // identical rows in identical positions (at any width; see HashDedup).
  if (dedup) out.rel().HashDedup(MakeParallelFor(runtime.scheduler));
  return out;
}

NamedRelation ParallelJoin(const NamedRelation& left,
                           const NamedRelation& right,
                           const RowIndex& right_index,
                           const RuntimeOptions& runtime, size_t* morsels) {
  PQ_DCHECK((right.arity() == 0 ||
             right_index.rel().SharesStorageWith(right.rel())) &&
                right_index.key_cols() == JoinKeyColumns(left, right),
            "ParallelJoin: index does not match the join's key columns");
  auto common = CommonColumns(left, right);
  std::vector<int> lcols;
  for (auto [lc, rc] : common) lcols.push_back(lc);
  std::vector<AttrId> out_attrs = left.attrs();
  std::vector<int> right_extra;
  for (size_t i = 0; i < right.attrs().size(); ++i) {
    if (!left.HasAttr(right.attrs()[i])) {
      out_attrs.push_back(right.attrs()[i]);
      right_extra.push_back(static_cast<int>(i));
    }
  }
  size_t larity = left.arity();
  size_t out_arity = out_attrs.size();
  PQ_CHECK(out_arity > 0, "ParallelJoin requires a nonempty output schema");

  // Probe pass over left morsels: chain heads and per-morsel output sizes.
  size_t nl = left.size();
  std::vector<uint32_t> first(nl);
  std::vector<size_t> offsets(ChunkCount(nl, runtime.morsel_rows), 0);
  size_t chunks = ParallelChunks(
      runtime.scheduler, nl, runtime.morsel_rows,
      [&](size_t c, size_t begin, size_t end) {
        if (runtime.Interrupted()) return;  // abort: executor discards below
        TraceSpan span(runtime.tracer, "morsel.join");
        size_t total = 0;
        for (size_t lr = begin; lr < end; ++lr) {
          uint32_t rr = right_index.Find(left.rel(), lr, lcols);
          first[lr] = rr;
          if (rr != RowIndex::kNone) total += right_index.MatchCount(rr);
        }
        offsets[c] = total;
      });
  size_t total = PrefixOffsets(&offsets);

  // Emit pass: every morsel writes its disjoint slice of one allocation.
  std::vector<Value> out_data(total * out_arity);
  const std::vector<Value>& ldata = left.rel().data();
  const std::vector<Value>& rdata = right.rel().data();
  size_t rarity = right.arity();
  ParallelChunks(
      runtime.scheduler, nl, runtime.morsel_rows,
      [&](size_t c, size_t begin, size_t end) {
        if (runtime.Interrupted()) return;  // abort: executor discards below
        TraceSpan span(runtime.tracer, "morsel.join");
        Value* dst = out_data.data() + offsets[c] * out_arity;
        for (size_t lr = begin; lr < end; ++lr) {
          uint32_t rr = first[lr];
          if (rr == RowIndex::kNone) continue;
          const Value* lrow = ldata.data() + lr * larity;
          for (; rr != RowIndex::kNone; rr = right_index.Next(rr)) {
            for (size_t i = 0; i < larity; ++i) *dst++ = lrow[i];
            const Value* rrow =
                rdata.data() + static_cast<size_t>(rr) * rarity;
            for (int col : right_extra) *dst++ = rrow[col];
          }
        }
      });
  if (morsels != nullptr) *morsels += chunks;
  return NamedRelation{std::move(out_attrs),
                       Relation(out_arity, std::move(out_data))};
}

Result<NamedRelation> JoinProject(const NamedRelation& left,
                                  const NamedRelation& right,
                                  const RowIndex& right_index,
                                  const std::vector<AttrId>& out_attrs,
                                  const RuntimeOptions& runtime,
                                  uint64_t max_rows, size_t* morsels) {
  PQ_DCHECK((right.arity() == 0 ||
             right_index.rel().SharesStorageWith(right.rel())) &&
                right_index.key_cols() == JoinKeyColumns(left, right),
            "JoinProject: index does not match the join's key columns");
  const size_t out_arity = out_attrs.size();
  PQ_CHECK(out_arity > 0, "JoinProject requires a nonempty output schema");
  if (left.empty() || right.empty()) return NamedRelation{out_attrs};
  // Output positions fed by the left (the group key K) and by the right.
  std::vector<int> trie_cols, rcols;
  std::vector<size_t> kpos, rpos;
  for (size_t i = 0; i < out_arity; ++i) {
    int lc = left.ColumnOf(out_attrs[i]);
    if (lc >= 0) {
      trie_cols.push_back(lc);
      kpos.push_back(i);
      continue;
    }
    int rc = right.ColumnOf(out_attrs[i]);
    PQ_CHECK(rc >= 0, "JoinProject: output attribute in neither input");
    rcols.push_back(rc);
    rpos.push_back(i);
  }
  const size_t nk = kpos.size(), nr = rcols.size();
  // Trie level of each probe-key value (JoinKeyColumns order); join columns
  // the output does not keep become trie levels after K.
  std::vector<size_t> key_level;
  for (size_t c = 0; c < left.arity(); ++c) {
    if (!right.HasAttr(left.attrs()[c])) continue;
    const int col = static_cast<int>(c);
    auto it = std::find(trie_cols.begin(), trie_cols.end(), col);
    key_level.push_back(static_cast<size_t>(it - trie_cols.begin()));
    if (it == trie_cols.end()) trie_cols.push_back(col);
  }
  // No trie levels (no kept and no join column on the left): one group of
  // one empty-key probe.
  std::shared_ptr<const TrieIndex> trie;
  const size_t w = trie_cols.size();
  size_t trows = 1;
  if (w > 0) {
    trie = left.rel().TrieView(trie_cols, MakeParallelFor(runtime.scheduler));
    trows = trie->rows();
  }
  const Value* tdata = w > 0 ? trie->data() : nullptr;
  // Group boundaries: runs of trie rows sharing their first nk levels.
  std::vector<size_t> group_start{0};
  for (size_t r = 1; r < trows && nk > 0; ++r) {
    const Value* row = tdata + r * w;
    if (!std::equal(row, row + nk, row - w)) group_start.push_back(r);
  }
  const size_t ngroups = group_start.size();
  group_start.push_back(trows);

  // About morsel_rows trie rows per morsel; one morsel when sequential.
  const bool par = runtime.ShouldMorsel(trows);
  const size_t grain =
      par ? std::max<size_t>(1, ngroups * runtime.morsel_rows / trows)
          : ngroups;
  const Value* rdata = right.rel().data().data();
  const size_t rarity = right.arity();
  std::vector<std::vector<Value>> bufs(ChunkCount(ngroups, grain));
  std::atomic<uint64_t> emitted{0};
  std::atomic<bool> over{false};
  size_t chunks = ParallelChunks(
      par ? runtime.scheduler : nullptr, ngroups, grain,
      [&](size_t c, size_t gb, size_t ge) {
        if (runtime.Interrupted()) return;  // abort: caller discards below
        TraceSpan span(runtime.tracer, "morsel.join_project");
        std::vector<Value>& buf = bufs[c];
        std::vector<Value> key(key_level.size()), tuples;
        for (size_t g = gb; g < ge; ++g) {
          if (over.load()) return;
          tuples.clear();
          bool matched = false;
          for (size_t r = group_start[g]; r < group_start[g + 1]; ++r) {
            for (size_t i = 0; i < key_level.size(); ++i) {
              key[i] = tdata[r * w + key_level[i]];
            }
            for (uint32_t rr = right_index.Find(key); rr != RowIndex::kNone;
                 rr = right_index.Next(rr)) {
              matched = true;
              if (nr == 0) break;  // K alone is the output row
              const Value* rrow = rdata + static_cast<size_t>(rr) * rarity;
              for (int col : rcols) tuples.push_back(rrow[col]);
            }
            if (matched && nr == 0) break;
          }
          if (!matched) continue;
          // Single values sort in place (measurably faster on the many tiny
          // groups of a 2-path); wider tuples use the row kernel.
          if (nr == 1) {
            std::sort(tuples.begin(), tuples.end());
            tuples.erase(std::unique(tuples.begin(), tuples.end()),
                         tuples.end());
          } else if (nr > 1) {
            SortDedupRows(tuples, nr);
          }
          const size_t rows = nr == 0 ? 1 : tuples.size() / nr;
          if (max_rows != 0 && emitted.fetch_add(rows) + rows > max_rows) {
            over.store(true);
            return;
          }
          const Value* krow = nk > 0 ? tdata + group_start[g] * w : nullptr;
          size_t at = buf.size();
          buf.resize(at + rows * out_arity);
          for (size_t t = 0; t < rows; ++t, at += out_arity) {
            for (size_t i = 0; i < nk; ++i) buf[at + kpos[i]] = krow[i];
            for (size_t i = 0; i < nr; ++i) {
              buf[at + rpos[i]] = tuples[t * nr + i];
            }
          }
        }
      });
  if (over.load()) {
    return Status::ResourceExhausted(internal::StrCat(
        "join-project output exceeds limit of ", max_rows, " rows"));
  }
  if (!par) {  // one morsel: its buffer is the result
    return NamedRelation{out_attrs, Relation(out_arity, std::move(bufs[0]))};
  }
  if (morsels != nullptr) *morsels += chunks;
  return MergeMorsels(out_attrs, out_arity, bufs);
}

NamedRelation ParallelSemijoin(const NamedRelation& left,
                               const NamedRelation& right,
                               const RuntimeOptions& runtime, size_t* morsels,
                               KeyKind* key) {
  auto common = CommonColumns(left, right);
  std::vector<int> lcols, rcols;
  for (auto [lc, rc] : common) {
    lcols.push_back(lc);
    rcols.push_back(rc);
  }
  if (common.empty()) {
    // Degenerate semijoin: keep left iff right is nonempty (zero-copy).
    return right.empty() ? NamedRelation{left.attrs()} : left;
  }
  const size_t nl = left.size();
  // One inline chunk unless the left side spans at least two morsels.
  const bool par = runtime.ShouldMorsel(nl);
  TaskScheduler* scheduler = par ? runtime.scheduler : nullptr;
  const size_t grain = par ? runtime.morsel_rows : std::max<size_t>(nl, 1);
  // A single-column key over a small enough value range filters through a
  // bitmap of the right's keys; anything else probes a RowIndex.
  std::optional<KeyRange> range;
  if (lcols.size() == 1) {
    range.emplace(right.rel(), rcols[0]);
    if (!range->FitsIn(kDenseSemijoinBitsPerRow * (nl + right.size()))) {
      range.reset();
    }
  }
  std::optional<KeyBitmap> bits;
  std::optional<RowIndex> index;
  if (range) {
    bits.emplace(range->slots());
    const Value* rk = right.rel().data().data() + rcols[0];
    const size_t rarity = right.arity();
    uint64_t off = 0;
    for (size_t r = 0; r < right.size(); ++r) {
      range->Offset(rk[r * rarity], &off);
      bits->Set(off);
    }
  } else {
    index.emplace(right.rel(), std::move(rcols),
                  MakeParallelFor(runtime.scheduler));
  }
  if (key != nullptr) *key = range ? KeyKind::kDense : KeyKind::kHash;
  std::vector<uint8_t> keep(nl, 0);
  std::vector<size_t> offsets(ChunkCount(nl, grain), 0);
  const Value* ldata = left.rel().data().data();
  const size_t larity = left.arity();
  size_t chunks = ParallelChunks(
      scheduler, nl, grain, [&](size_t c, size_t begin, size_t end) {
        if (runtime.Interrupted()) return;  // abort: executor discards below
        TraceSpan span(runtime.tracer, "morsel.semijoin");
        size_t kept = 0;
        if (range) {
          const Value* lk = ldata + lcols[0];
          uint64_t off = 0;
          for (size_t lr = begin; lr < end; ++lr) {
            const bool hit =
                range->Offset(lk[lr * larity], &off) && bits->Test(off);
            keep[lr] = hit;
            kept += hit;
          }
        } else {
          for (size_t lr = begin; lr < end; ++lr) {
            if (index->Contains(left.rel(), lr, lcols)) {
              keep[lr] = 1;
              ++kept;
            }
          }
        }
        offsets[c] = kept;
      });
  size_t total = PrefixOffsets(&offsets);
  if (par && morsels != nullptr) *morsels += chunks;
  // Every row survived: the result IS left — share its storage.
  if (total == nl) return left;
  std::vector<Value> out_data(total * larity);
  ParallelChunks(
      scheduler, nl, grain, [&](size_t c, size_t begin, size_t end) {
        if (runtime.Interrupted()) return;  // abort: executor discards below
        TraceSpan span(runtime.tracer, "morsel.semijoin");
        Value* dst = out_data.data() + offsets[c] * larity;
        for (size_t lr = begin; lr < end; ++lr) {
          if (!keep[lr]) continue;
          const Value* row = ldata + lr * larity;
          for (size_t i = 0; i < larity; ++i) *dst++ = row[i];
        }
      });
  return NamedRelation{left.attrs(), Relation(larity, std::move(out_data))};
}

}  // namespace paraquery
