#include "runtime/parallel_ops.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
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

namespace {

// How a grouped join kernel splits its output attributes `group` (drawn from
// left ⋈ right, in output order): K, the left columns it keeps, with their
// output positions; the right-only columns it keeps, with theirs; and the
// right join-key columns, in JoinKeyColumns order.
struct GroupedShape {
  std::vector<int> kcols, rcols, rkey;
  std::vector<size_t> kpos, rpos;
};

GroupedShape SplitGroup(const NamedRelation& left, const NamedRelation& right,
                        std::span<const AttrId> group) {
  GroupedShape s;
  for (size_t i = 0; i < group.size(); ++i) {
    const int lc = left.ColumnOf(group[i]);
    if (lc >= 0) {
      s.kcols.push_back(lc);
      s.kpos.push_back(i);
      continue;
    }
    const int rc = right.ColumnOf(group[i]);
    PQ_CHECK(rc >= 0, "grouped join: output attribute in neither input");
    s.rcols.push_back(rc);
    s.rpos.push_back(i);
  }
  s.rkey = JoinKeyColumns(left, right);
  return s;
}

// The left side of a grouped join kernel: its cached sorted trie
// (Relation::TrieView) over K, then the join columns K lacks, then — with
// `all_columns` — every other left column, so that each trie row is one
// left row. The trie rows are cut into groups that share their K prefix.
// `key_level` maps each join-key value (JoinKeyColumns order) to its trie
// level; K and the join columns occupy the first `probe_levels` levels.
// With no levels at all the left is one group of one empty row.
struct LeftGroups {
  std::shared_ptr<const TrieIndex> trie;
  const Value* data = nullptr;
  size_t width = 0, rows = 1, probe_levels = 0;
  std::vector<size_t> key_level;
  std::vector<size_t> start;  // group g is trie rows [start[g], start[g+1])

  size_t groups() const { return start.size() - 1; }
  const Value* Row(size_t r) const { return data + r * width; }
};

LeftGroups GroupLeft(const NamedRelation& left, const NamedRelation& right,
                     const GroupedShape& s, bool all_columns,
                     const RuntimeOptions& runtime) {
  LeftGroups g;
  std::vector<int> cols = s.kcols;
  for (size_t c = 0; c < left.arity(); ++c) {
    if (!right.HasAttr(left.attrs()[c])) continue;
    const int col = static_cast<int>(c);
    auto it = std::find(cols.begin(), cols.end(), col);
    g.key_level.push_back(static_cast<size_t>(it - cols.begin()));
    if (it == cols.end()) cols.push_back(col);
  }
  g.probe_levels = cols.size();
  for (size_t c = 0; all_columns && c < left.arity(); ++c) {
    const int col = static_cast<int>(c);
    if (std::find(cols.begin(), cols.end(), col) == cols.end()) {
      cols.push_back(col);
    }
  }
  g.width = cols.size();
  if (g.width > 0) {
    g.trie = left.rel().TrieView(cols, MakeParallelFor(runtime.scheduler));
    g.data = g.trie->data();
    g.rows = g.trie->rows();
  }
  const size_t nk = s.kcols.size();
  g.start.push_back(0);
  for (size_t r = 1; r < g.rows && nk > 0; ++r) {
    const Value* row = g.Row(r);
    if (!std::equal(row, row + nk, row - g.width)) g.start.push_back(r);
  }
  g.start.push_back(g.rows);
  return g;
}

// The right side of a grouped join kernel: for one join key, the matching
// right rows, each read at cols() for the kernel's kept right columns. A
// single key column whose range passes KeyRange::DenseForCounts probes
// contiguous KeyRuns holding exactly those columns, built by one counting
// sort; any other key walks the chains of a RowIndex — `cached` when the
// caller has one, else one built here.
class RightMatches {
 public:
  RightMatches(const NamedRelation& right, const GroupedShape& s,
               const RowIndex* cached, const RuntimeOptions& runtime) {
    if (cached == nullptr && s.rkey.size() == 1) {
      const KeyRange range(right.rel(), s.rkey[0]);
      if (range.DenseForCounts(right.size())) {
        runs_.emplace(right.rel(), s.rkey[0], range, s.rcols);
        for (size_t i = 0; i < s.rcols.size(); ++i) {
          cols_.push_back(static_cast<int>(i));
        }
        return;
      }
    }
    index_ = cached != nullptr
                 ? cached
                 : &local_.emplace(right.rel(), s.rkey,
                                   MakeParallelFor(runtime.scheduler));
    data_ = right.rel().data().data();
    arity_ = right.arity();
    cols_ = s.rcols;
  }

  KeyKind kind() const { return runs_ ? KeyKind::kDense : KeyKind::kHash; }
  const std::vector<int>& cols() const { return cols_; }

  // Calls fn(row) for the matches of `key` in right-row order until fn
  // returns false.
  template <typename Fn>
  void ForEach(std::span<const Value> key, const Fn& fn) const {
    if (runs_) {
      uint32_t b = 0, e = 0;
      if (!runs_->Find(key[0], &b, &e)) return;
      for (; b < e; ++b) {
        if (!fn(runs_->Entry(b))) return;
      }
      return;
    }
    for (uint32_t rr = index_->Find(key); rr != RowIndex::kNone;
         rr = index_->Next(rr)) {
      if (!fn(data_ + static_cast<size_t>(rr) * arity_)) return;
    }
  }

  // The number of matches of `key`.
  uint32_t Count(std::span<const Value> key) const {
    if (runs_) {
      uint32_t b = 0, e = 0;
      return runs_->Find(key[0], &b, &e) ? e - b : 0;
    }
    const uint32_t head = index_->Find(key);
    return head == RowIndex::kNone ? 0 : index_->MatchCount(head);
  }

 private:
  std::optional<KeyRuns> runs_;
  std::optional<RowIndex> local_;
  const RowIndex* index_ = nullptr;
  const Value* data_ = nullptr;
  size_t arity_ = 0;
  std::vector<int> cols_;
};

// Morsel grain over a grouped kernel's groups: about morsel_rows trie rows
// per morsel when the left spans two morsels, else one morsel.
size_t GroupGrain(const LeftGroups& g, const RuntimeOptions& runtime) {
  const size_t ngroups = g.groups();
  if (!runtime.ShouldMorsel(g.rows)) return std::max<size_t>(ngroups, 1);
  return std::max<size_t>(1, ngroups * runtime.morsel_rows / g.rows);
}

// Sorts the rows (`width` values each) of `rows` by their first `key`
// values, keeping equal rows in input order.
void SortRowsByPrefix(std::vector<Value>& rows, size_t width, size_t key) {
  const size_t n = rows.size() / width;
  if (n < 2) return;
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  auto row = [&](uint32_t i) { return rows.data() + size_t{i} * width; };
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(row(a), row(a) + key, row(b),
                                        row(b) + key);
  });
  std::vector<Value> sorted;
  sorted.reserve(rows.size());
  for (uint32_t i : order) sorted.insert(sorted.end(), row(i), row(i) + width);
  rows.swap(sorted);
}

// One group's join counts keyed by the kept right tuple (nr values): summed
// into an array over the one kept column's KeyRange when it is dense, else
// collected as (tuple, count) entries that Finish sorts and sums; with no
// kept right column, one scalar total. Every sum is overflow-checked.
class GroupCounts {
 public:
  GroupCounts(size_t nr, const std::optional<KeyRange>& dense)
      : nr_(nr), dense_(dense), acc_(dense ? dense->slots() : 0, 0) {}

  // Adds `m` to the count of tuple `t`; false on overflow.
  bool Add(const Value* t, Value m) {
    if (nr_ == 0) return !__builtin_add_overflow(total_, m, &total_);
    if (dense_) {
      uint64_t off = 0;
      dense_->Offset(t[0], &off);
      if (acc_[off] == 0) touched_.push_back(off);
      return !__builtin_add_overflow(acc_[off], m, &acc_[off]);
    }
    entries_.insert(entries_.end(), t, t + nr_);
    entries_.push_back(m);
    return true;
  }

  // Ends the group's Adds: sums the entries per tuple; false on overflow.
  bool Finish() {
    if (nr_ == 0 || dense_) return true;
    const size_t w = nr_ + 1;
    SortRowsByPrefix(entries_, w, nr_);
    bool ok = true;
    for (size_t i = 0; i < entries_.size(); i += w) {
      const Value* t = entries_.data() + i;
      const size_t last = summed_.size();
      if (last > 0 && std::equal(t, t + nr_, summed_.data() + last - w)) {
        ok &= !__builtin_add_overflow(summed_[last - 1], t[nr_],
                                      &summed_[last - 1]);
      } else {
        summed_.insert(summed_.end(), t, t + w);
      }
    }
    return ok;
  }

  // The count of tuple `t` after Finish; 0 when absent.
  Value Lookup(const Value* t) const {
    if (nr_ == 0) return total_;
    uint64_t off = 0;
    if (dense_) return dense_->Offset(t[0], &off) ? acc_[off] : 0;
    const size_t w = nr_ + 1;
    size_t lo = 0, hi = summed_.size() / w;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      const Value* row = summed_.data() + mid * w;
      if (std::lexicographical_compare(row, row + nr_, t, t + nr_)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const Value* row = summed_.data() + lo * w;
    return lo < summed_.size() / w && std::equal(t, t + nr_, row) ? row[nr_]
                                                                   : 0;
  }

  // The number of tuples counted.
  size_t size() const {
    if (nr_ == 0) return total_ > 0 ? 1 : 0;
    return dense_ ? touched_.size() : summed_.size() / (nr_ + 1);
  }

  // Calls fn(tuple, count) for every counted tuple, in ascending tuple
  // order when `sorted`.
  template <typename Fn>
  void ForEach(bool sorted, const Fn& fn) {
    if (nr_ == 0) {
      if (total_ > 0) fn(nullptr, total_);
      return;
    }
    if (dense_) {
      if (sorted) std::sort(touched_.begin(), touched_.end());
      for (uint64_t off : touched_) {
        const Value v = dense_->ValueAt(off);
        fn(&v, acc_[off]);
      }
      return;
    }
    for (size_t i = 0; i < summed_.size(); i += nr_ + 1) {
      fn(summed_.data() + i, summed_[i + nr_]);
    }
  }

  void Clear() {
    total_ = 0;
    for (uint64_t off : touched_) acc_[off] = 0;
    touched_.clear();
    entries_.clear();
    summed_.clear();
  }

 private:
  size_t nr_;
  std::optional<KeyRange> dense_;
  Value total_ = 0;
  std::vector<Value> acc_;
  std::vector<uint64_t> touched_;
  std::vector<Value> entries_, summed_;  // rows of (tuple..., count)
};

// One join of a join-count: the left's groups (a trie row per left row) and
// the right's matches, split over the kernel's group attributes.
struct CountPair {
  GroupedShape shape;
  LeftGroups groups;
  RightMatches matches;
  std::optional<KeyRange> dense;  // the one kept right column's, if dense

  CountPair(const NamedRelation& left, const NamedRelation& right,
            std::span<const AttrId> group, const RowIndex* right_index,
            const RuntimeOptions& runtime)
      : shape(SplitGroup(left, right, group)),
        groups(GroupLeft(left, right, shape, /*all_columns=*/true, runtime)),
        matches(right, shape, right_index, runtime) {
    if (shape.rcols.size() == 1) {
      const KeyRange range(right.rel(), shape.rcols[0]);
      if (range.DenseForCounts(right.size())) dense = range;
    }
  }

  // The K values of group `gi` (nk leading trie levels).
  const Value* Key(size_t gi) const { return groups.Row(groups.start[gi]); }

  // Adds group gi's join rows to `counts`: each run of left rows sharing K
  // and the join values probes once, weighted by the run's length. False
  // on overflow. `keyv` and `tuple` are work buffers as wide as the join
  // key and the kept right columns.
  bool Count(size_t gi, GroupCounts* counts, std::vector<Value>& keyv,
             std::vector<Value>& tuple) const {
    const std::vector<int>& pcols = matches.cols();
    bool ok = true;
    for (size_t r = groups.start[gi], end = groups.start[gi + 1];
         r < end && ok;) {
      const Value* row = groups.Row(r);
      size_t e = r + 1;
      while (e < end &&
             std::equal(row, row + groups.probe_levels, groups.Row(e))) {
        ++e;
      }
      const Value mult = static_cast<Value>(e - r);
      r = e;
      for (size_t i = 0; i < keyv.size(); ++i) {
        keyv[i] = row[groups.key_level[i]];
      }
      if (tuple.empty()) {
        Value m = 0;
        ok = !__builtin_mul_overflow(
                 mult, static_cast<Value>(matches.Count(keyv)), &m) &&
             counts->Add(nullptr, m);
        continue;
      }
      matches.ForEach(keyv, [&](const Value* rrow) {
        for (size_t i = 0; i < tuple.size(); ++i) tuple[i] = rrow[pcols[i]];
        ok = counts->Add(tuple.data(), mult);
        return ok;
      });
    }
    return ok && counts->Finish();
  }
};

}  // namespace

Result<NamedRelation> JoinProject(const NamedRelation& left,
                                  const NamedRelation& right,
                                  const RowIndex* right_index,
                                  const std::vector<AttrId>& out_attrs,
                                  const RuntimeOptions& runtime,
                                  uint64_t max_rows, size_t* morsels,
                                  KeyKind* key) {
  PQ_DCHECK(right_index == nullptr ||
                ((right.arity() == 0 ||
                  right_index->rel().SharesStorageWith(right.rel())) &&
                 right_index->key_cols() == JoinKeyColumns(left, right)),
            "JoinProject: index does not match the join's key columns");
  const size_t out_arity = out_attrs.size();
  PQ_CHECK(out_arity > 0, "JoinProject requires a nonempty output schema");
  if (left.empty() || right.empty()) return NamedRelation{out_attrs};
  const GroupedShape s = SplitGroup(left, right, out_attrs);
  const size_t nk = s.kpos.size(), nr = s.rcols.size();
  const LeftGroups g = GroupLeft(left, right, s, /*all_columns=*/false,
                                 runtime);
  const RightMatches matches(right, s, right_index, runtime);
  if (key != nullptr) *key = matches.kind();
  const std::vector<int>& pcols = matches.cols();
  const size_t ngroups = g.groups();
  const bool par = runtime.ShouldMorsel(g.rows);
  const size_t grain = GroupGrain(g, runtime);
  std::vector<std::vector<Value>> bufs(ChunkCount(ngroups, grain));
  std::atomic<uint64_t> emitted{0};
  std::atomic<bool> over{false};
  size_t chunks = ParallelChunks(
      par ? runtime.scheduler : nullptr, ngroups, grain,
      [&](size_t c, size_t gb, size_t ge) {
        if (runtime.Interrupted()) return;  // abort: caller discards below
        TraceSpan span(runtime.tracer, "morsel.join_project");
        std::vector<Value>& buf = bufs[c];
        std::vector<Value> keyv(g.key_level.size()), tuples;
        for (size_t gi = gb; gi < ge; ++gi) {
          if (over.load()) return;
          tuples.clear();
          bool matched = false;
          for (size_t r = g.start[gi]; r < g.start[gi + 1]; ++r) {
            const Value* row = g.Row(r);
            for (size_t i = 0; i < keyv.size(); ++i) {
              keyv[i] = row[g.key_level[i]];
            }
            matches.ForEach(keyv, [&](const Value* rrow) {
              matched = true;
              for (int col : pcols) tuples.push_back(rrow[col]);
              return nr > 0;  // K alone is the output row
            });
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
          const Value* krow = nk > 0 ? g.Row(g.start[gi]) : nullptr;
          size_t at = buf.size();
          buf.resize(at + rows * out_arity);
          for (size_t t = 0; t < rows; ++t, at += out_arity) {
            for (size_t i = 0; i < nk; ++i) buf[at + s.kpos[i]] = krow[i];
            for (size_t i = 0; i < nr; ++i) {
              buf[at + s.rpos[i]] = tuples[t * nr + i];
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

Result<NamedRelation> JoinCount(const NamedRelation& left,
                                const NamedRelation& right,
                                const RowIndex* right_index,
                                const std::vector<AttrId>& out_attrs,
                                const RuntimeOptions& runtime,
                                JoinCountWeight* weight, uint64_t max_rows,
                                size_t* morsels, KeyKind* key) {
  PQ_DCHECK(right_index == nullptr ||
                ((right.arity() == 0 ||
                  right_index->rel().SharesStorageWith(right.rel())) &&
                 right_index->key_cols() == JoinKeyColumns(left, right)),
            "JoinCount: index does not match the join's key columns");
  PQ_CHECK(!out_attrs.empty(), "JoinCount requires a count column");
  const size_t out_arity = out_attrs.size(), ngroup = out_arity - 1;
  if (left.empty() || right.empty() ||
      (weight != nullptr && (weight->left->empty() || weight->right->empty()))) {
    return NamedRelation{out_attrs};
  }
  const std::span<const AttrId> group(out_attrs.data(), ngroup);
  const CountPair main(left, right, group, right_index, runtime);
  if (key != nullptr) *key = main.matches.kind();
  std::optional<CountPair> second;
  if (weight != nullptr) {
    second.emplace(*weight->left, *weight->right, group, weight->right_index,
                   runtime);
    weight->key = second->matches.kind();
    if (second->shape.kpos != main.shape.kpos) {
      return Status::Internal(
          "join-count weight is not grouped by the same left attributes");
    }
  }
  const GroupedShape& s = main.shape;
  const size_t nk = s.kpos.size(), nr = s.rcols.size();
  auto key_cmp = [nk](const Value* a, const Value* b) {
    for (size_t i = 0; i < nk; ++i) {
      if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
    }
    return 0;
  };
  const size_t ngroups = main.groups.groups();
  const bool par = runtime.ShouldMorsel(main.groups.rows);
  const size_t grain = GroupGrain(main.groups, runtime);
  std::vector<std::vector<Value>> bufs(ChunkCount(ngroups, grain));
  std::atomic<uint64_t> emitted{0}, weight_groups{0};
  std::atomic<bool> over{false}, overflow{false};
  size_t chunks = ParallelChunks(
      par ? runtime.scheduler : nullptr, ngroups, grain,
      [&](size_t c, size_t gb, size_t ge) {
        if (runtime.Interrupted()) return;  // abort: caller discards below
        TraceSpan span(runtime.tracer, "morsel.join_count");
        std::vector<Value>& buf = bufs[c];
        std::vector<Value> keyv(main.groups.key_level.size()), tuple(nr);
        std::vector<Value> keyv2(second ? second->groups.key_level.size() : 0);
        std::vector<Value> matched;  // rows of (tuple..., count)
        GroupCounts counts(nr, main.dense);
        GroupCounts counts2(nr, second ? second->dense : std::nullopt);
        uint64_t wgroups = 0;
        // The second join's group cursor: groups of both joins come in
        // ascending K, so one forward walk pairs them up.
        size_t g2 = 0;
        if (second && nk > 0) {
          size_t hi = second->groups.groups();
          while (g2 < hi) {
            const size_t mid = g2 + (hi - g2) / 2;
            if (key_cmp(second->Key(mid), main.Key(gb)) < 0) {
              g2 = mid + 1;
            } else {
              hi = mid;
            }
          }
        }
        for (size_t gi = gb; gi < ge; ++gi) {
          if (over.load(std::memory_order_relaxed) ||
              overflow.load(std::memory_order_relaxed)) {
            break;
          }
          const Value* krow = nk > 0 ? main.Key(gi) : nullptr;
          size_t gj = 0;  // the second join's group with the same K
          if (second && nk > 0) {
            const size_t n2 = second->groups.groups();
            while (g2 < n2 && key_cmp(second->Key(g2), krow) < 0) ++g2;
            if (g2 == n2 || key_cmp(second->Key(g2), krow) != 0) continue;
            gj = g2++;
          }
          counts.Clear();
          if (!main.Count(gi, &counts, keyv, tuple)) {
            overflow.store(true);
            break;
          }
          const size_t before = buf.size();
          auto emit = [&](const Value* t, Value count) {
            const size_t at = buf.size();
            buf.resize(at + out_arity);
            for (size_t i = 0; i < nk; ++i) buf[at + s.kpos[i]] = krow[i];
            for (size_t i = 0; i < nr; ++i) buf[at + s.rpos[i]] = t[i];
            buf[at + ngroup] = count;
          };
          if (!second) {
            counts.ForEach(/*sorted=*/true, emit);
          } else {
            // The weight's counts for this K, multiplied into the groups
            // both joins have; the few products sort afterwards.
            counts2.Clear();
            if (!second->Count(gj, &counts2, keyv2, tuple)) {
              overflow.store(true);
              break;
            }
            wgroups += counts2.size();
            matched.clear();
            bool bad = false;
            counts2.ForEach(/*sorted=*/false, [&](const Value* t, Value c2) {
              const Value c1 = counts.Lookup(t);
              if (c1 == 0) return;
              Value product = 0;
              bad |= __builtin_mul_overflow(c1, c2, &product);
              matched.insert(matched.end(), t, t + nr);
              matched.push_back(product);
            });
            if (bad) {
              overflow.store(true);
              break;
            }
            SortRowsByPrefix(matched, nr + 1, nr);
            for (size_t i = 0; i < matched.size(); i += nr + 1) {
              emit(matched.data() + i, matched[i + nr]);
            }
          }
          const size_t rows = (buf.size() - before) / out_arity;
          if (max_rows != 0 && emitted.fetch_add(rows) + rows > max_rows) {
            over.store(true);
            break;
          }
        }
        weight_groups.fetch_add(wgroups);
      });
  if (overflow.load()) {
    return Status::OutOfRange("count exceeds the signed 64-bit range");
  }
  if (over.load()) {
    return Status::ResourceExhausted(internal::StrCat(
        "join-count output exceeds limit of ", max_rows, " rows"));
  }
  if (weight != nullptr) weight->groups = weight_groups.load();
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
