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

// Exclusive prefix sum of per-chunk counts; returns the total.
size_t PrefixOffsets(std::vector<size_t>* counts) {
  size_t total = 0;
  for (size_t& c : *counts) {
    size_t n = c;
    c = total;
    total += n;
  }
  return total;
}

/// Values below which MergeMorsels copies on the calling thread. Measured
/// with 4096-row morsels of arity 2 on a 4-thread scheduler (4-vCPU
/// machine, median of 400 merges): 2^17 values take 80 µs on one thread
/// and 113 µs as tasks, 2^18 values 290 against 220 µs, 2^20 values 1.2-1.5
/// against 0.85-1.0 ms.
constexpr size_t kParallelMergeMinValues = size_t{1} << 18;

// Concatenates per-morsel buffers (in morsel order) into one flat relation;
// past kParallelMergeMinValues each buffer is copied to its slice by its own
// task.
NamedRelation MergeMorsels(std::vector<AttrId> attrs, size_t arity,
                           const std::vector<std::vector<Value>>& bufs,
                           const RuntimeOptions& runtime) {
  std::vector<size_t> at(bufs.size());
  for (size_t i = 0; i < bufs.size(); ++i) at[i] = bufs[i].size();
  std::vector<Value> out(PrefixOffsets(&at));
  const bool par = out.size() >= kParallelMergeMinValues;
  ParallelChunks(par ? runtime.scheduler : nullptr, bufs.size(), 1,
                 [&](size_t, size_t begin, size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     std::copy(bufs[i].begin(), bufs[i].end(),
                               out.data() + at[i]);
                   }
                 });
  return NamedRelation{std::move(attrs), Relation(arity, std::move(out))};
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
  return MergeMorsels(in.attrs(), arity, bufs, runtime);
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
  NamedRelation out = MergeMorsels(attrs, out_arity, bufs, runtime);
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

// True when the first `n` values of `a` and `b` are equal. An explicit loop:
// std::equal over Values calls memcmp, which costs more than the one or two
// values the grouped kernels compare per row.
bool SamePrefix(const Value* a, const Value* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

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
// level; K and the join columns occupy the first `probe_levels` levels, and
// `cols` names the left column at each level. With no levels at all the left
// is one group of one empty row.
struct LeftGroups {
  std::shared_ptr<const TrieIndex> trie;
  const Value* data = nullptr;
  size_t width = 0, rows = 1, probe_levels = 0;
  std::vector<int> cols;
  std::vector<size_t> key_level;
  std::vector<size_t> start;  // group g is trie rows [start[g], start[g+1])

  size_t groups() const { return start.size() - 1; }
  const Value* Row(size_t r) const { return data + r * width; }
};

LeftGroups GroupLeft(const NamedRelation& left, const NamedRelation& right,
                     const GroupedShape& s, bool all_columns,
                     const RuntimeOptions& runtime) {
  LeftGroups g;
  std::vector<int>& cols = g.cols;
  cols = s.kcols;
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
    if (!SamePrefix(row, row - g.width, nk)) g.start.push_back(r);
  }
  g.start.push_back(g.rows);
  return g;
}

// The right side of a grouped join kernel: for one join key, the matching
// right rows, each read at cols() for the right columns `payload` names. A
// single key column whose range passes KeyRange::DenseForCounts over the
// kernel's input rows (the right's plus the `left_rows` probing it) probes
// contiguous KeyRuns holding exactly those columns, built by one counting
// sort: their per-key offsets then cost under 8 bytes per input row, and a
// probe reads two of them instead of hashing, which matters most when a
// small right side filters a large left. Any other key walks the chains of
// a RowIndex — `cached` when the caller has one, else one built here.
class RightMatches {
 public:
  RightMatches(const NamedRelation& right, const GroupedShape& s,
               const std::vector<int>& payload, size_t left_rows,
               const RowIndex* cached, const RuntimeOptions& runtime) {
    if (cached == nullptr && s.rkey.size() == 1) {
      const KeyRange range(right.rel(), s.rkey[0]);
      if (range.DenseForCounts(left_rows + right.size())) {
        runs_.emplace(right.rel(), s.rkey[0], range, payload);
        for (size_t i = 0; i < payload.size(); ++i) {
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
    cols_ = payload;
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
        matches(right, shape, shape.rcols, left.size(), right_index,
                runtime) {
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
             SamePrefix(row, groups.Row(e), groups.probe_levels)) {
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

// A post-filter over the join row (the left columns, then the right-only
// columns in right order), compiled against a grouped kernel's views: each
// operand reads a left trie level or a fetched right value. Constraints over
// left columns alone run once per left row (Left), the rest once per match
// (Match).
class SplitFilter {
 public:
  // Reads `pred`'s left columns from `g`'s trie levels and its right columns
  // at matches.cols()[i], where `fetch[i]` is the right column.
  SplitFilter(const Predicate& pred, const NamedRelation& left,
              const NamedRelation& right, const LeftGroups& g,
              const std::vector<int>& fetch, const RightMatches& matches) {
    for (const Constraint& c : pred.constraints()) {
      Check k{c, Source(c.lhs, left, right, g, fetch, matches), {}};
      k.c.lhs = 0;
      k.b = k.a;
      if (c.ReadsRhsColumn()) {
        k.b = Source(c.rhs, left, right, g, fetch, matches);
        k.c.rhs = 1;
      }
      (k.a.right || k.b.right ? match_ : left_).push_back(k);
    }
  }

  // The right columns `pred` reads (join-row columns past the left's).
  static std::vector<int> RightColumns(const Predicate& pred,
                                       const NamedRelation& left,
                                       const NamedRelation& right) {
    std::vector<int> out;
    for (const Constraint& c : pred.constraints()) {
      for (int col : Columns(c)) {
        if (static_cast<size_t>(col) >= left.arity()) {
          out.push_back(RightColumn(col, left, right));
        }
      }
    }
    return out;
  }

  bool Left(const Value* lrow) const { return Pass(left_, lrow, nullptr); }
  bool Match(const Value* lrow, const Value* rrow) const {
    return Pass(match_, lrow, rrow);
  }

 private:
  struct Operand {
    bool right = false;
    size_t at = 0;  // trie level, or offset into a right match
  };
  struct Check {
    Constraint c;  // over the two-value row {a, b}
    Operand a, b;
  };

  // The join-row columns `c` reads.
  static std::vector<int> Columns(const Constraint& c) {
    if (c.ReadsRhsColumn()) return {c.lhs, c.rhs};
    return {c.lhs};
  }

  // The right column of join-row column `col` (past the left's columns).
  static int RightColumn(int col, const NamedRelation& left,
                         const NamedRelation& right) {
    size_t skip = static_cast<size_t>(col) - left.arity();
    for (size_t i = 0; i < right.arity(); ++i) {
      if (left.HasAttr(right.attrs()[i])) continue;
      if (skip-- == 0) return static_cast<int>(i);
    }
    PQ_CHECK(false, "join-project filter column out of range");
    return -1;
  }

  static Operand Source(int col, const NamedRelation& left,
                        const NamedRelation& right, const LeftGroups& g,
                        const std::vector<int>& fetch,
                        const RightMatches& matches) {
    if (static_cast<size_t>(col) < left.arity()) {
      auto it = std::find(g.cols.begin(), g.cols.end(), col);
      PQ_CHECK(it != g.cols.end(), "join-project filter reads no trie level");
      return {false, static_cast<size_t>(it - g.cols.begin())};
    }
    const int rc = RightColumn(col, left, right);
    auto it = std::find(fetch.begin(), fetch.end(), rc);
    PQ_CHECK(it != fetch.end(), "join-project filter column not fetched");
    return {true, static_cast<size_t>(
                      matches.cols()[static_cast<size_t>(it - fetch.begin())])};
  }

  static bool Pass(const std::vector<Check>& checks, const Value* lrow,
                   const Value* rrow) {
    for (const Check& k : checks) {
      const Value v[2] = {k.a.right ? rrow[k.a.at] : lrow[k.a.at],
                          k.b.right ? rrow[k.b.at] : lrow[k.b.at]};
      if (!k.c.Eval(v)) return false;
    }
    return true;
  }

  std::vector<Check> left_, match_;
};

}  // namespace

Result<NamedRelation> JoinProject(const NamedRelation& left,
                                  const NamedRelation& right,
                                  const RowIndex* right_index,
                                  const std::vector<AttrId>& out_attrs,
                                  const Predicate& filter,
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
  // A filter may read any left column: its trie rows carry them all.
  const LeftGroups g = GroupLeft(left, right, s,
                                 /*all_columns=*/!filter.empty(), runtime);
  // The right columns the matches carry: the kept ones, then those only the
  // filter reads.
  std::vector<int> fetch = s.rcols;
  for (int rc : SplitFilter::RightColumns(filter, left, right)) {
    if (std::find(fetch.begin(), fetch.end(), rc) == fetch.end()) {
      fetch.push_back(rc);
    }
  }
  const RightMatches matches(right, s, fetch, left.size(), right_index,
                            runtime);
  const SplitFilter check(filter, left, right, g, fetch, matches);
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
            if (!check.Left(row)) continue;
            for (size_t i = 0; i < keyv.size(); ++i) {
              keyv[i] = row[g.key_level[i]];
            }
            matches.ForEach(keyv, [&](const Value* rrow) {
              if (!check.Match(row, rrow)) return true;
              matched = true;
              for (size_t i = 0; i < nr; ++i) tuples.push_back(rrow[pcols[i]]);
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
  NamedRelation out{out_attrs};
  if (!par) {  // one morsel: its buffer is the result
    out = NamedRelation{out_attrs, Relation(out_arity, std::move(bufs[0]))};
  } else {
    if (morsels != nullptr) *morsels += chunks;
    out = MergeMorsels(out_attrs, out_arity, bufs, runtime);
  }
  // K leading the output: groups ascend by K and each group's tuples
  // ascend, so the rows are already sorted.
  if (nk == 0 || s.kpos[nk - 1] == nk - 1) out.rel().MarkSorted();
  return out;
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
  return MergeMorsels(out_attrs, out_arity, bufs, runtime);
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
