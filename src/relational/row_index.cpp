#include "relational/row_index.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace paraquery {

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint64_t HashRowAt(const Relation& rel, size_t row, std::span<const int> cols) {
  uint64_t h = kRowHashSeed;
  for (int c : cols) h = MixRowHash(h, rel.At(row, c));
  return h;
}

/// Rows per chunk of the parallel build passes (hash, count, scatter); all
/// passes must chunk identically.
constexpr size_t kBuildGrain = 4096;
/// Partition count switches from 1 to kBuildParts at this row count — a
/// function of the input only, so the table layout never depends on the
/// execution width.
constexpr size_t kPartitionedBuildMinRows = size_t{1} << 15;
constexpr size_t kBuildParts = 64;
constexpr int kBuildPartShift = 58;

}  // namespace

RowIndex::RowIndex(const Relation& rel, std::vector<int> key_cols,
                   const ParallelForFn& pfor)
    : rel_(&rel),
      base_(rel.data().data()),
      rel_arity_(rel.arity()),
      key_cols_(std::move(key_cols)) {
  size_t n = rel.size();
  if (n == 0) return;
  hashes_.resize(n);
  next_.assign(n, kNone);
  counts_.assign(n, 0);
  // Hash pass.
  const size_t chunks =
      ForChunks(pfor, n, kBuildGrain, [&](size_t, size_t b, size_t e) {
        for (size_t r = b; r < e; ++r) {
          hashes_[r] = HashRowAt(*rel_, r, key_cols_);
        }
      });

  // Shared per-partition insert loop: walks rows of one slot region in
  // increasing row order, appending same-key rows to their chain tail.
  // With part_count_ == 1 (region = whole table, every row) this is exactly
  // the historical sequential build.
  auto insert_rows = [&](size_t slot_base, uint64_t mask,
                         auto&& next_row) -> size_t {
    std::vector<uint32_t> tails(mask + 1, kNone);
    size_t distinct = 0;
    for (uint32_t r = next_row(); r != kNone; r = next_row()) {
      uint64_t h = hashes_[r];
      size_t s = slot_base + (h & mask);
      for (;;) {
        uint32_t head = slots_[s];
        if (head == kNone) {
          slots_[s] = r;
          tails[s - slot_base] = r;
          counts_[r] = 1;
          ++distinct;
          break;
        }
        if (hashes_[head] == h && RowKeysEqual(head, r)) {
          next_[tails[s - slot_base]] = r;
          tails[s - slot_base] = r;
          ++counts_[head];
          break;
        }
        s = slot_base + ((s - slot_base + 1) & mask);
      }
    }
    return distinct;
  };

  if (n < kPartitionedBuildMinRows) {
    size_t cap = NextPowerOfTwo(std::max<size_t>(n * 2, 8));
    slots_.assign(cap, kNone);
    mask_ = cap - 1;
    uint32_t r = 0;
    distinct_ = insert_rows(0, mask_, [&]() -> uint32_t {
      return r < n ? r++ : kNone;
    });
    return;
  }

  // Partitioned build: scatter row ids into hash-prefix partitions (stable,
  // so within a partition row ids stay increasing), then fill disjoint
  // sub-table regions of the flat slots_ array — in parallel when `pfor` is
  // bound, with a layout independent of the width either way.
  part_count_ = kBuildParts;
  std::vector<size_t> counts(chunks * kBuildParts, 0);
  ForChunks(pfor, n, kBuildGrain, [&](size_t c, size_t b, size_t e) {
    size_t* local = counts.data() + c * kBuildParts;
    for (size_t r = b; r < e; ++r) ++local[hashes_[r] >> kBuildPartShift];
  });
  std::vector<size_t> part_rows_start(kBuildParts + 1, 0);
  for (size_t c = 0; c < chunks; ++c) {
    for (size_t p = 0; p < kBuildParts; ++p) {
      part_rows_start[p + 1] += counts[c * kBuildParts + p];
    }
  }
  for (size_t p = 0; p < kBuildParts; ++p) {
    part_rows_start[p + 1] += part_rows_start[p];
  }
  std::vector<size_t> offs(chunks * kBuildParts);
  for (size_t p = 0; p < kBuildParts; ++p) {
    size_t acc = part_rows_start[p];
    for (size_t c = 0; c < chunks; ++c) {
      offs[c * kBuildParts + p] = acc;
      acc += counts[c * kBuildParts + p];
    }
  }
  std::vector<uint32_t> part_rows(n);
  ForChunks(pfor, n, kBuildGrain, [&](size_t c, size_t b, size_t e) {
    size_t local[kBuildParts];
    std::copy(offs.begin() + c * kBuildParts,
              offs.begin() + (c + 1) * kBuildParts, local);
    for (size_t r = b; r < e; ++r) {
      part_rows[local[hashes_[r] >> kBuildPartShift]++] =
          static_cast<uint32_t>(r);
    }
  });
  // Size each sub-table to its own partition's content (load <= 1/2 holds
  // per region regardless of skew) and lay the regions out back to back.
  part_base_.assign(kBuildParts, 0);
  part_mask_.assign(kBuildParts, 0);
  size_t total_cap = 0;
  for (size_t p = 0; p < kBuildParts; ++p) {
    size_t rows_p = part_rows_start[p + 1] - part_rows_start[p];
    size_t cap = NextPowerOfTwo(std::max<size_t>(rows_p * 2, 8));
    part_base_[p] = total_cap;
    part_mask_[p] = cap - 1;
    total_cap += cap;
  }
  slots_.assign(total_cap, kNone);
  std::vector<size_t> part_distinct(kBuildParts, 0);
  ForChunks(pfor, kBuildParts, 1, [&](size_t, size_t pb, size_t pe) {
    for (size_t p = pb; p < pe; ++p) {
      size_t i = part_rows_start[p];
      const size_t end = part_rows_start[p + 1];
      part_distinct[p] =
          insert_rows(part_base_[p], part_mask_[p], [&]() -> uint32_t {
            return i < end ? part_rows[i++] : kNone;
          });
    }
  });
  for (size_t p = 0; p < kBuildParts; ++p) distinct_ += part_distinct[p];
}

bool RowIndex::RowKeysEqual(uint32_t a, uint32_t b) const {
  for (int c : key_cols_) {
    if (IndexedAt(a, c) != IndexedAt(b, c)) return false;
  }
  return true;
}

template <typename KeyEq>
uint32_t RowIndex::Probe(uint64_t h, KeyEq key_eq) const {
  size_t base = 0;
  uint64_t mask = mask_;
  if (part_count_ > 1) {
    size_t p = h >> kBuildPartShift;
    base = part_base_[p];
    mask = part_mask_[p];
  }
  size_t s = base + (h & mask);
  while (slots_[s] != kNone) {
    uint32_t head = slots_[s];
    if (hashes_[head] == h && key_eq(head)) return head;
    s = base + ((s - base + 1) & mask);
  }
  return kNone;
}

uint32_t RowIndex::Find(std::span<const Value> key) const {
  PQ_DCHECK(key.size() == key_cols_.size(), "RowIndex::Find: key arity");
  if (slots_.empty()) return kNone;
  return Probe(HashRow(key), [&](uint32_t head) {
    for (size_t i = 0; i < key_cols_.size(); ++i) {
      if (IndexedAt(head, key_cols_[i]) != key[i]) return false;
    }
    return true;
  });
}

uint32_t RowIndex::Find(const Relation& probe, size_t probe_row,
                        std::span<const int> probe_cols) const {
  PQ_DCHECK(probe_cols.size() == key_cols_.size(), "RowIndex::Find: key arity");
  if (slots_.empty()) return kNone;
  return Probe(HashRowAt(probe, probe_row, probe_cols), [&](uint32_t head) {
    for (size_t i = 0; i < key_cols_.size(); ++i) {
      if (IndexedAt(head, key_cols_[i]) != probe.At(probe_row, probe_cols[i])) {
        return false;
      }
    }
    return true;
  });
}

KeyRange::KeyRange(const Relation& rel, int col) {
  const size_t n = rel.size(), arity = rel.arity();
  if (n == 0) return;
  const Value* p = rel.data().data() + col;
  Value lo = *p, hi = *p;
  for (size_t r = 1; r < n; ++r) {
    const Value v = p[r * arity];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  min_ = static_cast<uint64_t>(lo);
  span_ = static_cast<uint64_t>(hi) - min_;
}

KeyRuns::KeyRuns(const Relation& rel, int key_col, const KeyRange& range,
                 const std::vector<int>& payload)
    : range_(range), width_(payload.size()), start_(range.slots() + 1, 0) {
  const size_t n = rel.size(), arity = rel.arity();
  const Value* data = rel.data().data();
  uint64_t off = 0;
  for (size_t r = 0; r < n; ++r) {
    range_.Offset(data[r * arity + key_col], &off);
    ++start_[off + 1];
  }
  for (size_t s = 1; s < start_.size(); ++s) start_[s] += start_[s - 1];
  values_.resize(n * width_);
  std::vector<uint32_t> fill(start_.begin(), start_.end() - 1);
  for (size_t r = 0; r < n; ++r) {
    const Value* row = data + r * arity;
    range_.Offset(row[key_col], &off);
    Value* dst = values_.data() + static_cast<size_t>(fill[off]++) * width_;
    for (size_t i = 0; i < width_; ++i) dst[i] = row[payload[i]];
  }
}

RowHashSet::RowHashSet(size_t arity) : rel_(arity) {
  // Detach the backing relation from the global empty block up front so the
  // AppendRowUnchecked fast path in Insert owns its storage exclusively.
  if (arity > 0) rel_.Reserve(8);
  slots_.assign(16, RowIndex::kNone);
  mask_ = slots_.size() - 1;
}

void RowHashSet::Reserve(size_t rows) {
  size_t cap = NextPowerOfTwo(std::max<size_t>(rows * 2, 16));
  if (cap <= slots_.size()) return;
  if (rel_.arity() > 0) rel_.Reserve(rows);
  hashes_.reserve(rows);
  Rehash(cap);
}

size_t RowHashSet::ProbeSlot(std::span<const Value> row, uint64_t h) const {
  size_t s = h & mask_;
  while (slots_[s] != RowIndex::kNone) {
    uint32_t r = slots_[s];
    if (hashes_[r] == h) {
      auto stored = rel_.Row(r);
      if (std::equal(stored.begin(), stored.end(), row.begin())) return s;
    }
    s = (s + 1) & mask_;
  }
  return s;
}

bool RowHashSet::Insert(std::span<const Value> row) {
  PQ_DCHECK(row.size() == rel_.arity(), "RowHashSet::Insert: arity mismatch");
  uint64_t h = HashRow(row);
  size_t s = ProbeSlot(row, h);
  if (slots_[s] != RowIndex::kNone) return false;  // already present
  uint32_t r = static_cast<uint32_t>(rel_.size());
  // The backing relation is exclusively owned until TakeRelation, so the
  // copy-on-write gate in Relation::Add is pure overhead here.
  if (rel_.arity() == 0) {
    rel_.AddEmptyRow();
  } else {
    rel_.AppendRowUnchecked(row);
  }
  hashes_.push_back(h);
  slots_[s] = r;
  // Load factor capped at 1/2; Reserve(n) sizes the table so that exactly n
  // insertions never trigger this.
  if (rel_.size() * 2 > slots_.size()) Grow();
  return true;
}

bool RowHashSet::Contains(std::span<const Value> row) const {
  PQ_DCHECK(row.size() == rel_.arity(), "RowHashSet::Contains: arity mismatch");
  return slots_[ProbeSlot(row, HashRow(row))] != RowIndex::kNone;
}

void RowHashSet::Grow() { Rehash(slots_.size() * 2); }

void RowHashSet::Rehash(size_t cap) {
  slots_.assign(cap, RowIndex::kNone);
  mask_ = cap - 1;
  for (uint32_t r = 0; r < rel_.size(); ++r) {
    size_t s = hashes_[r] & mask_;
    while (slots_[s] != RowIndex::kNone) s = (s + 1) & mask_;
    slots_[s] = r;
  }
}

}  // namespace paraquery
