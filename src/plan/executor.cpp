#include "plan/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.hpp"
#include "common/timer.hpp"
#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "relational/leapfrog.hpp"
#include "relational/ops.hpp"
#include "relational/row_index.hpp"
#include "relational/trie_index.hpp"
#include "runtime/parallel_ops.hpp"

namespace paraquery {

namespace {

class Executor {
 public:
  explicit Executor(const ExecContext& ctx)
      : ctx_(ctx), pfor_(MakeParallelFor(ctx.runtime.scheduler)) {}

  Result<NamedRelation> Run(PlanNode& root) { return Exec(root, nullptr); }

 private:
  struct NodeState {
    std::mutex mutex;
    std::condition_variable cv;
    bool started = false;
    std::optional<Result<NamedRelation>> result;
  };

  // Where an operator's produced rows are charged against the max_steps
  // budget. A null Charge is the committed execution; a speculatively
  // executed subtree (the right child of a join/semijoin started before its
  // sibling's emptiness is known) charges a tentative accumulator instead,
  // which its spawner COMMITS into the parent charge only when the result is
  // actually consumed — the short-circuit that skips the subtree drops the
  // charge, so a query that passes its limits at threads=1 never fails them
  // at threads=N. Speculative executions still CHECK the budget (committed +
  // the tentative chain) so a runaway subtree aborts instead of exhausting
  // memory; such an error can only fire where the sequential total would
  // also exceed the budget. (Caveat: a node SHARED between a rolled-back
  // speculative subtree and a committed path keeps the first arrival's
  // charge and result — its rows may be attributed tentatively and dropped,
  // an under-count in the safe direction.)
  struct Charge {
    Charge* parent = nullptr;
    std::atomic<uint64_t> tentative{0};
  };

  void AddRows(Charge* charge, uint64_t n) {
    if (charge == nullptr) {
      rows_produced_.fetch_add(n);
    } else {
      charge->tentative.fetch_add(n);
    }
  }

  uint64_t TotalRows(const Charge* charge) const {
    uint64_t total = rows_produced_.load();
    for (; charge != nullptr; charge = charge->parent) {
      total += charge->tentative.load();
    }
    return total;
  }

  // Evaluates `n` at most once per execution, even when independent
  // parallel subtrees reach a shared node concurrently: the first arrival
  // computes, later arrivals block on the node's condition variable. The
  // wait graph follows plan edges, and the plan is a DAG, so these waits
  // cannot cycle.
  //
  // One exception to compute-once: a ResourceExhausted produced under a
  // TENTATIVE charge is not published — its budget check included sibling
  // rows the sequential executor might have skipped, so replaying it to a
  // committed consumer could fail a query that passes at threads=1. The
  // node is reset instead and the next arrival recomputes under its own
  // charge (a genuine overrun simply errors again there).
  Result<NamedRelation> Exec(PlanNode& n, Charge* charge) {
    NodeState* state;
    {
      std::lock_guard<std::mutex> lock(states_mutex_);
      std::unique_ptr<NodeState>& slot = states_[&n];
      if (slot == nullptr) slot = std::make_unique<NodeState>();
      state = slot.get();
    }
    std::unique_lock<std::mutex> lock(state->mutex);
    while (state->started && !state->result.has_value()) {
      state->cv.wait(lock, [state] {
        return state->result.has_value() || !state->started;
      });
    }
    if (state->result.has_value()) return *state->result;
    state->started = true;
    lock.unlock();
    Result<NamedRelation> result = ComputeTimed(n, charge);
    if (result.ok()) n.actual_rows = result.value().size();
    lock.lock();
    if (charge != nullptr && !result.ok() &&
        result.status().code() == StatusCode::kResourceExhausted) {
      state->started = false;  // speculative budget error: allow recompute
    } else {
      state->result = result;
    }
    lock.unlock();
    state->cv.notify_all();
    return result;
  }

  bool Parallel() const { return ctx_.runtime.parallel(); }

  // Compute wrapped with per-node wall timing (EXPLAIN ANALYZE) and an
  // operator span when the run is traced; clock-free otherwise, so the
  // default path is exactly the pre-observability executor. The compute
  // recursion runs through the children, so actual_ns is cumulative. Scans
  // are slot reads — timed (they bound a node's self time) but not worth a
  // span each.
  Result<NamedRelation> ComputeTimed(PlanNode& n, Charge* charge) {
    if (ctx_.runtime.tracer == nullptr && ctx_.runtime.analyze == nullptr) {
      return Compute(n, charge);
    }
    const uint64_t t0 = NowNanos();
    Result<NamedRelation> result = Compute(n, charge);
    const uint64_t t1 = NowNanos();
    n.actual_ns += t1 - t0;
    if (ctx_.runtime.tracer != nullptr && n.op != PlanOp::kScan) {
      ctx_.runtime.tracer->Record(PlanOpName(n.op), t0, t1);
    }
    return result;
  }

  // Tallies an executed operator's output against limits and stats. Stats
  // record all performed work (speculative included); the max_steps budget
  // is charged through `charge` so speculative rows stay tentative.
  Status Account(PlanNode& n, size_t PlanStats::* counter,
                 const NamedRelation& out, Charge* charge,
                 size_t op_morsels = 0) {
    const size_t rows = out.size();
    // Re-check the abort state AFTER the operator ran: morsel lambdas skip
    // their work when the query aborts mid-operator, so a result assembled
    // from skipped morsels must be discarded here, never returned truncated.
    PQ_RETURN_NOT_OK(ctx_.runtime.CheckInterrupt());
    n.actual_morsels = op_morsels;
    if (ctx_.stats != nullptr) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++(ctx_.stats->*counter);
      ctx_.stats->peak_intermediate_rows =
          std::max(ctx_.stats->peak_intermediate_rows, rows);
      ctx_.stats->rows_produced += rows;
      ctx_.stats->morsels += op_morsels;
    }
    if (ctx_.runtime.metrics != nullptr &&
        ctx_.runtime.metrics->operator_rows != nullptr) {
      ctx_.runtime.metrics->operator_rows->Observe(rows);
    }
    AddRows(charge, rows);
    if (ctx_.limits.max_steps != 0 && TotalRows(charge) > ctx_.limits.max_steps) {
      return Status::ResourceExhausted(
          "plan execution step limit (rows produced) exceeded");
    }
    if (ctx_.limits.max_rows != 0 && rows > ctx_.limits.max_rows) {
      return Status::ResourceExhausted(internal::StrCat(
          "operator output exceeds limit of ", ctx_.limits.max_rows, " rows"));
    }
    return Status::OK();
  }

  // Evaluates a binary node's children, concurrently when a scheduler is
  // bound and the right side is not a plain scan (scans are slot reads —
  // not worth a task). Sequentially the right child is skipped when the
  // left comes out empty; in parallel it runs speculatively under a
  // tentative charge that is committed only when the left side is nonempty
  // (i.e. exactly when sequential execution would have run it).
  Status ExecChildren(PlanNode& n, Result<NamedRelation>* left,
                      Result<NamedRelation>* right, Charge* charge) {
    if (Parallel() && n.children[1]->op != PlanOp::kScan) {
      std::optional<Result<NamedRelation>> right_result;
      Charge speculative;
      speculative.parent = charge;
      {
        TaskGroup group(ctx_.runtime.scheduler);
        PlanNode* rchild = n.children[1].get();
        Charge* spec = &speculative;
        group.Spawn([this, rchild, spec, &right_result] {
          right_result.emplace(Exec(*rchild, spec));
        });
        if (ctx_.stats != nullptr) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++ctx_.stats->parallel_tasks;
        }
        *left = Exec(*n.children[0], charge);
      }  // group destructor waits
      // The group is never cancelled, so the spawned task always ran.
      PQ_DCHECK(right_result.has_value(), "right-child task did not run");
      *right = std::move(*right_result);
      if (left->ok() && !left->value().empty()) {
        // The sequential executor would have run the right subtree: commit
        // its speculative rows to the parent charge and re-check the budget.
        AddRows(charge, speculative.tentative.load());
        if (ctx_.limits.max_steps != 0 &&
            TotalRows(charge) > ctx_.limits.max_steps) {
          return Status::ResourceExhausted(
              "plan execution step limit (rows produced) exceeded");
        }
      }
      // Left empty (or failed): the tentative charge is dropped, matching
      // the sequential short-circuit; the consuming operator also discards
      // any speculative error below.
      return Status::OK();
    }
    *left = Exec(*n.children[0], charge);
    if (left->ok() && !left->value().empty()) {
      *right = Exec(*n.children[1], charge);
    }
    return Status::OK();
  }

  Result<NamedRelation> Compute(PlanNode& n, Charge* charge) {
    // One poll per operator: a deadline/cancel/budget abort stops the plan
    // within one operator (and, via the morsel-lambda early-outs, within
    // one morsel of an operator already running).
    PQ_RETURN_NOT_OK(ctx_.runtime.CheckInterrupt());
    switch (n.op) {
      case PlanOp::kScan: {
        PQ_FAULT_POINT("executor.scan");
        if (n.input_slot < 0 ||
            static_cast<size_t>(n.input_slot) >= ctx_.inputs.size()) {
          return Status::Internal("plan scan references an unbound slot");
        }
        if (ctx_.stats != nullptr) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++ctx_.stats->scans;
        }
        return *ctx_.inputs[n.input_slot];
      }
      case PlanOp::kSelect: {
        PQ_FAULT_POINT("executor.select");
        PQ_ASSIGN_OR_RETURN(NamedRelation in, Exec(*n.children[0], charge));
        size_t morsels = 0;
        NamedRelation out =
            (!n.predicate.empty() && in.arity() > 0 &&
             ctx_.runtime.ShouldMorsel(in.size()))
                ? ParallelSelect(in, n.predicate, ctx_.runtime, &morsels)
                : Select(in, n.predicate);
        PQ_RETURN_NOT_OK(Account(n, &PlanStats::selects, out, charge, morsels));
        return out;
      }
      case PlanOp::kProject: {
        PQ_FAULT_POINT("executor.project");
        PQ_ASSIGN_OR_RETURN(NamedRelation in, Exec(*n.children[0], charge));
        size_t morsels = 0;
        NamedRelation out =
            (!n.attrs.empty() && n.attrs != in.attrs() &&
             ctx_.runtime.ShouldMorsel(in.size()))
                ? ParallelProject(in, n.attrs, n.dedup, ctx_.runtime, &morsels)
                : Project(in, n.attrs, n.dedup);
        if (ctx_.stats != nullptr && out.rel().SharesStorageWith(in.rel())) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++ctx_.stats->zero_copy_projections;
        }
        PQ_RETURN_NOT_OK(
            Account(n, &PlanStats::projections, out, charge, morsels));
        return out;
      }
      case PlanOp::kHashJoin: {
        PQ_FAULT_POINT("executor.hashjoin");
        // A join whose attrs drop a child attribute is a fused join-project
        // (its post-filter, if any, runs inside the kernel), one whose attrs
        // end with #count a fused join-count (MakeJoinCount), whose optional
        // third child is its weight.
        const bool count = IsJoinCount(n);
        const bool project = !count && !JoinProjectedOut(n).empty();
        Result<NamedRelation> lres = NamedRelation{n.attrs};
        Result<NamedRelation> rres = NamedRelation{n.attrs};
        PQ_RETURN_NOT_OK(ExecChildren(n, &lres, &rres, charge));
        PQ_ASSIGN_OR_RETURN(NamedRelation left, std::move(lres));
        if (left.empty()) return NamedRelation{n.attrs};
        PQ_ASSIGN_OR_RETURN(NamedRelation right, std::move(rres));
        if (right.empty()) return NamedRelation{n.attrs};
        // A weight (a join-count itself, MakeJoinCount) is never executed
        // on its own: its two inputs are, and the kernel counts both joins
        // group by group.
        PlanNode* wnode = count && n.children.size() > 2
                              ? n.children[2].get()
                              : nullptr;
        std::optional<Result<NamedRelation>> wleft, wright;
        if (wnode != nullptr) {
          // Timed like a node (EXPLAIN ANALYZE): the weight's time is its
          // inputs', the counting kernel's is this node's.
          const bool timed = ctx_.runtime.tracer != nullptr ||
                             ctx_.runtime.analyze != nullptr;
          const uint64_t t0 = timed ? NowNanos() : 0;
          wleft = Exec(*wnode->children[0], charge);
          if (wleft->ok() && !wleft->value().empty()) {
            wright = Exec(*wnode->children[1], charge);
          }
          if (timed) wnode->actual_ns += NowNanos() - t0;
          PQ_RETURN_NOT_OK(wleft->status());
          if (wleft->value().empty()) return NamedRelation{n.attrs};
          PQ_RETURN_NOT_OK(wright->status());
          if (wright->value().empty()) return NamedRelation{n.attrs};
        }
        JoinOptions jo;
        jo.max_output_rows = ctx_.limits.max_rows;
        jo.post_filter = n.predicate;  // pushed σ_F (empty = plain join)
        size_t morsels = 0;
        Result<NamedRelation> joined = [&]() -> Result<NamedRelation> {
          PQ_FAULT_POINT("executor.hashjoin.build");
          const std::vector<int> keys = JoinKeyColumns(left, right);
          const RowIndex* cached = CachedIndex(*n.children[1], keys);
          if (project || count) {
            // The grouped kernels probe a cached index, else key runs or a
            // RowIndex of their own.
            KeyKind key = KeyKind::kNone;
            Result<NamedRelation> out = NamedRelation{n.attrs};
            if (count) {
              JoinCountWeight weight;
              if (wnode != nullptr) {
                const NamedRelation& wl = wleft->value();
                const NamedRelation& wr = wright->value();
                weight = {&wl, &wr,
                          CachedIndex(*wnode->children[1],
                                      JoinKeyColumns(wl, wr))};
              }
              out = JoinCount(left, right, cached, n.attrs, ctx_.runtime,
                              wnode != nullptr ? &weight : nullptr,
                              ctx_.limits.max_rows, &morsels, &key);
              if (out.ok() && wnode != nullptr) {
                wnode->actual_rows = weight.groups;
                NoteKey(*wnode, weight.key);
              }
            } else {
              out = JoinProject(left, right, cached, n.attrs, n.predicate,
                                ctx_.runtime, ctx_.limits.max_rows, &morsels,
                                &key);
            }
            NoteKey(n, key);
            return out;
          }
          std::optional<RowIndex> local;
          const RowIndex& idx = cached != nullptr
                                    ? *cached
                                    : local.emplace(right.rel(), keys, pfor_);
          // Morsel-parallel probe: the fast path only (no row cap, no
          // pushed filter, nonzero output arity); the sequential kernel
          // keeps the filtered/limited cases.
          if (jo.max_output_rows == 0 && jo.post_filter.empty() &&
              !n.attrs.empty() && ctx_.runtime.ShouldMorsel(left.size())) {
            return ParallelJoin(left, right, idx, ctx_.runtime, &morsels);
          }
          return NaturalJoin(left, right, idx, jo);
        }();
        PQ_RETURN_NOT_OK(joined.status());
        PQ_RETURN_NOT_OK(
            Account(n, &PlanStats::joins, joined.value(), charge, morsels));
        return std::move(joined).value();
      }
      case PlanOp::kSemijoin: {
        PQ_FAULT_POINT("executor.semijoin");
        Result<NamedRelation> lres = NamedRelation{n.attrs};
        Result<NamedRelation> rres = NamedRelation{n.attrs};
        PQ_RETURN_NOT_OK(ExecChildren(n, &lres, &rres, charge));
        PQ_ASSIGN_OR_RETURN(NamedRelation left, std::move(lres));
        if (left.empty()) return NamedRelation{n.attrs};
        PQ_ASSIGN_OR_RETURN(NamedRelation right, std::move(rres));
        if (right.empty()) return NamedRelation{n.attrs};
        size_t morsels = 0;
        KeyKind key = KeyKind::kNone;
        NamedRelation out =
            ParallelSemijoin(left, right, ctx_.runtime, &morsels, &key);
        NoteKey(n, key);
        PQ_RETURN_NOT_OK(
            Account(n, &PlanStats::semijoins, out, charge, morsels));
        return out;
      }
      case PlanOp::kDedup: {
        PQ_FAULT_POINT("executor.dedup");
        PQ_ASSIGN_OR_RETURN(NamedRelation in, Exec(*n.children[0], charge));
        NamedRelation out = in;
        out.rel().HashDedup(pfor_);
        PQ_RETURN_NOT_OK(Account(n, &PlanStats::dedups, out, charge));
        return out;
      }
      case PlanOp::kAggregate: {
        PQ_FAULT_POINT("executor.aggregate");
        if (n.children.size() != 1 || n.attrs.empty() ||
            n.attrs.back() != kCountAttr) {
          return Status::Internal(
              "aggregate plan node requires one child and a trailing count "
              "attribute");
        }
        PQ_ASSIGN_OR_RETURN(NamedRelation in, Exec(*n.children[0], charge));
        size_t morsels = 0;
        PQ_ASSIGN_OR_RETURN(NamedRelation out, AggregateCounts(n, in, &morsels));
        PQ_RETURN_NOT_OK(
            Account(n, &PlanStats::aggregates, out, charge, morsels));
        return out;
      }
      case PlanOp::kSemijoinCount: {
        PQ_FAULT_POINT("executor.semijoin_count");
        if (n.attrs.empty() || n.attrs.back() != kCountAttr) {
          return Status::Internal(
              "semijoin-count plan node requires a trailing count attribute");
        }
        Result<NamedRelation> lres = NamedRelation{n.attrs};
        Result<NamedRelation> rres = NamedRelation{n.attrs};
        PQ_RETURN_NOT_OK(ExecChildren(n, &lres, &rres, charge));
        PQ_ASSIGN_OR_RETURN(NamedRelation left, std::move(lres));
        if (left.empty()) return NamedRelation{n.attrs};
        PQ_ASSIGN_OR_RETURN(NamedRelation right, std::move(rres));
        if (right.empty()) return NamedRelation{n.attrs};
        size_t morsels = 0;
        PQ_ASSIGN_OR_RETURN(NamedRelation out,
                            SemijoinCounts(n, left, right, &morsels));
        PQ_RETURN_NOT_OK(
            Account(n, &PlanStats::semijoin_counts, out, charge, morsels));
        return out;
      }
      case PlanOp::kMultiwayJoin: {
        PQ_FAULT_POINT("executor.multiway");
        if (n.children.empty() || n.attrs.empty()) {
          return Status::Internal(
              "multiway join requires children and attributes");
        }
        // Children run sequentially left to right: any empty input empties
        // the whole intersection, matching the sequential short-circuit.
        std::vector<NamedRelation> ins;
        ins.reserve(n.children.size());
        for (const PlanNodePtr& c : n.children) {
          PQ_ASSIGN_OR_RETURN(NamedRelation in, Exec(*c, charge));
          if (in.empty()) {
            NamedRelation out{n.attrs};
            PQ_RETURN_NOT_OK(
                Account(n, &PlanStats::multiway_joins, out, charge));
            return out;
          }
          ins.push_back(std::move(in));
        }
        auto rank_of = [&n](AttrId a) -> int {
          auto it = std::find(n.attrs.begin(), n.attrs.end(), a);
          return it == n.attrs.end()
                     ? -1
                     : static_cast<int>(it - n.attrs.begin());
        };
        // Per-input sorted trie over its columns in ascending global rank.
        // TrieView caches on the shared RowBlock, so scans over stored
        // relations (and their zero-copy views) build each trie once and
        // reuse it across queries.
        std::vector<LeapfrogInput> inputs;
        inputs.reserve(ins.size());
        for (const NamedRelation& in : ins) {
          std::vector<std::pair<int, int>> by_rank;  // (global rank, column)
          for (size_t c = 0; c < in.attrs().size(); ++c) {
            int r = rank_of(in.attrs()[c]);
            if (r < 0) {
              return Status::Internal(
                  "multiway child attribute missing from the global order");
            }
            by_rank.emplace_back(r, static_cast<int>(c));
          }
          std::sort(by_rank.begin(), by_rank.end());
          LeapfrogInput li;
          std::vector<int> cols;
          for (const auto& [r, c] : by_rank) {
            cols.push_back(c);
            li.attr_of_level.push_back(r);
          }
          li.trie = in.rel().TrieView(cols, pfor_);
          inputs.push_back(std::move(li));
        }
        size_t morsels = 0;
        PQ_ASSIGN_OR_RETURN(
            Relation joined,
            LeapfrogJoin(inputs, n.attrs.size(), ctx_.runtime,
                         ctx_.limits.max_rows, &morsels));
        NamedRelation out{n.attrs, std::move(joined)};
        PQ_RETURN_NOT_OK(
            Account(n, &PlanStats::multiway_joins, out, charge, morsels));
        return out;
      }
    }
    return Status::Internal("unknown plan operator");
  }

  // Concatenates per-morsel value buffers in morsel order into one relation —
  // the same rows in the same order the sequential walk produces.
  static NamedRelation MergeCountMorsels(const std::vector<AttrId>& attrs,
                                         std::vector<std::vector<Value>> bufs) {
    size_t total = 0;
    for (const std::vector<Value>& b : bufs) total += b.size();
    std::vector<Value> out;
    out.reserve(total);
    for (const std::vector<Value>& b : bufs) {
      out.insert(out.end(), b.begin(), b.end());
    }
    return NamedRelation{attrs, Relation(attrs.size(), std::move(out))};
  }

  // The JoinIndexCache index of a cached scan over `keys`, built over the
  // caller-owned slot relation, NOT a local copy: the cache (and the
  // RowIndex's Relation pointer) outlives this call, and the slot input is
  // the one relation guaranteed to outlive the cache. Null for any other
  // node.
  const RowIndex* CachedIndex(const PlanNode& node,
                              const std::vector<int>& keys) {
    if (node.op != PlanOp::kScan || node.index_cache == nullptr) return nullptr;
    return &node.index_cache->GetOrBuild(ctx_.inputs[node.input_slot]->rel(),
                                         keys, ctx_.stats, pfor_);
  }

  // Records the key structure a keyed kernel ran with (EXPLAIN ANALYZE's
  // key=dense / key=hash, PlanStats::dense_keys).
  void NoteKey(PlanNode& n, KeyKind key) {
    n.actual_key = key;
    if (key == KeyKind::kDense && ctx_.stats != nullptr) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++ctx_.stats->dense_keys;
    }
  }

  static Status CountOverflow() {
    return Status::OutOfRange("count exceeds the signed 64-bit range");
  }

  // Runs `emit(buf, r)` for every row of [0, nrows), morsel-parallel when the
  // input is large enough, merging per-morsel buffers in morsel order; the
  // output is byte-identical at any thread count because emit() decides
  // per-row (via the shared RowIndex, whose layout is width-independent)
  // whether row r contributes. emit() returns false when a count it computes
  // overflows; the walk then fails with OutOfRange.
  template <typename EmitFn>
  Result<NamedRelation> RowWalk(const std::vector<AttrId>& attrs,
                                size_t nrows, size_t* morsels,
                                const EmitFn& emit) {
    if (ctx_.runtime.ShouldMorsel(nrows)) {
      std::vector<std::vector<Value>> bufs(
          ChunkCount(nrows, ctx_.runtime.morsel_rows));
      std::atomic<bool> overflow{false};
      size_t chunks = ParallelChunks(
          ctx_.runtime.scheduler, nrows, ctx_.runtime.morsel_rows,
          [&](size_t c, size_t begin, size_t end) {
            // Aborted query: skip the morsel; the executor re-checks the
            // abort in Account, so a partial result never escapes.
            if (ctx_.runtime.Interrupted()) return;
            for (size_t r = begin; r < end; ++r) {
              if (overflow.load(std::memory_order_relaxed)) return;
              if (!emit(bufs[c], r)) overflow.store(true);
            }
          });
      if (overflow.load()) return CountOverflow();
      if (morsels != nullptr) *morsels += chunks;
      return MergeCountMorsels(attrs, std::move(bufs));
    }
    std::vector<Value> buf;
    for (size_t r = 0; r < nrows; ++r) {
      if (!emit(buf, r)) return CountOverflow();
    }
    return NamedRelation{attrs, Relation(attrs.size(), std::move(buf))};
  }

  // Multiplicity-aware hash aggregation: groups the child's rows on the
  // node's group attributes (attrs minus the trailing #count), summing the
  // child's #count column per group — or counting rows when the child has
  // none (every row carries multiplicity 1). Output rows appear in
  // first-occurrence group order: row r contributes iff the RowIndex chain
  // head for its key IS r, and chains enumerate a key's rows in increasing
  // row order at any build width. A scalar aggregate (no group attributes)
  // emits one [total] row — or NO row on empty input, so a downstream
  // SemijoinCount sees emptiness rather than a spurious 0-count group (the
  // eval layer supplies the 0 row for a genuinely empty scalar query). One
  // group column over a dense value range sums into an array instead
  // (DenseAggregate), with the same output.
  Result<NamedRelation> AggregateCounts(PlanNode& n, const NamedRelation& in,
                                        size_t* morsels) {
    const int mult_col = in.ColumnOf(kCountAttr);
    const size_t ngroup = n.attrs.size() - 1;
    if (ngroup == 0) {
      if (in.empty()) return NamedRelation{n.attrs};
      Value total = 0;
      if (mult_col < 0) {
        total = static_cast<Value>(in.size());
      } else {
        for (size_t r = 0; r < in.size(); ++r) {
          if (__builtin_add_overflow(total, in.rel().At(r, mult_col),
                                     &total)) {
            return CountOverflow();
          }
        }
      }
      return NamedRelation{n.attrs, Relation(1, {total})};
    }
    std::vector<int> gcols(ngroup);
    for (size_t i = 0; i < ngroup; ++i) {
      gcols[i] = in.ColumnOf(n.attrs[i]);
      if (gcols[i] < 0) {
        return Status::Internal(
            "aggregate group attribute missing from its input");
      }
    }
    if (ngroup == 1) {
      const KeyRange range(in.rel(), gcols[0]);
      if (range.DenseForCounts(in.size())) {
        NoteKey(n, KeyKind::kDense);
        return DenseAggregate(n, in, gcols[0], mult_col, range);
      }
    }
    NoteKey(n, KeyKind::kHash);
    RowIndex idx(in.rel(), gcols, pfor_);
    std::span<const int> gspan(gcols);
    return RowWalk(
        n.attrs, in.size(), morsels,
        [&](std::vector<Value>& buf, size_t r) {
          uint32_t head = idx.Find(in.rel(), r, gspan);
          if (head != static_cast<uint32_t>(r)) return true;  // not first
          Value total = 0;
          if (mult_col < 0) {
            total = static_cast<Value>(idx.MatchCount(head));
          } else {
            for (uint32_t row = head; row != RowIndex::kNone;
                 row = idx.Next(row)) {
              if (__builtin_add_overflow(total, in.rel().At(row, mult_col),
                                         &total)) {
                return false;
              }
            }
          }
          for (int c : gcols) buf.push_back(in.rel().At(r, c));
          buf.push_back(total);
          return true;
        });
  }

  // AggregateCounts over one group column `gcol` whose values span `range`:
  // sums the multiplicities into an array indexed by the key's offset in
  // the range, then emits each group at its first occurrence — the order,
  // sums and overflow outcome of the RowIndex walk (both add a group's
  // multiplicities in row order).
  Result<NamedRelation> DenseAggregate(PlanNode& n, const NamedRelation& in,
                                       int gcol, int mult_col,
                                       const KeyRange& range) {
    const size_t rows = in.size(), arity = in.arity();
    const Value* data = in.rel().data().data();
    std::vector<Value> sums(range.slots(), 0);
    KeyBitmap pending(range.slots());
    uint64_t off = 0;
    for (size_t r = 0; r < rows; ++r) {
      range.Offset(data[r * arity + gcol], &off);
      const Value m = mult_col < 0 ? 1 : data[r * arity + mult_col];
      if (__builtin_add_overflow(sums[off], m, &sums[off])) {
        return CountOverflow();
      }
      pending.Set(off);
    }
    std::vector<Value> buf;
    for (size_t r = 0; r < rows; ++r) {
      const Value v = data[r * arity + gcol];
      range.Offset(v, &off);
      if (!pending.TestAndClear(off)) continue;  // group already out
      buf.push_back(v);
      buf.push_back(sums[off]);
    }
    return NamedRelation{n.attrs, Relation(2, std::move(buf))};
  }

  // Counting semijoin: per left row matching the right side on their shared
  // regular attributes, emits the left row's regular values extended by each
  // matching distinct right extension, with multiplicity left × right; a
  // non-matching left row is dropped (the semijoin filter). With no
  // right-only attributes the matches collapse to one output row whose
  // multiplicity sums the right side's; over one key column with a dense
  // value range those sums come from an array, not a RowIndex. Left rows
  // probe in row order (morsel-parallel like ParallelJoin), so output order
  // is deterministic.
  Result<NamedRelation> SemijoinCounts(PlanNode& n, const NamedRelation& left,
                                       const NamedRelation& right,
                                       size_t* morsels) {
    const int lmult = left.ColumnOf(kCountAttr);
    const int rmult = right.ColumnOf(kCountAttr);
    std::vector<int> lregular;  // left regular columns, in left attr order
    std::vector<int> lkey, rkey;  // shared regular columns (probe/build keys)
    for (size_t i = 0; i < left.attrs().size(); ++i) {
      AttrId a = left.attrs()[i];
      if (a == kCountAttr) continue;
      lregular.push_back(static_cast<int>(i));
      int rc = right.ColumnOf(a);
      if (rc >= 0) {
        lkey.push_back(static_cast<int>(i));
        rkey.push_back(rc);
      }
    }
    std::vector<int> rextra;  // right-only regular columns, in right order
    for (size_t i = 0; i < right.attrs().size(); ++i) {
      AttrId a = right.attrs()[i];
      if (a == kCountAttr || left.ColumnOf(a) >= 0) continue;
      rextra.push_back(static_cast<int>(i));
    }
    if (n.attrs.size() != lregular.size() + rextra.size() + 1) {
      return Status::Internal(
          "semijoin-count output attributes do not match its inputs");
    }
    const Value* ldata = left.rel().data().data();
    const size_t larity = left.arity();
    auto emit_sum = [&](std::vector<Value>& buf, size_t r, Value rsum) {
      const Value lm = lmult < 0 ? 1 : ldata[r * larity + lmult];
      Value mult;
      if (__builtin_mul_overflow(lm, rsum, &mult)) return false;
      for (int c : lregular) buf.push_back(ldata[r * larity + c]);
      buf.push_back(mult);
      return true;
    };
    if (rextra.empty() && rkey.size() == 1) {
      const KeyRange range(right.rel(), rkey[0]);
      if (range.DenseForCounts(right.size())) {
        // Per-key right sums in an array. A sum that overflows is marked
        // and fails only the left rows that reach it, as the lazy per-probe
        // sum of the RowIndex path does.
        NoteKey(n, KeyKind::kDense);
        const Value* rdata = right.rel().data().data();
        const size_t rarity = right.arity();
        std::vector<Value> rsums(range.slots(), 0);
        KeyBitmap present(range.slots()), overflowed(range.slots());
        uint64_t off = 0;
        for (size_t r = 0; r < right.size(); ++r) {
          range.Offset(rdata[r * rarity + rkey[0]], &off);
          const Value m = rmult < 0 ? 1 : rdata[r * rarity + rmult];
          present.Set(off);
          if (__builtin_add_overflow(rsums[off], m, &rsums[off])) {
            overflowed.Set(off);
          }
        }
        return RowWalk(
            n.attrs, left.size(), morsels,
            [&](std::vector<Value>& buf, size_t r) {
              uint64_t at = 0;
              if (!range.Offset(ldata[r * larity + lkey[0]], &at) ||
                  !present.Test(at)) {
                return true;  // filtered out
              }
              if (overflowed.Test(at)) return false;
              return emit_sum(buf, r, rsums[at]);
            });
      }
    }
    NoteKey(n, KeyKind::kHash);
    RowIndex idx(right.rel(), rkey, pfor_);
    std::span<const int> lkey_span(lkey);
    return RowWalk(
        n.attrs, left.size(), morsels,
        [&](std::vector<Value>& buf, size_t r) {
          uint32_t head = idx.Find(left.rel(), r, lkey_span);
          if (head == RowIndex::kNone) return true;  // filtered out
          if (rextra.empty()) {
            Value rsum = 0;
            if (rmult < 0) {
              rsum = static_cast<Value>(idx.MatchCount(head));
            } else {
              for (uint32_t row = head; row != RowIndex::kNone;
                   row = idx.Next(row)) {
                if (__builtin_add_overflow(rsum, right.rel().At(row, rmult),
                                           &rsum)) {
                  return false;
                }
              }
            }
            return emit_sum(buf, r, rsum);
          }
          const Value lm = lmult < 0 ? 1 : left.rel().At(r, lmult);
          Value mult;
          for (uint32_t row = head; row != RowIndex::kNone;
               row = idx.Next(row)) {
            const Value rm = rmult < 0 ? 1 : right.rel().At(row, rmult);
            if (__builtin_mul_overflow(lm, rm, &mult)) return false;
            for (int c : lregular) buf.push_back(left.rel().At(r, c));
            for (int c : rextra) buf.push_back(right.rel().At(row, c));
            buf.push_back(mult);
          }
          return true;
        });
  }

  const ExecContext& ctx_;
  /// Bound over the runtime's scheduler (empty when sequential); threaded
  /// into RowIndex builds and HashDedup.
  ParallelForFn pfor_;
  std::mutex states_mutex_;
  std::unordered_map<const PlanNode*, std::unique_ptr<NodeState>> states_;
  std::mutex stats_mutex_;
  /// Committed max_steps meter (speculative rows live in Charge chains
  /// until their consumer commits them).
  std::atomic<uint64_t> rows_produced_{0};
};

}  // namespace

Result<NamedRelation> ExecutePlan(PlanNode& root, const ExecContext& ctx) {
  root.ResetActuals();
  Timer timer;
  Executor ex(ctx);
  auto result = ex.Run(root);
  if (ctx.stats != nullptr) ctx.stats->wall_seconds += timer.Seconds();
  // Snapshot the analyzed render before the next execution resets the
  // actuals — on failure too (an aborted plan shows the work it did).
  if (ctx.runtime.analyze != nullptr) ctx.runtime.analyze->Note(root, ctx.vars);
  return result;
}

struct ExecSession::Impl {
  explicit Impl(const ExecContext& ctx) : executor(ctx), ctx(ctx) {}
  Executor executor;
  const ExecContext& ctx;
};

ExecSession::ExecSession(const ExecContext& ctx)
    : impl_(std::make_unique<Impl>(ctx)) {}

ExecSession::~ExecSession() = default;

Result<NamedRelation> ExecSession::Run(PlanNode& root) {
  root.ResetActuals();
  Timer timer;
  auto result = impl_->executor.Run(root);
  if (impl_->ctx.stats != nullptr) {
    impl_->ctx.stats->wall_seconds += timer.Seconds();
  }
  if (impl_->ctx.runtime.analyze != nullptr) {
    impl_->ctx.runtime.analyze->Note(root, impl_->ctx.vars);
  }
  return result;
}

}  // namespace paraquery
