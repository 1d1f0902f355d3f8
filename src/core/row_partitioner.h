// Row-to-node membership (the NodeMap of Fig. 5) with the MemBuf
// optimization of Fig. 7, stored in a flat double-buffered arena.
//
// Each tree node owns a contiguous [begin, end) window of one of two
// persistent num_rows-sized buffers. With MemBuf enabled (Section IV-E) the
// buffers store (rowid, g, h) triples, so BuildHist streams gradients
// sequentially instead of gathering them from the global gradient array
// through non-contiguous row ids; with MemBuf disabled they store row ids
// only, reproducing the random-gather behaviour (the Table V "+MemBuf"
// ablation toggles exactly this).
//
// ApplySplit partitions a node's window into its two children with a
// three-phase count / exclusive-scan / scatter over a fixed 4096-row chunk
// grid: one read pass to count, one write pass that moves each element
// exactly once into the opposite buffer (children reuse the parent's
// window: left at [begin, begin+n_left), right at [begin+n_left, end)).
// The chunk grid depends only on the node size, never on the thread count,
// so the partition is *stable* (row order preserved) and bit-deterministic
// regardless of how chunks are scheduled — which is what makes DP/MP/SYNC
// builds reproduce identical trees. The count pass additionally fuses the
// children's gradient-pair sums (per-chunk partials over the parent's
// chunk grid, reduced in ascending chunk order), so NodeSum on a freshly
// split child is O(1). Fused sums are the node's canonical sum: a
// function of the tree path only, bit-identical across apply paths and
// thread counts (they associate adds by the parent grid, so they agree
// with a fresh scan of the child to ~1 ulp, not bitwise).
//
// ApplySplitBatch partitions all K nodes of a TopK batch under a single
// pair of parallel regions (count pass + scatter pass over the union of
// all chunk tasks) instead of K separate partitions — the ApplySplit-phase
// extension of the paper's barriers ∝ 2^D/K argument.
//
// Steady state allocates nothing: the arena buffers, per-node windows, and
// all partition scratch persist across trees and only ever grow (tracked
// by the grow_events counter in PartitionStats).
//
// Concurrency contract: Reset() sizes the per-node window table for every
// node id below max_nodes, and disjoint nodes occupy disjoint row windows
// in BOTH buffers, so ASYNC workers may call the serial ApplySplit /
// ForEachRow on *disjoint* nodes concurrently without touching shared
// state (the serial path keeps its scratch thread-local; counters are
// relaxed atomics). The batched/pooled paths and NodeSum(pool) use member
// scratch and must only be called from the orchestration thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include <functional>

#include "common/aligned.h"
#include "core/gh.h"
#include "data/binned_matrix.h"
#include "parallel/thread_pool.h"

namespace harp {

// One MemBuf element: 12 bytes.
struct MemBufEntry {
  uint32_t rid = 0;
  float g = 0.0f;
  float h = 0.0f;
};

// A GHPair padded to a full cache line. Used for every per-chunk /
// per-thread partial-sum buffer (NodeSum partials, the fused child sums of
// the scatter pass) so concurrent writers never share a line regardless of
// the GHPair layout.
struct alignas(kHistAlignBytes) PaddedGHPair {
  GHPair value;
};
static_assert(sizeof(PaddedGHPair) == kHistAlignBytes);

// One split to apply: partition `node_id`'s rows between `left_id` and
// `right_id` (bin 0 -> default side; else bin <= split_bin goes left).
struct SplitTask {
  int node_id = -1;
  int left_id = -1;
  int right_id = -1;
  uint32_t feature = 0;
  uint32_t split_bin = 0;
  bool default_left = false;
};

// Monotonic partition-phase counters (snapshot; builders report deltas via
// TrainStats).
struct PartitionStats {
  int64_t grow_events = 0;  // arena / window-table / scratch (re)allocations
  int64_t splits = 0;       // nodes partitioned
  int64_t batches = 0;      // batched (single-pass-pair) applications
  int64_t barriers = 0;     // count/scatter partition passes (2 per batch;
                            // region launches OR in-region phases,
                            // depending on the scheduler driving them)
  int64_t bytes_moved = 0;  // payload bytes written by scatter passes
};

class RowPartitioner {
 public:
  // use_membuf selects the (rowid, g, h) layout; otherwise gradients are
  // fetched from the `gradients` array passed to Reset.
  RowPartitioner(uint32_t num_rows, bool use_membuf)
      : num_rows_(num_rows), use_membuf_(use_membuf) {}

  // Starts a new tree: node 0 (the root) owns every row, and window slots
  // exist for node ids < max_nodes (a tree with L leaves has 2L-1 nodes).
  // The gradients vector must stay valid until the next Reset. Allocates
  // only when num_rows/max_nodes outgrow what previous trees used.
  void Reset(const std::vector<GradientPair>& gradients, int max_nodes,
             ThreadPool* pool = nullptr);

  bool use_membuf() const { return use_membuf_; }
  uint32_t num_rows() const { return num_rows_; }
  int max_nodes() const { return max_nodes_; }

  uint32_t NodeSize(int node_id) const;

  // Row ids of a node (only valid when MemBuf is off). A view into the
  // node's arena window — invalidated by the split of this node.
  std::span<const uint32_t> NodeRowIds(int node_id) const;
  // MemBuf entries of a node (only valid when MemBuf is on).
  std::span<const MemBufEntry> NodeEntries(int node_id) const;
  // Global gradient array passed to Reset (gather-mode kernels index it by
  // row id); null before the first Reset.
  const GradientPair* gradient_data() const {
    return gradients_ != nullptr ? gradients_->data() : nullptr;
  }

  // Invokes fn(rid, g, h) for every row of the node, in stored order.
  template <typename Fn>
  void ForEachRow(int node_id, Fn&& fn) const {
    ForEachRowRange(node_id, 0, NodeSize(node_id), fn);
  }

  // Like ForEachRow but over the subrange [begin, end) of the node's
  // window (row-block tasks in the DP builder).
  template <typename Fn>
  void ForEachRowRange(int node_id, uint32_t begin, uint32_t end,
                       Fn&& fn) const {
    const NodeSpan& s = spans_[static_cast<size_t>(node_id)];
    if (use_membuf_) {
      const MemBufEntry* entries = entry_arena_[s.buf].data() + s.begin;
      for (uint32_t i = begin; i < end; ++i) {
        const MemBufEntry& e = entries[i];
        fn(e.rid, e.g, e.h);
      }
    } else {
      const uint32_t* ids = rid_arena_[s.buf].data() + s.begin;
      const GradientPair* grads = gradients_->data();
      for (uint32_t i = begin; i < end; ++i) {
        const uint32_t rid = ids[i];
        fn(rid, grads[rid].g, grads[rid].h);
      }
    }
  }

  // Gradient sum of a node's rows. O(1) for nodes produced by a split (the
  // scatter pass fused their sums); otherwise a chunk-grid scan whose
  // result is bit-identical for any thread count, serial included.
  // Parallel (pool non-null) only from the orchestration thread.
  GHPair NodeSum(int node_id, ThreadPool* pool = nullptr) const;

  // Whether NodeSum(node_id) is a cached fused sum (tests, diagnostics).
  bool HasFusedSum(int node_id) const;

  // Splits `node_id`'s rows between `left_id` and `right_id`. The parent's
  // window becomes empty. Internally parallel (two regions: count +
  // scatter) for large nodes when a pool is given; serial otherwise.
  // Distinct nodes may be split concurrently (serial variant only).
  void ApplySplit(int node_id, int left_id, int right_id,
                  const BinnedMatrix& matrix, uint32_t feature,
                  uint32_t split_bin, bool default_left,
                  ThreadPool* pool = nullptr);

  // Applies all of a batch's splits under one count region + one scatter
  // region spanning every task's chunks (instead of per-node regions).
  // Tasks must name disjoint live nodes. Serial fallback when pool is null
  // or the total row count is small. Orchestration thread only.
  void ApplySplitBatch(std::span<const SplitTask> tasks,
                       const BinnedMatrix& matrix, ThreadPool* pool);

  // ---- Fused-step protocol (ThreadPool::FusedRegion) ----
  // Serial staging called BEFORE the region: validates the batch, decides
  // chunk-grid vs per-task-serial execution (the same kParallelRows rule
  // as ApplySplitBatch, so both entry points take identical code paths) and
  // builds the chunk task list. Returns false for an empty batch.
  // Orchestration thread only.
  bool PrepareSplitBatch(std::span<const SplitTask> tasks);

  // Collective: every region thread calls this with its thread id and the
  // SAME tasks span given to PrepareSplitBatch. Runs the count pass
  // (dynamic chunks), the serial exclusive scan (barrier epilogue), the
  // scatter pass, and the child-window/fused-sum publication; then
  // `after_finish` runs inside the final barrier's epilogue, after the
  // children are live (builder glue: child row counts, histogram
  // acquisition, next-phase task staging). Small batches run serially on
  // thread 0 instead (the serial path's thread_local scratch stays on the
  // orchestration thread, keeping grow_events deterministic). Results are
  // bit-identical to ApplySplitBatch.
  void ApplySplitBatchInRegion(std::span<const SplitTask> tasks,
                               const BinnedMatrix& matrix,
                               ThreadPool::FusedRegion& region, int thread_id,
                               const std::function<void()>& after_finish);

  // margins[rid] += value for every row of the node (leaf-value scatter at
  // the end of a tree). Distinct nodes may run concurrently.
  void AddToMargins(int node_id, double value,
                    std::vector<double>* margins) const;

  // Snapshot of the monotonic partition counters.
  PartitionStats stats() const;

 private:
  // Rows per partition chunk: the unit of the count/scan/scatter grid and
  // of every deterministic partial-sum reduction. Fixed (never derived
  // from the thread count) so results are schedule-independent.
  static constexpr uint32_t kChunkRows = 4096;
  // Below this many total rows a parallel region costs more than it saves.
  static constexpr uint32_t kParallelRows = 8192;

  // A node's arena window: [begin, end) of buffer `buf`.
  struct NodeSpan {
    uint32_t begin = 0;
    uint32_t end = 0;
    uint8_t buf = 0;
  };

  // One chunk of one task's parent window (absolute arena offsets).
  struct ChunkRef {
    uint32_t task = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  void CheckNode(int node_id) const;
  void CheckTask(const SplitTask& t) const;

  template <typename Layout>
  void PartitionSerial(const SplitTask& t, const BinnedMatrix& matrix);
  template <typename Layout>
  GHPair NodeSumScan(int node_id, ThreadPool* pool) const;

  // Batched-apply pieces shared by the region-per-pass entry point
  // (ApplySplitBatch) and the fused one (ApplySplitBatchInRegion); all
  // operate on the chunk grid staged by PrepareSplitBatch.
  void BuildChunkGrid(std::span<const SplitTask> tasks);
  void CountChunkRange(std::span<const SplitTask> tasks,
                       const BinnedMatrix& matrix, int64_t begin, int64_t end);
  void ScanTasksSerial(std::span<const SplitTask> tasks);
  void ScatterChunkRange(std::span<const SplitTask> tasks,
                         const BinnedMatrix& matrix, int64_t begin,
                         int64_t end);
  void FinishBatchSerial(std::span<const SplitTask> tasks);
  void PartitionBatchSerial(std::span<const SplitTask> tasks,
                            const BinnedMatrix& matrix);
  template <typename Layout>
  void CountChunkRangeT(std::span<const SplitTask> tasks,
                        const BinnedMatrix& matrix, int64_t begin,
                        int64_t end);
  template <typename Layout>
  void ScatterChunkRangeT(std::span<const SplitTask> tasks,
                          const BinnedMatrix& matrix, int64_t begin,
                          int64_t end);

  // Records the split's outcome: child/parent windows, fused sums, bytes.
  void FinishSplit(const SplitTask& t, uint32_t left_count,
                   const GHPair& left_sum, const GHPair& right_sum);

  uint32_t num_rows_;
  bool use_membuf_;
  int max_nodes_ = 0;
  const std::vector<GradientPair>* gradients_ = nullptr;

  // Double-buffered arena; exactly one pair is populated per layout. A
  // split reads the parent's window from one buffer and writes both
  // children into the same window of the other, so concurrent splits of
  // disjoint nodes touch disjoint memory.
  AlignedVector<MemBufEntry> entry_arena_[2];
  AlignedVector<uint32_t> rid_arena_[2];
  // Per-row go-left predicate cache, indexed by source arena offset: the
  // count pass evaluates the predicate (one bin-matrix read per row) and
  // stores it here; the scatter pass reads the byte instead of re-reading
  // the bin matrix. Disjoint node windows use disjoint ranges, so the
  // concurrent-serial-splits contract holds.
  AlignedVector<uint8_t> left_flags_;

  // Indexed by node id; sized to max_nodes_ at Reset (grow-only).
  std::vector<NodeSpan> spans_;
  // Fused per-node gradient sums filled by the scatter pass.
  std::vector<GHPair> fused_sums_;
  std::vector<uint8_t> fused_valid_;

  // Batched-path staging (set by PrepareSplitBatch).
  bool prepared_parallel_ = false;
  size_t prepared_chunks_ = 0;

  // Batched-path scratch (orchestration thread only; grow-only).
  std::vector<ChunkRef> chunk_refs_;
  std::vector<uint32_t> chunk_left_;        // counts, then in-task offsets
  std::vector<uint32_t> task_left_total_;   // per task
  std::vector<PaddedGHPair> chunk_left_sum_;
  std::vector<PaddedGHPair> chunk_right_sum_;
  // NodeSum(pool) per-chunk partials (orchestration thread only).
  mutable std::vector<PaddedGHPair> sum_scratch_;

  // Relaxed atomics: the ASYNC serial path updates them concurrently.
  // Mutable because const NodeSum may grow its scratch (a grow event).
  mutable std::atomic<int64_t> grow_events_{0};
  std::atomic<int64_t> splits_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> barriers_{0};
  std::atomic<int64_t> bytes_moved_{0};
};

}  // namespace harp
