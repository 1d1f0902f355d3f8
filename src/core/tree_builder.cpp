#include "core/tree_builder.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "distributed/communicator.h"

namespace harp {

void ScatterLeafValues(const RegTree& tree, const RowPartitioner& partitioner,
                       ThreadPool& pool, std::vector<double>* margins) {
  std::vector<int> leaf_ids;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    if (tree.node(id).IsLeaf()) leaf_ids.push_back(id);
  }
  pool.ParallelForDynamic(
      static_cast<int64_t>(leaf_ids.size()), 1,
      [&](int64_t begin, int64_t end, int) {
        for (int64_t i = begin; i < end; ++i) {
          const int leaf = leaf_ids[static_cast<size_t>(i)];
          partitioner.AddToMargins(leaf, tree.node(leaf).leaf_value, margins);
        }
      });
}

HarpTreeBuilder::HarpTreeBuilder(const BinnedMatrix& matrix,
                                 const TrainParams& params, ThreadPool& pool,
                                 Communicator* comm)
    : matrix_(matrix),
      params_(params.Validate()),
      pool_(pool),
      comm_(comm),
      evaluator_(params),
      hists_(matrix.TotalBins()),
      partitioner_(matrix.num_rows(), params.use_membuf),
      queue_(params.grow_policy),
      use_quant_(params.quantize_hist &&
                 params.mode != ParallelMode::kASYNC),
      simd_level_(ResolveSimdLevel(params.simd)) {
  // MP's overlap graph finds one node while others still build, and ASYNC
  // grows nodes independently: neither leaves a point where every rank
  // can exchange a batch's histograms.
  HARP_CHECK(comm_ == nullptr || params.mode == ParallelMode::kDP)
      << "sharded training runs DP only (got " << ToString(params.mode)
      << ")";
  if (params.quantize_hist && params.mode == ParallelMode::kASYNC) {
    HARP_LOG(Warning) << "quantized histograms are not supported in ASYNC "
                         "mode (serial node tasks use the f64 path); "
                         "ignoring quantize_hist";
  }
  // FindSplit parallel grid: nodes x feature chunks. When feature blocks
  // are configured reuse them; otherwise chunk so every thread has work
  // even for small batches. Fixed here so fused find-task ids stay stable.
  const uint32_t num_features = matrix_.num_features();
  int fb_size = params_.feature_blk_size;
  if (fb_size <= 0) {
    fb_size = static_cast<int>(std::max<uint32_t>(
        1, num_features / static_cast<uint32_t>(
                              std::max(1, pool_.num_threads()))));
  }
  fblocks_ = MakeFeatureBlocks(num_features, fb_size);
}

size_t HarpTreeBuilder::ScratchCapacity() const {
  return split_tasks_.capacity() + batch_.capacity() + children_.capacity() +
         build_list_.capacity() + subtract_list_.capacity() +
         found_.capacity() + find_partial_.capacity() +
         find_hist_.capacity() + find_sums_.capacity() + slots_cap_ +
         node_remaining_cap_ + build_pos_.capacity() +
         build_child_pos_.capacity() + sub_of_build_.capacity() +
         queued_.capacity() + child_rows_.capacity() +
         exchange_ptrs_.capacity();
}

ParallelMode HarpTreeBuilder::ChooseMode(size_t batch_nodes,
                                         int64_t batch_rows) const {
  switch (params_.mode) {
    case ParallelMode::kDP:
      return ParallelMode::kDP;
    case ParallelMode::kMP:
      return ParallelMode::kMP;
    case ParallelMode::kASYNC:
      // Only the ramp-up phase reaches here; the paper's ASYNC is
      // (X, node parallelism, X) with DP as the X phase.
      return ParallelMode::kDP;
    case ParallelMode::kSYNC:
      break;
  }
  // Phase mixing by a per-node cost model. DP's fixed overhead per node is
  // the replica traffic (zero + reduce): threads x total_bins histogram
  // slots. Its useful work per node is the row scan: avg_rows x M updates.
  // Early in the tree (few big nodes) the scan dominates and DP's
  // conflict-free row blocks win; late in the tree (many tiny nodes) the
  // replica traffic dominates and MP's shared-histogram blocks win. This
  // realizes Table II's mixed schedule with a machine-independent switch.
  if (batch_nodes < 2) return ParallelMode::kDP;
  const int64_t avg_rows =
      batch_rows / static_cast<int64_t>(std::max<size_t>(1, batch_nodes));
  const int64_t scan_per_node =
      avg_rows * static_cast<int64_t>(matrix_.num_features());
  const int64_t replica_per_node =
      static_cast<int64_t>(pool_.num_threads()) *
      static_cast<int64_t>(matrix_.TotalBins());
  return scan_per_node >= replica_per_node ? ParallelMode::kDP
                                           : ParallelMode::kMP;
}

void HarpTreeBuilder::StageApply(RegTree& tree) {
  children_.clear();
  for (const Candidate& cand : batch_) {
    const float cut =
        matrix_.cuts().CutFor(cand.split.feature, cand.split.bin);
    const auto [left, right] = tree.ApplySplit(cand.node_id, cand.split, cut);
    children_.push_back(left);
    children_.push_back(right);
  }
  split_tasks_.clear();
  for (size_t i = 0; i < batch_.size(); ++i) {
    const Candidate& cand = batch_[i];
    split_tasks_.push_back(SplitTask{cand.node_id, children_[2 * i],
                                     children_[2 * i + 1], cand.split.feature,
                                     cand.split.bin,
                                     cand.split.default_left});
  }
}

void HarpTreeBuilder::PrepareFind(const RegTree& tree,
                                  std::span<const int> nodes) {
  find_nodes_ = nodes;
  const size_t grid = nodes.size() * fblocks_.size();
  if (find_partial_.size() < grid) find_partial_.resize(grid);
  if (find_hist_.size() < nodes.size()) find_hist_.resize(nodes.size());
  if (find_sums_.size() < nodes.size()) find_sums_.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    find_hist_[i] = hists_.Get(nodes[i]);
    find_sums_[i] = tree.node(nodes[i]).sum;
  }
}

void HarpTreeBuilder::RunFindTask(size_t grid_index) {
  const size_t node_idx = grid_index / fblocks_.size();
  const size_t fb_idx = grid_index % fblocks_.size();
  const Range fb = fblocks_[fb_idx];
  find_partial_[grid_index] = evaluator_.FindBestSplit(
      matrix_, find_hist_[node_idx], find_sums_[node_idx], fb.first,
      fb.second, column_mask_ != nullptr ? column_mask_->data() : nullptr);
}

void HarpTreeBuilder::MergeFound(const RegTree& tree) {
  found_.clear();
  const size_t nfb = fblocks_.size();
  for (size_t i = 0; i < find_nodes_.size(); ++i) {
    SplitInfo best;
    for (size_t fb = 0; fb < nfb; ++fb) {
      const SplitInfo& s = find_partial_[i * nfb + fb];
      if (s.BetterThan(best)) best = s;
    }
    found_.push_back(
        Candidate{find_nodes_[i], tree.node(find_nodes_[i]).depth, best});
  }
}

void HarpTreeBuilder::FindSplitsBatch(const RegTree& tree,
                                      std::span<const int> nodes) {
  PrepareFind(tree, nodes);
  const size_t grid = nodes.size() * fblocks_.size();
  pool_.ParallelForDynamic(
      static_cast<int64_t>(grid), 1, [&](int64_t begin, int64_t end, int) {
        for (int64_t g = begin; g < end; ++g) {
          RunFindTask(static_cast<size_t>(g));
        }
      });
  MergeFound(tree);
}

void HarpTreeBuilder::PlanBuild(RegTree& tree) {
  // A pair whose parent kept its histogram (RetainNextParents) scans only
  // the smaller child; the larger one takes over the parent's buffer and
  // becomes parent - sibling in place. Any other pair builds both.
  build_list_.clear();
  build_child_pos_.clear();
  subtract_list_.clear();
  sub_of_build_.clear();
  for (size_t i = 0; i < batch_.size(); ++i) {
    const uint32_t left_pos = static_cast<uint32_t>(2 * i);
    const int parent = batch_[i].node_id;
    if (!hists_.Has(parent)) {
      for (const uint32_t pos : {left_pos, left_pos + 1}) {
        hists_.Acquire(children_[pos]);
        build_list_.push_back(children_[pos]);
        build_child_pos_.push_back(pos);
        sub_of_build_.push_back(-1);
      }
      continue;
    }
    const bool left_smaller = tree.node(children_[left_pos]).num_rows <=
                              tree.node(children_[left_pos + 1]).num_rows;
    const uint32_t small_pos = left_smaller ? left_pos : left_pos + 1;
    const uint32_t large_pos = left_smaller ? left_pos + 1 : left_pos;
    build_list_.push_back(children_[small_pos]);
    build_child_pos_.push_back(small_pos);
    sub_of_build_.push_back(static_cast<int32_t>(subtract_list_.size()));
    subtract_list_.push_back(
        SubtractJob{large_pos, hists_.Transfer(parent, children_[large_pos]),
                    hists_.Acquire(children_[small_pos])});
  }

  build_rows_ = 0;
  for (int node : build_list_) build_rows_ += partitioner_.NodeSize(node);
  plan_mode_ = ChooseMode(build_list_.size(), build_rows_);
  hist_updates_ +=
      build_rows_ * static_cast<int64_t>(matrix_.num_features());
}

void HarpTreeBuilder::SyncGrow(RegTree& tree, GrowQueue& queue,
                               int64_t& leaves, TrainStats* stats,
                               const std::function<bool()>& stop) {
  const int64_t max_leaves = params_.MaxLeaves();
  const int max_depth = params_.MaxDepth();

  while (!queue.Empty() && leaves < max_leaves && !stop()) {
    const size_t cap_before = ScratchCapacity();
    const int64_t remaining = max_leaves - leaves;
    RetainNextParents(queue, params_, remaining, &queued_, &hists_);
    queue.PopBatchInto(params_.EffectiveTopK(), remaining, &batch_);
    if (batch_.empty()) break;
    ++topk_batches_;

    FusedStep(tree);
    leaves += static_cast<int64_t>(batch_.size());
    if (stats != nullptr) {
      stats->nodes_split += static_cast<int64_t>(batch_.size());
    }

    for (const Candidate& cand : found_) {
      if (cand.split.IsValid() && cand.depth < max_depth) {
        queue.Push(cand);
      } else {
        hists_.Release(cand.node_id);
      }
    }
    if (ScratchCapacity() != cap_before) ++scratch_grows_;
  }
}

QuantScales HarpTreeBuilder::AgreeQuantScales(
    const std::vector<GradientPair>& gradients) {
  QuantStats stats = ComputeQuantStats(gradients, &pool_);
  double maxima[2] = {stats.g_max, stats.h_max};
  comm_->AllreduceMax(maxima, 2);
  double sums[3] = {stats.g_sum, stats.h_sum, stats.rows};
  comm_->AllreduceSum(sums, 3);
  stats.g_max = maxima[0];
  stats.h_max = maxima[1];
  stats.g_sum = sums[0];
  stats.h_sum = sums[1];
  stats.rows = sums[2];
  return QuantScalesFromStats(stats);
}

void HarpTreeBuilder::AllreduceChildRows(RegTree& tree) {
  child_rows_.clear();
  for (int child : children_) child_rows_.push_back(tree.node(child).num_rows);
  comm_->AllreduceSum(child_rows_.data(), child_rows_.size());
  for (size_t i = 0; i < children_.size(); ++i) {
    tree.mutable_node(children_[i]).num_rows =
        static_cast<uint32_t>(child_rows_[i]);
  }
}

void HarpTreeBuilder::ExchangeHists(std::span<const int> nodes) {
  const int64_t start = NowNs();
  exchange_ptrs_.clear();
  for (int node : nodes) exchange_ptrs_.push_back(hists_.Get(node));
  Communicator::HistExchangeOpts opts;
  opts.sparse = params_.comm_compress == "sparse";
  opts.quant = use_quant_;
  opts.scales = quant_round_.scales;
  comm_->AllreduceHistograms(exchange_ptrs_.data(),
                             static_cast<uint32_t>(nodes.size()),
                             static_cast<uint32_t>(matrix_.TotalBins()), opts);
  reduce_ns_ += NowNs() - start;
}

void HarpTreeBuilder::FinalizeLeaves(RegTree& tree) const {
  for (int id = 0; id < tree.num_nodes(); ++id) {
    TreeNode& node = tree.mutable_node(id);
    if (node.IsLeaf()) node.leaf_value = evaluator_.LeafValue(node.sum);
  }
}

RegTree HarpTreeBuilder::BuildTree(const std::vector<GradientPair>& gradients,
                                   TrainStats* stats) {
  build_ns_ = reduce_ns_ = find_ns_ = apply_ns_ = quantize_ns_ = 0;
  hist_updates_ = 0;
  topk_batches_ = 0;
  const PartitionStats apply_before = partitioner_.stats();

  const int64_t max_leaves = params_.MaxLeaves();
  const int max_nodes = static_cast<int>(2 * max_leaves);
  partitioner_.Reset(gradients, max_nodes, &pool_);
  hists_.ReleaseAll();

  if (use_quant_) {
    // Fresh scales + packed rows every round: the gradient distribution
    // shifts as boosting progresses, and a per-round power-of-two scale
    // keeps the full int16 resolution on the current range. The seed
    // varies per tree so stochastic rounding errors stay uncorrelated
    // across rounds.
    const Stopwatch quant_watch;
    quant_round_.scales = comm_ != nullptr
                              ? AgreeQuantScales(gradients)
                              : ComputeQuantScales(gradients, &pool_);
    QuantizeGradients(gradients, quant_round_.scales,
                      params_.quant_stochastic,
                      params_.seed + static_cast<uint64_t>(trees_built_),
                      static_cast<int>(simd_level_), &pool_,
                      &quant_round_.packed);
    quantize_ns_ += quant_watch.ElapsedNs();
  }

  RegTree tree;
  tree.mutable_nodes().reserve(static_cast<size_t>(max_nodes));
  TreeNode& root = tree.mutable_node(0);
  root.sum = partitioner_.NodeSum(0, &pool_);
  root.num_rows = partitioner_.num_rows();
  if (comm_ != nullptr) {
    int64_t rows = root.num_rows;
    comm_->AllreduceSum(&root.sum, 1);
    comm_->AllreduceSum(&rows, 1);
    root.num_rows = static_cast<uint32_t>(rows);
  }

  // Root histogram + split.
  hists_.Acquire(0);
  {
    const Stopwatch watch;
    const BuildContext ctx = Context();
    const int root_nodes[] = {0};
    if (ChooseMode(1, root.num_rows) == ParallelMode::kDP) {
      reduce_ns_ += dp_.Build(ctx, root_nodes);
    } else {
      mp_.Build(ctx, root_nodes);
    }
    if (comm_ != nullptr) ExchangeHists(root_nodes);
    hist_updates_ += static_cast<int64_t>(partitioner_.num_rows()) *
                     static_cast<int64_t>(matrix_.num_features());
    build_ns_ += watch.ElapsedNs();
  }

  queue_.Clear();
  int64_t leaves = 1;
  {
    const Stopwatch find_watch;
    const int root_nodes[] = {0};
    FindSplitsBatch(tree, root_nodes);
    find_ns_ += find_watch.ElapsedNs();
    const bool eligible = found_[0].split.IsValid() && max_leaves > 1 &&
                          params_.MaxDepth() > 0;
    if (eligible) {
      queue_.Push(found_[0]);
    } else {
      hists_.Release(0);
    }
  }

  const SyncSnapshot grow_before = pool_.Snapshot();
  if (params_.mode == ParallelMode::kASYNC) {
    AsyncGrow(tree, queue_, leaves, stats);
  } else {
    SyncGrow(tree, queue_, leaves, stats, [] { return false; });
  }
  const SyncSnapshot grow_after = pool_.Snapshot();

  FinalizeLeaves(tree);

  if (stats != nullptr) {
    // Approximate GHSum write window of one histogram task (Section IV-E:
    // 16 x bin_blk x feature_blk x node_blk bytes).
    const size_t fblocks =
        MakeFeatureBlocks(matrix_.num_features(), params_.feature_blk_size)
            .size();
    const size_t bins_per_block = matrix_.TotalBins() / std::max<size_t>(1, fblocks);
    const size_t node_span =
        params_.mode == ParallelMode::kMP
            ? static_cast<size_t>(params_.node_blk_size)
            : 1;
    // max, not =, for consistency with hist_peak_bytes: the value is a
    // per-configuration constant, and accumulating with = silently kept
    // only the last tree's (identical) value anyway. Quantized mode
    // halves the cell the hot loop writes (8-byte int64 vs 16-byte
    // GHPair) — the Section III-B bytes-per-update lever this PR pulls.
    const size_t cell_bytes =
        use_quant_ ? sizeof(int64_t) : sizeof(GHPair);
    stats->hist_cell_bytes = cell_bytes;
    stats->write_region_bytes =
        std::max(stats->write_region_bytes,
                 cell_bytes * bins_per_block * node_span);
    stats->topk_batches += topk_batches_;
    stats->grow_region_launches +=
        grow_after.parallel_regions - grow_before.parallel_regions;
    stats->grow_phase_barriers +=
        grow_after.phase_barriers - grow_before.phase_barriers;
    stats->build_hist_ns += build_ns_;
    stats->reduce_ns += reduce_ns_;
    stats->find_split_ns += find_ns_;
    stats->apply_split_ns += apply_ns_;
    stats->quantize_ns += quantize_ns_;
    stats->hist_updates += hist_updates_;
    const PartitionStats apply_after = partitioner_.stats();
    stats->apply_splits += apply_after.splits - apply_before.splits;
    stats->apply_batches += apply_after.batches - apply_before.batches;
    stats->apply_barriers += apply_after.barriers - apply_before.barriers;
    stats->apply_bytes_moved +=
        apply_after.bytes_moved - apply_before.bytes_moved;
    stats->apply_allocs += apply_after.grow_events - apply_before.grow_events;
    stats->leaves += leaves;
    stats->max_tree_depth = std::max(stats->max_tree_depth, tree.MaxDepth());
    stats->hist_peak_bytes = std::max(stats->hist_peak_bytes,
                                      hists_.PeakBytes());
  }
  ++trees_built_;
  return tree;
}

}  // namespace harp
