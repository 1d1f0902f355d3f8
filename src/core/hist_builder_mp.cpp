#include <algorithm>

#include "common/logging.h"
#include "core/hist_builder.h"

namespace harp {
namespace {

// Zeroes the slots one <feature_blk x bin_blk> cube owns in one node's
// histogram (f64 pool buffer or int64 arena stride), just before the cube
// accumulates into them: the zeroing runs cache-hot and in parallel across
// cubes. Cubes tile the histogram, so together they write every slot.
template <typename Cell>
void ClearCube(const BinnedMatrix& matrix, Range fb, Range bins,
               bool full_bins, Cell* hist) {
  if (full_bins) {
    std::fill(hist + matrix.BinOffset(fb.first),
              hist + matrix.BinOffset(fb.second), Cell{});
    return;
  }
  for (uint32_t f = fb.first; f < fb.second; ++f) {
    const uint32_t num_bins = matrix.NumBins(f);
    if (bins.first >= num_bins) continue;
    Cell* feature = hist + matrix.BinOffset(f);
    std::fill(feature + bins.first,
              feature + std::min(bins.second, num_bins), Cell{});
  }
}

}  // namespace

size_t HistBuilderMP::StageTasks(const BuildContext& ctx,
                                 std::span<const int> nodes) {
  FillFeatureBlocks(ctx.matrix.num_features(), ctx.params.feature_blk_size,
                    &feature_blocks_);
  // Bin ranges only need to cover the bin ids the matrix actually
  // produces; with max_bins < 256 the tail of [0, 256) used to schedule
  // passes that re-read every row and matched nothing.
  FillBinRanges(ctx.params.bin_blk_size, ctx.matrix.MaxBins(), &bin_ranges_);
  const size_t nstep =
      static_cast<size_t>(std::max(1, ctx.params.node_blk_size));
  const size_t cap_before =
      feature_blocks_.capacity() + bin_ranges_.capacity() +
      node_blocks_.capacity() + tasks_.capacity();
  node_blocks_.clear();
  for (size_t begin = 0; begin < nodes.size(); begin += nstep) {
    node_blocks_.push_back(
        nodes.subspan(begin, std::min(nstep, nodes.size() - begin)));
  }

  // Kernel selected once per staging: with a single bin range there is no
  // filtering, and with a single feature block the fb indirection drops
  // out of the inner loop.
  quant_ = ctx.quant;
  simd_ = ctx.simd;
  total_bins_ = ctx.matrix.TotalBins();
  km_ = MakeHistKernelMatrix(ctx.matrix, ctx.partitioner,
                             quant_ != nullptr ? quant_->packed.data()
                                               : nullptr);
  const bool full_bins = bin_ranges_.size() == 1;
  const bool full_features = feature_blocks_.size() == 1;
  if (quant_ != nullptr) {
    qkernel_ = SelectQuantHistKernel(ctx.partitioner.use_membuf(), full_bins,
                                     full_features, simd_);
  } else {
    kernel_ = SelectHistKernel(ctx.partitioner.use_membuf(), full_bins,
                               full_features, simd_);
  }

  // Task = one <node_blk x feature_blk x bin_blk> cube. Distinct tasks
  // write disjoint regions of the shared histograms, so no replicas and no
  // reduction are needed; the price is one re-read of the node's rows per
  // (feature block, bin range).
  tasks_.clear();
  for (uint32_t nb = 0; nb < node_blocks_.size(); ++nb) {
    for (uint32_t fb = 0; fb < feature_blocks_.size(); ++fb) {
      for (uint32_t bb = 0; bb < bin_ranges_.size(); ++bb) {
        tasks_.push_back(Task{nb, fb, bb});
      }
    }
  }

  // Histogram pointers and row sources resolved up front: Get() takes the
  // pool lock, and resolving inside tasks would serialize them.
  if (hist_of_.size() < nodes.size()) hist_of_.resize(nodes.size());
  if (source_of_.size() < nodes.size()) source_of_.resize(nodes.size());
  if (rows_of_.size() < nodes.size()) rows_of_.resize(nodes.size());
  const size_t pos_needed = static_cast<size_t>(
      nodes.empty() ? 0 : 1 + *std::max_element(nodes.begin(), nodes.end()));
  if (node_pos_.size() < pos_needed) node_pos_.resize(pos_needed);
  for (size_t i = 0; i < nodes.size(); ++i) {
    hist_of_[i] = ctx.hists.Get(nodes[i]);
    source_of_[i] = MakeHistRowSource(ctx.partitioner, nodes[i]);
    rows_of_[i] = ctx.partitioner.NodeSize(nodes[i]);
    node_pos_[static_cast<size_t>(nodes[i])] = i;
  }
  // Quantized mode: cube tasks accumulate into a flat arena of int64
  // cells (one aligned stride per node — cubes of different nodes must
  // not share a cache line) instead of the pool's f64 histograms;
  // DequantizeNode converts when a node's cubes have all drained. Like
  // the pool buffers, the arena is not cleared here: each cube zeroes its
  // own region in RunTask.
  staged_nodes_ = nodes.size();
  if (quant_ != nullptr) {
    qstride_ = AlignedSlotCount<int64_t>(total_bins_);
    const size_t needed = nodes.size() * qstride_;
    if (qhists_.size() < needed) {
      qhists_.resize(needed);
      ++grow_events_;
    }
    if (qhist_of_.size() < nodes.size()) qhist_of_.resize(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      qhist_of_[i] = qhists_.data() + i * qstride_;
    }
  }
  const size_t cap_after =
      feature_blocks_.capacity() + bin_ranges_.capacity() +
      node_blocks_.capacity() + tasks_.capacity();
  if (cap_after != cap_before) ++grow_events_;
  return tasks_.size();
}

void HistBuilderMP::RunTask(const BuildContext& ctx,
                            size_t task_index) const {
  const Task& task = tasks_[task_index];
  const Range fb = feature_blocks_[task.feature_block];
  const Range bins = bin_ranges_[task.bin_range];
  const bool full_bins = bin_ranges_.size() == 1;
  for (int node : node_blocks_[task.node_block]) {
    const size_t pos = node_pos_[static_cast<size_t>(node)];
    if (quant_ != nullptr) {
      ClearCube(ctx.matrix, fb, bins, full_bins, qhist_of_[pos]);
      qkernel_(km_, source_of_[pos], 0, rows_of_[pos], qhist_of_[pos], fb,
               bins);
    } else {
      ClearCube(ctx.matrix, fb, bins, full_bins, hist_of_[pos]);
      kernel_(km_, source_of_[pos], 0, rows_of_[pos], hist_of_[pos], fb,
              bins);
    }
  }
}

void HistBuilderMP::DequantizeNode(int node) const {
  if (quant_ == nullptr) return;
  const size_t pos = node_pos_[static_cast<size_t>(node)];
  DequantizeHistogram(qhist_of_[pos], hist_of_[pos], total_bins_,
                      quant_->scales, static_cast<int>(simd_));
}

std::span<const int> HistBuilderMP::TaskNodes(size_t task_index) const {
  return node_blocks_[tasks_[task_index].node_block];
}

void HistBuilderMP::Build(const BuildContext& ctx,
                          std::span<const int> nodes) {
  const size_t num_tasks = StageTasks(ctx, nodes);
  ctx.pool.ParallelForDynamic(
      static_cast<int64_t>(num_tasks), 1,
      [&](int64_t begin, int64_t end, int) {
        for (int64_t t = begin; t < end; ++t) {
          RunTask(ctx, static_cast<size_t>(t));
        }
      });
  if (quant_ != nullptr) {
    ctx.pool.ParallelForDynamic(
        static_cast<int64_t>(nodes.size()), 1,
        [&](int64_t begin, int64_t end, int) {
          for (int64_t i = begin; i < end; ++i) {
            DequantizeNode(nodes[static_cast<size_t>(i)]);
          }
        });
  }
}

void BuildHistSerial(const BuildContext& ctx, int node_id, GHPair* hist) {
  // ASYNC node tasks never quantize (the tree builder gates it off); they
  // do honour the resolved SIMD level for the f64 kernels.
  HARP_CHECK(ctx.quant == nullptr)
      << "BuildHistSerial has no quantized path";
  const auto feature_blocks = MakeFeatureBlocks(
      ctx.matrix.num_features(), ctx.params.feature_blk_size);
  const HistKernelMatrix km =
      MakeHistKernelMatrix(ctx.matrix, ctx.partitioner);
  const HistKernelFn kernel =
      SelectHistKernel(ctx.partitioner.use_membuf(), /*full_bin_range=*/true,
                       /*full_feature_block=*/feature_blocks.size() == 1,
                       ctx.simd);
  const HistRowSource src = MakeHistRowSource(ctx.partitioner, node_id);
  const uint32_t rows = ctx.partitioner.NodeSize(node_id);
  // The calling node task owns `hist` (unspecified contents from the pool).
  ClearHistogram(hist, ctx.matrix.TotalBins());
  for (const Range& fb : feature_blocks) {
    kernel(km, src, 0, rows, hist, fb, {0u, 256u});
  }
}

}  // namespace harp
