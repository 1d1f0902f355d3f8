#include "distributed/dist_gbdt.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "common/timer.h"
#include "core/grow_policy.h"
#include "core/hist_builder.h"
#include "core/histogram.h"
#include "core/objective.h"
#include "core/quantize.h"
#include "core/row_partitioner.h"
#include "core/simd.h"
#include "core/split_evaluator.h"

namespace harp {
namespace {

// One worker's tree builder, driven by the shared boosting loop
// (RunBoosting). Determinism argument: every worker sees identical global
// histograms (rank-ordered reduction — and the sparse/quantized encodings
// are exact, see sparse_hist.h), identical node sums, and runs the
// identical FindSplit / queue logic, so trees, margins-per-shard and
// models evolve in lockstep without any decision broadcast. Which
// histograms are built, exchanged, derived or kept is decided from that
// shared state only (global row counts, the queue), so every rank
// exchanges the same nodes.
class ShardWorker final : public TreeBuilderBase {
 public:
  ShardWorker(Communicator& comm, const BinnedMatrix& matrix,
              const TrainParams& params, ThreadPool& pool)
      : comm_(comm),
        params_(params),
        matrix_(matrix),
        evaluator_(params),
        hists_(matrix_.TotalBins()),
        partitioner_(matrix_.num_rows(), params.use_membuf),
        pool_(pool),
        use_quant_(params.quantize_hist),
        sparse_(params.comm_compress == "sparse"),
        simd_level_(ResolveSimdLevel(params.simd)) {}

  // Leaf scatter on the local shard.
  void UpdateMargins(const RegTree& tree,
                     std::vector<double>* margins) override {
    ScatterLeafValues(tree, partitioner_, pool_, margins);
  }

 private:
  BuildContext Context() {
    return BuildContext{matrix_,       params_,
                        pool_,         partitioner_,
                        hists_,        use_quant_ ? &quant_round_ : nullptr,
                        simd_level_};
  }

  // Agrees on this round's quantization scales: maxima via AllreduceMax
  // (order-independent), sums and the row count via the rank-ordered f64
  // allreduce — every rank derives IDENTICAL scales from the agreed
  // totals, which the exact int64 wire encoding depends on.
  void AgreeQuantScales(const std::vector<GradientPair>& gradients) {
    const QuantStats local = ComputeQuantStats(gradients, &pool_);
    double maxima[2] = {local.g_max, local.h_max};
    comm_.AllreduceMax(maxima, 2);
    double sums[3] = {local.g_sum, local.h_sum, local.rows};
    comm_.AllreduceSum(sums, 3);
    QuantStats global;
    global.g_max = maxima[0];
    global.h_max = maxima[1];
    global.g_sum = sums[0];
    global.h_sum = sums[1];
    global.rows = sums[2];
    quant_round_.scales = QuantScalesFromStats(global);
    QuantizeGradients(gradients, quant_round_.scales,
                      params_.quant_stochastic,
                      params_.seed + static_cast<uint64_t>(rounds_),
                      static_cast<int>(simd_level_), &pool_,
                      &quant_round_.packed);
  }

  // Builds global histograms for `nodes`: threaded local build on the DP
  // kernel layer (per-thread replicas, touched-region reduce), then one
  // histogram exchange.
  void BuildGlobalHists(const std::vector<int>& nodes) {
    for (const int node : nodes) hists_.Acquire(node);
    const BuildContext ctx = Context();
    dp_.Build(ctx, nodes);

    hist_ptrs_.clear();
    for (const int node : nodes) hist_ptrs_.push_back(hists_.Get(node));
    Communicator::HistExchangeOpts opts;
    opts.sparse = sparse_;
    opts.quant = use_quant_;
    opts.scales = quant_round_.scales;
    comm_.AllreduceHistograms(hist_ptrs_.data(),
                              static_cast<uint32_t>(nodes.size()),
                              static_cast<uint32_t>(matrix_.TotalBins()),
                              opts);
  }

  // Global histograms of every child of `batch`. A pair whose parent kept
  // its global histogram builds and exchanges only its smaller child, and
  // every rank derives the larger one as parent - smaller in the parent's
  // buffer; any other pair builds both children. The smaller child is
  // chosen by GLOBAL row counts, which every rank holds identically:
  // picking by local counts would make ranks exchange different nodes.
  void BuildChildHists(const std::vector<Candidate>& batch,
                       const std::vector<int>& children,
                       const std::vector<int64_t>& child_rows) {
    build_.clear();
    derived_.clear();
    for (size_t i = 0; i < batch.size(); ++i) {
      const int left = children[2 * i];
      const int right = children[2 * i + 1];
      if (!hists_.Has(batch[i].node_id)) {
        build_.push_back(left);
        build_.push_back(right);
        continue;
      }
      const bool left_smaller = child_rows[2 * i] <= child_rows[2 * i + 1];
      const int small = left_smaller ? left : right;
      build_.push_back(small);
      derived_.push_back(
          Derived{batch[i].node_id, left_smaller ? right : left, small});
    }
    BuildGlobalHists(build_);
    for (const Derived& d : derived_) hists_.Transfer(d.parent, d.large);
    const size_t total_bins = matrix_.TotalBins();
    pool_.ParallelForDynamic(
        static_cast<int64_t>(derived_.size()), 1,
        [&](int64_t begin, int64_t end, int) {
          for (int64_t i = begin; i < end; ++i) {
            const Derived& d = derived_[static_cast<size_t>(i)];
            SubtractHistogramInPlace(hists_.Get(d.large), hists_.Get(d.small),
                                     total_bins);
          }
        });
  }

  Candidate FindSplitFor(int node_id, int depth, const GHPair& sum,
                         const GHPair* hist) {
    Candidate cand;
    cand.node_id = node_id;
    cand.depth = depth;
    cand.split = evaluator_.FindBestSplit(matrix_, hist, sum, 0,
                                          matrix_.num_features());
    return cand;
  }

  RegTree BuildTree(const std::vector<GradientPair>& gradients,
                    TrainStats* /*stats*/) override {
    const int64_t max_leaves = params_.MaxLeaves();
    const int max_depth = params_.MaxDepth();
    const int max_nodes = static_cast<int>(2 * max_leaves);
    partitioner_.Reset(gradients, max_nodes, &pool_);
    hists_.ReleaseAll();
    if (use_quant_) AgreeQuantScales(gradients);

    RegTree tree;
    tree.mutable_nodes().reserve(static_cast<size_t>(max_nodes));
    // Global root sum.
    GHPair root_sum = partitioner_.NodeSum(0, &pool_);
    comm_.AllreduceSum(&root_sum, 1);
    int64_t global_rows = partitioner_.num_rows();
    comm_.AllreduceSum(&global_rows, 1);
    tree.mutable_node(0).sum = root_sum;
    tree.mutable_node(0).num_rows = static_cast<uint32_t>(global_rows);

    GrowQueue queue(params_.grow_policy);
    int64_t leaves = 1;
    {
      BuildGlobalHists({0});
      const Candidate root = FindSplitFor(0, 0, root_sum, hists_.Get(0));
      if (root.split.IsValid() && max_leaves > 1 && max_depth > 0) {
        queue.Push(root);
      } else {
        hists_.Release(0);
      }
    }

    while (!queue.Empty() && leaves < max_leaves) {
      // Every rank holds the same queue, so all agree on which parents
      // keep their global histograms.
      RetainNextParents(queue, params_, max_leaves - leaves, &queued_,
                        &hists_);
      const std::vector<Candidate> batch = queue.PopBatch(
          params_.EffectiveTopK(),
          static_cast<int>(std::min<int64_t>(max_leaves - leaves, 1 << 20)));
      if (batch.empty()) break;

      // Apply splits on the local shard; gather children and their GLOBAL
      // row counts (one int64 allreduce for the batch).
      std::vector<int> children;
      std::vector<int64_t> child_rows;
      for (const Candidate& cand : batch) {
        const float cut =
            matrix_.cuts().CutFor(cand.split.feature, cand.split.bin);
        const auto [left, right] =
            tree.ApplySplit(cand.node_id, cand.split, cut);
        partitioner_.ApplySplit(cand.node_id, left, right, matrix_,
                                cand.split.feature, cand.split.bin,
                                cand.split.default_left);
        children.push_back(left);
        children.push_back(right);
        child_rows.push_back(partitioner_.NodeSize(left));
        child_rows.push_back(partitioner_.NodeSize(right));
      }
      comm_.AllreduceSum(child_rows.data(), child_rows.size());
      for (size_t i = 0; i < children.size(); ++i) {
        tree.mutable_node(children[i]).num_rows =
            static_cast<uint32_t>(child_rows[i]);
      }
      leaves += static_cast<int64_t>(batch.size());

      BuildChildHists(batch, children, child_rows);
      for (const int child : children) {
        const Candidate cand = FindSplitFor(child, tree.node(child).depth,
                                            tree.node(child).sum,
                                            hists_.Get(child));
        if (cand.split.IsValid() && cand.depth < max_depth) {
          queue.Push(cand);
        } else {
          hists_.Release(child);
        }
      }
    }

    for (int id = 0; id < tree.num_nodes(); ++id) {
      TreeNode& node = tree.mutable_node(id);
      if (node.IsLeaf()) node.leaf_value = evaluator_.LeafValue(node.sum);
    }
    ++rounds_;
    return tree;
  }

  Communicator& comm_;
  const TrainParams& params_;
  const BinnedMatrix& matrix_;
  SplitEvaluator evaluator_;
  HistogramPool hists_;
  RowPartitioner partitioner_;
  ThreadPool& pool_;
  HistBuilderDP dp_;
  const bool use_quant_;
  const bool sparse_;
  const SimdLevel simd_level_;
  QuantRound quant_round_;
  std::vector<GHPair*> hist_ptrs_;
  struct Derived {
    int parent;
    int large;
    int small;
  };
  std::vector<int> build_;
  std::vector<Derived> derived_;
  std::vector<Candidate> queued_;
  int64_t rounds_ = 0;  // trees built (stochastic-rounding seed)
};

// Contiguous shard boundaries: rank r owns rows [rows*r/W, rows*(r+1)/W).
std::pair<uint32_t, uint32_t> ShardRange(uint32_t rows, int rank, int world) {
  const uint32_t begin =
      static_cast<uint32_t>(static_cast<uint64_t>(rows) * rank / world);
  const uint32_t end =
      static_cast<uint32_t>(static_cast<uint64_t>(rows) * (rank + 1) / world);
  return {begin, end};
}

// The sharded loop has no row/column sampling and no query groups (shards
// are contiguous row ranges that may cut a query). Reject those settings
// loudly instead of silently training a different model.
void CheckSupported(const TrainParams& params) {
  HARP_CHECK(params.subsample >= 1.0)
      << "distributed training does not support subsample < 1 (got "
      << params.subsample << ")";
  HARP_CHECK(params.colsample_bytree >= 1.0)
      << "distributed training does not support colsample_bytree < 1 (got "
      << params.colsample_bytree << ")";
  HARP_CHECK(
      !Objective::Create(Objective::ConfigFromParams(params))->NeedsGroups())
      << "distributed training does not support objective '"
      << ToString(params.objective) << "', which needs query groups";
}

// One rank's training: bins its shard with the global cuts and runs the
// shared boosting loop with a ShardWorker as the tree builder.
GbdtModel TrainOnShard(Communicator& comm, const Dataset& shard,
                       const QuantileCuts& cuts, const TrainParams& params,
                       int worker_threads) {
  const BinnedMatrix matrix = BinnedMatrix::Build(shard, cuts);
  ThreadPool pool(std::max(1, worker_threads));
  ShardWorker worker(comm, matrix, params, pool);
  return RunBoosting(matrix, shard.labels(), params, pool, worker);
}

}  // namespace

GbdtModel DistributedGbdt::TrainShard(const Dataset& dataset,
                                      Communicator& comm,
                                      const TrainParams& params,
                                      int worker_threads) {
  params.Validate();
  CheckSupported(params);
  const int world = comm.world_size();
  HARP_CHECK_LE(static_cast<uint32_t>(world), dataset.num_rows());

  // Global quantile cuts, computed identically in every process (a real
  // deployment would merge distributed sketches; see GkSketch::Merge).
  const QuantileCuts cuts = QuantileCuts::Compute(dataset, params.max_bins);
  const auto [begin, end] = ShardRange(dataset.num_rows(), comm.rank(), world);
  const Dataset shard = dataset.Slice(begin, end);
  return TrainOnShard(comm, shard, cuts, params, worker_threads);
}

DistributedResult DistributedGbdt::Train(const Dataset& dataset, int workers,
                                         const TrainParams& params,
                                         int worker_threads) {
  params.Validate();
  CheckSupported(params);
  HARP_CHECK_GE(workers, 1);
  HARP_CHECK_LE(static_cast<uint32_t>(workers), dataset.num_rows());

  const QuantileCuts cuts = QuantileCuts::Compute(dataset, params.max_bins);
  std::vector<Dataset> shards;
  shards.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    const auto [begin, end] = ShardRange(dataset.num_rows(), w, workers);
    shards.push_back(dataset.Slice(begin, end));
  }

  DistributedResult result;
  result.workers = workers;
  std::vector<GbdtModel> models(static_cast<size_t>(workers));
  std::vector<CommStats> per_rank(static_cast<size_t>(workers));

  const Stopwatch watch;
  SimulatedCluster cluster(workers);
  cluster.Run([&](Communicator& comm) {
    models[static_cast<size_t>(comm.rank())] =
        TrainOnShard(comm, shards[static_cast<size_t>(comm.rank())], cuts,
                     params, worker_threads);
    per_rank[static_cast<size_t>(comm.rank())] = comm.stats();
  });
  result.seconds = watch.ElapsedSec();
  result.comm = cluster.TotalStats();
  result.per_rank = std::move(per_rank);
  result.model = std::move(models[0]);
  return result;
}

}  // namespace harp
