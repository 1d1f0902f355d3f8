// Cross-module integration tests: full pipelines over the Table III shape
// presets, cache round trips feeding training, weak-scaling duplication,
// and profiling-counter sanity used by the benchmark harness.
#include <gtest/gtest.h>

#include <cstdio>

#include "harpgbdt.h"
#include "data/binary_cache.h"
#include "test_util.h"

namespace harp {
namespace {

TEST(Integration, EveryPresetTrainsEndToEnd) {
  struct Case {
    SyntheticSpec spec;
    double min_auc;
  };
  // Tiny scales: this is a pipeline test, not a benchmark.
  const Case cases[] = {
      {SynsetSpec(0.03), 0.70},
      {HiggsSpec(0.03), 0.65},
      {AirlineSpec(0.01), 0.60},
      {CriteoSpec(0.03), 0.90},  // response-encoded feature: easy
      {YfccSpec(0.08), 0.60},
  };
  for (const Case& c : cases) {
    const Dataset train = GenerateSynthetic(c.spec);
    TrainParams p;
    p.num_trees = 10;
    p.tree_size = 4;
    p.grow_policy = GrowPolicy::kTopK;
    p.topk = 8;
    p.mode = ParallelMode::kSYNC;
    p.num_threads = 2;
    GbdtTrainer trainer(p);
    const GbdtModel model = trainer.Train(train);
    const double auc = Auc(train.labels(), model.Predict(train));
    EXPECT_GT(auc, c.min_auc) << c.spec.name;
  }
}

TEST(Integration, CacheRoundtripFeedsIdenticalTraining) {
  const SyntheticSpec spec = HiggsSpec(0.02);
  const Dataset original = GenerateSynthetic(spec);
  const std::string path = "/tmp/harp_integration_cache.bin";
  std::string error;
  ASSERT_TRUE(WriteDatasetCache(path, original, &error)) << error;
  Dataset loaded;
  ASSERT_TRUE(ReadDatasetCache(path, &loaded, &error)) << error;
  std::remove(path.c_str());

  TrainParams p;
  p.num_trees = 3;
  p.tree_size = 4;
  p.num_threads = 2;
  GbdtTrainer trainer(p);
  const GbdtModel a = trainer.Train(original);
  const GbdtModel b = trainer.Train(loaded);
  for (size_t t = 0; t < a.NumTrees(); ++t) {
    EXPECT_TRUE(harp::testing::TreesEqual(a.tree(t), b.tree(t)));
  }
}

TEST(Integration, WeakScalingDuplicationPreservesShape) {
  const Dataset base = GenerateSynthetic(HiggsSpec(0.01));
  Dataset doubled = base.ConcatRows(base);
  Dataset quadrupled = doubled.ConcatRows(doubled);
  EXPECT_EQ(quadrupled.num_rows(), base.num_rows() * 4);
  EXPECT_NEAR(quadrupled.Sparseness(), base.Sparseness(), 1e-9);

  // Duplicated rows double every histogram bin, so the tree shape is
  // unchanged: same splits, same structure.
  TrainParams p;
  p.num_trees = 2;
  p.tree_size = 3;
  p.num_threads = 2;
  GbdtTrainer trainer(p);
  const GbdtModel a = trainer.Train(base);
  const GbdtModel b = trainer.Train(doubled);
  for (size_t t = 0; t < a.NumTrees(); ++t) {
    const auto& ta = a.tree(t);
    const auto& tb = b.tree(t);
    ASSERT_EQ(ta.num_nodes(), tb.num_nodes());
    for (int i = 0; i < ta.num_nodes(); ++i) {
      if (!ta.node(i).IsLeaf()) {
        EXPECT_EQ(ta.node(i).split_feature, tb.node(i).split_feature);
        EXPECT_EQ(ta.node(i).split_bin, tb.node(i).split_bin);
      }
      EXPECT_EQ(tb.node(i).num_rows, 2 * ta.node(i).num_rows);
    }
  }
}

TEST(Integration, CriteoPathologyGrowsDeepLeafwiseTrees) {
  // Section V-F: the response-correlated feature makes leafwise growth
  // keep splitting inside one branch; the tree ends far deeper than the
  // balanced depthwise equivalent.
  const Dataset train = GenerateSynthetic(CriteoSpec(0.05));
  TrainParams p;
  p.num_trees = 1;
  p.tree_size = 6;  // 64 leaves
  p.grow_policy = GrowPolicy::kLeafwise;
  p.num_threads = 2;
  TrainStats leaf_stats;
  GbdtTrainer(p).Train(train, &leaf_stats);

  p.grow_policy = GrowPolicy::kDepthwise;
  TrainStats depth_stats;
  GbdtTrainer(p).Train(train, &depth_stats);

  EXPECT_LE(depth_stats.max_tree_depth, 6);
  EXPECT_GT(leaf_stats.max_tree_depth, 9);
}

TEST(Integration, TopKConvergesLikeLeafwise) {
  // Fig. 8/9's claim at test scale: K=8 reaches an AUC within a small gap
  // of K=1 (strict leafwise) for equal tree counts.
  const Dataset all = GenerateSynthetic(HiggsSpec(0.06));
  const uint32_t train_rows = all.num_rows() * 2 / 3;
  const Dataset train = all.Slice(0, train_rows);
  const Dataset test = all.Slice(train_rows, all.num_rows());

  auto auc_for_k = [&](int k) {
    TrainParams p;
    p.num_trees = 20;
    p.tree_size = 5;
    p.grow_policy = k == 1 ? GrowPolicy::kLeafwise : GrowPolicy::kTopK;
    p.topk = k;
    p.num_threads = 2;
    GbdtTrainer trainer(p);
    const GbdtModel model = trainer.Train(train);
    return Auc(test.labels(), model.Predict(test));
  };
  const double auc_k1 = auc_for_k(1);
  const double auc_k8 = auc_for_k(8);
  const double auc_k32 = auc_for_k(32);
  EXPECT_GT(auc_k8, auc_k1 - 0.02);
  EXPECT_GT(auc_k32, auc_k1 - 0.04);
}

TEST(Integration, ProfilingCountersBehaveAsPaperArgues) {
  // HarpGBDT with node blocks must synchronize far less often than the
  // leaf-by-leaf baseline on the same workload (Section IV-D).
  const Dataset train = GenerateSynthetic(SynsetSpec(0.02));
  ThreadPool pool(2);
  const BinnedMatrix matrix = BinnedMatrix::Build(
      train, QuantileCuts::Compute(train, 256, &pool), &pool);

  TrainParams harp_params;
  harp_params.num_trees = 2;
  harp_params.tree_size = 6;
  harp_params.grow_policy = GrowPolicy::kTopK;
  harp_params.topk = 32;
  harp_params.node_blk_size = 16;
  harp_params.feature_blk_size = 16;
  harp_params.mode = ParallelMode::kDP;
  harp_params.num_threads = 2;
  TrainStats harp_stats;
  GbdtTrainer(harp_params).TrainBinned(matrix, train.labels(), &harp_stats);

  TrainParams xgb_params;
  xgb_params.num_trees = 2;
  xgb_params.tree_size = 6;
  xgb_params.grow_policy = GrowPolicy::kLeafwise;
  xgb_params.num_threads = 2;
  TrainStats xgb_stats;
  baselines::XgbHistTrainer(xgb_params)
      .TrainBinned(matrix, train.labels(), &xgb_stats);

  EXPECT_LT(harp_stats.sync.parallel_regions,
            xgb_stats.sync.parallel_regions / 2);
}

TEST(Integration, GrowRegionsArePerBatchAndPerAsyncTree) {
  const Dataset train = GenerateSynthetic(HiggsSpec(0.03));
  TrainParams p;
  p.num_trees = 2;
  p.tree_size = 7;
  p.grow_policy = GrowPolicy::kTopK;
  p.topk = 16;
  p.num_threads = 4;

  auto grow = [&](ParallelMode mode) {
    TrainParams q = p;
    q.mode = mode;
    TrainStats stats;
    GbdtTrainer(q).Train(train, &stats);
    return stats;
  };
  // SYNC: every TopK batch is one region launch, nothing else launches a
  // region while the tree grows.
  const TrainStats sync = grow(ParallelMode::kSYNC);
  ASSERT_GT(sync.topk_batches, 0);
  EXPECT_EQ(sync.grow_region_launches, sync.topk_batches);
  // ASYNC: its DP ramp-up batches run the same step (one region each),
  // then one node-parallel region per tree (at most one; this config
  // leaves every tree enough candidates to reach that phase).
  const TrainStats async = grow(ParallelMode::kASYNC);
  ASSERT_GT(async.topk_batches, 0);
  EXPECT_EQ(async.grow_region_launches, async.topk_batches + async.trees);
}

}  // namespace
}  // namespace harp
