// Properties of HarpTreeBuilder across the full configuration space:
// DP / MP / SYNC must build IDENTICAL trees regardless of block sizes,
// thread count, MemBuf or the subtraction trick; ASYNC must build valid
// trees of the right size. Budgets and depth limits are enforced.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/gbdt.h"
#include "core/model_io.h"
#include "core/tree_builder.h"
#include "test_util.h"

namespace harp {
namespace {

using harp::testing::MakeDataset;
using harp::testing::MakeGradients;
using harp::testing::TreesEqual;

struct Env {
  Dataset ds;
  BinnedMatrix matrix;
  std::vector<GradientPair> gh;
};

Env MakeEnv(uint32_t rows = 1500, uint32_t features = 9, uint64_t seed = 7) {
  Dataset ds = MakeDataset(rows, features, 0.85, seed, /*distinct=*/24);
  BinnedMatrix matrix = BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 24));
  auto gh = MakeGradients(rows, seed + 1);
  return Env{std::move(ds), std::move(matrix), std::move(gh)};
}

RegTree BuildWith(const Env& env, TrainParams params, int threads,
                  TrainStats* stats = nullptr) {
  params.num_threads = threads;
  ThreadPool pool(threads);
  HarpTreeBuilder builder(env.matrix, params, pool);
  TrainStats local;
  return builder.BuildTree(env.gh, stats != nullptr ? stats : &local);
}

TrainParams BaseParams(GrowPolicy policy, int tree_size = 5) {
  TrainParams p;
  p.grow_policy = policy;
  p.tree_size = tree_size;
  p.topk = 4;
  p.min_split_loss = 0.0;
  p.min_child_weight = 0.1;
  return p;
}

// ---------- mode/config equivalence sweep ----------

struct ConfigCase {
  ParallelMode mode;
  int feature_blk;
  int node_blk;
  int bin_blk;
  bool membuf;
  bool subtraction;
  int threads;
  int tree_size = 5;  // reference and actual tree both use it
};

std::string ConfigName(const ::testing::TestParamInfo<ConfigCase>& info) {
  const ConfigCase& c = info.param;
  std::string n = ToString(c.mode);
  n += "_f" + std::to_string(c.feature_blk) + "_n" +
       std::to_string(c.node_blk) + "_b" + std::to_string(c.bin_blk);
  n += c.membuf ? "_mb" : "_ga";
  n += c.subtraction ? "_sub" : "_dir";
  n += "_t" + std::to_string(c.threads);
  if (c.tree_size != 5) n += "_d" + std::to_string(c.tree_size);
  return n;
}

class DeterministicModes : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(DeterministicModes, SameTreeAsSerialReference) {
  const Env env = MakeEnv();
  const ConfigCase& c = GetParam();
  for (GrowPolicy policy :
       {GrowPolicy::kDepthwise, GrowPolicy::kLeafwise, GrowPolicy::kTopK}) {
    // Reference: serial DP, no blocks, no tricks.
    TrainParams ref = BaseParams(policy, c.tree_size);
    ref.mode = ParallelMode::kDP;
    ref.use_hist_subtraction = false;
    const RegTree expected = BuildWith(env, ref, 1);
    ASSERT_TRUE(expected.CheckValid());
    ASSERT_GT(expected.NumLeaves(), 2);

    TrainParams p = BaseParams(policy, c.tree_size);
    p.mode = c.mode;
    p.feature_blk_size = c.feature_blk;
    p.node_blk_size = c.node_blk;
    p.bin_blk_size = c.bin_blk;
    p.use_membuf = c.membuf;
    p.use_hist_subtraction = c.subtraction;
    const RegTree actual = BuildWith(env, p, c.threads);
    EXPECT_TRUE(TreesEqual(expected, actual))
        << "policy " << ToString(policy) << " config differs from reference";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeterministicModes,
    ::testing::Values(
        ConfigCase{ParallelMode::kDP, 0, 1, 256, true, false, 4},
        ConfigCase{ParallelMode::kDP, 3, 2, 256, true, false, 4},
        ConfigCase{ParallelMode::kDP, 2, 4, 256, false, false, 2},
        ConfigCase{ParallelMode::kDP, 0, 1, 256, true, true, 4},
        ConfigCase{ParallelMode::kMP, 1, 1, 256, true, false, 4},
        ConfigCase{ParallelMode::kMP, 4, 2, 256, true, false, 3},
        ConfigCase{ParallelMode::kMP, 2, 2, 8, false, false, 4},
        ConfigCase{ParallelMode::kMP, 3, 1, 256, true, true, 4},
        ConfigCase{ParallelMode::kSYNC, 2, 2, 256, true, false, 4},
        ConfigCase{ParallelMode::kSYNC, 0, 4, 256, false, true, 3},
        ConfigCase{ParallelMode::kSYNC, 4, 2, 16, true, false, 2},
        // Single-thread MP and SYNC with and without subtraction, at
        // topk 4 / depth 6 with node blocks of 2 and feature blocks of 4:
        // MP's overlap work-graph and SYNC's per-batch DP/MP switch run on
        // one thread too, and must match the reference as well.
        ConfigCase{ParallelMode::kMP, 4, 2, 256, true, false, 1, 6},
        ConfigCase{ParallelMode::kMP, 4, 2, 256, true, true, 1, 6},
        ConfigCase{ParallelMode::kSYNC, 4, 2, 256, true, false, 1, 6},
        ConfigCase{ParallelMode::kSYNC, 4, 2, 256, true, true, 1, 6}),
    ConfigName);

// ---------- subtraction: histogram pool bound ----------

// A split whose parent kept its histogram builds only the smaller child
// and hands the parent's buffer to the larger one; only the next batch's
// parents keep theirs. The pool then never holds more buffers than
// building both children, while fewer rows are scanned. The trees outgrow
// K, so TopK's queue holds more candidates than the next batch.
using PeakCase = std::tuple<ParallelMode, int, GrowPolicy>;

class SubtractionPeak : public ::testing::TestWithParam<PeakCase> {};

TEST_P(SubtractionPeak, NoMoreBuffersThanBuildBothAndFewerUpdates) {
  const Env env = MakeEnv(6000, 9, 71);
  const auto [mode, threads, policy] = GetParam();
  TrainParams p = BaseParams(policy, 8);
  p.topk = 32;
  p.mode = mode;
  p.use_hist_subtraction = false;
  TrainStats both;
  const RegTree both_tree = BuildWith(env, p, threads, &both);
  p.use_hist_subtraction = true;
  TrainStats sub;
  const RegTree sub_tree = BuildWith(env, p, threads, &sub);
  ASSERT_TRUE(sub_tree.CheckValid());
  ASSERT_GT(both_tree.NumLeaves(), 2 * p.topk);
  EXPECT_LE(sub.hist_peak_bytes, both.hist_peak_bytes);
  EXPECT_LT(sub.hist_updates, both.hist_updates);
}

INSTANTIATE_TEST_SUITE_P(
    ModesThreadsPolicies, SubtractionPeak,
    ::testing::Combine(::testing::Values(ParallelMode::kDP, ParallelMode::kMP,
                                         ParallelMode::kSYNC),
                       ::testing::Values(1, 4),
                       ::testing::Values(GrowPolicy::kTopK,
                                         GrowPolicy::kLeafwise,
                                         GrowPolicy::kDepthwise)),
    [](const ::testing::TestParamInfo<PeakCase>& info) {
      return ToString(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_" +
             ToString(std::get<2>(info.param));
    });

// Depthwise pops a whole level per batch, whatever K, so K must not change
// the work either: every parent of the next level keeps its histogram and
// builds only its smaller child.
TEST(TreeBuilder, DepthwiseRetentionKeepsTheWholeLevel) {
  const Env env = MakeEnv(6000, 9, 71);
  TrainParams p = BaseParams(GrowPolicy::kDepthwise, 6);
  p.num_trees = 3;
  p.num_threads = 2;
  std::string models[2];
  TrainStats stats[2];
  const int ks[2] = {4, 64};
  for (int i = 0; i < 2; ++i) {
    p.topk = ks[i];
    models[i] = SerializeModel(GbdtTrainer(p).Train(env.ds, &stats[i]));
  }
  EXPECT_EQ(models[0], models[1]);
  EXPECT_EQ(stats[0].hist_updates, stats[1].hist_updates);
  EXPECT_GT(stats[0].nodes_split, p.num_trees * 2 * ks[0]);
}

// ---------- ASYNC ----------

class AsyncThreads : public ::testing::TestWithParam<int> {};

TEST_P(AsyncThreads, BuildsValidTreeOfExpectedSize) {
  const Env env = MakeEnv(2500, 8, 23);
  TrainParams p = BaseParams(GrowPolicy::kTopK, 5);
  p.mode = ParallelMode::kASYNC;
  p.topk = 8;
  TrainStats stats;
  const RegTree tree = BuildWith(env, p, GetParam(), &stats);
  EXPECT_TRUE(tree.CheckValid());
  EXPECT_LE(tree.NumLeaves(), 32);
  EXPECT_GT(tree.NumLeaves(), 4);
  // Leaf row counts cover the dataset.
  uint32_t covered = 0;
  for (const TreeNode& n : tree.nodes()) {
    if (n.IsLeaf()) covered += n.num_rows;
  }
  EXPECT_EQ(covered, env.ds.num_rows());
}

INSTANTIATE_TEST_SUITE_P(Threads, AsyncThreads, ::testing::Values(1, 2, 4));

TEST(Async, SingleThreadMatchesLeafwiseReference) {
  // With one worker the greedy pop order is exactly leafwise top-1, so the
  // ASYNC tree must equal the deterministic leafwise tree.
  const Env env = MakeEnv(1200, 7, 31);
  TrainParams ref = BaseParams(GrowPolicy::kLeafwise, 4);
  ref.mode = ParallelMode::kDP;
  const RegTree expected = BuildWith(env, ref, 1);

  TrainParams p = BaseParams(GrowPolicy::kLeafwise, 4);
  p.mode = ParallelMode::kASYNC;
  const RegTree actual = BuildWith(env, p, 1);
  EXPECT_TRUE(TreesEqual(expected, actual));
}

// ASYNC subtracts by default in its DP ramp-up and releases what that phase
// retained at the handoff, since node tasks build both children. With one
// thread there is no ramp-up: the root's histogram is the only one retained,
// and afterwards the pool holds just the two children of one node task, as
// the build-both run does. With T threads the ramp-up splits fewer than T
// parents per batch and each node task holds two buffers, so the pool never
// exceeds 2T buffers (the async phase's schedule, and so its exact peak,
// varies from run to run).
TEST(Async, DefaultSubtractionReleasesRetainedAtHandoff) {
  const Env env = MakeEnv(6000, 9, 73);
  const size_t hist_bytes = env.matrix.TotalBins() * sizeof(GHPair);
  for (const int threads : {1, 4}) {
    TrainParams p = BaseParams(GrowPolicy::kTopK, 6);
    p.mode = ParallelMode::kASYNC;
    p.topk = 8;
    ASSERT_TRUE(p.use_hist_subtraction);
    TrainStats sub;
    const RegTree tree = BuildWith(env, p, threads, &sub);
    EXPECT_TRUE(tree.CheckValid());
    EXPECT_GT(tree.NumLeaves(), 8);
    EXPECT_LE(sub.hist_peak_bytes,
              2 * static_cast<size_t>(threads) * hist_bytes)
        << "threads=" << threads;
    if (threads == 1) {
      p.use_hist_subtraction = false;
      TrainStats both;
      BuildWith(env, p, threads, &both);
      EXPECT_EQ(both.hist_peak_bytes, 2 * hist_bytes);
      EXPECT_LE(sub.hist_peak_bytes, both.hist_peak_bytes);
    }
  }
}

TEST(Async, RecordsSpinLockActivity) {
  const Env env = MakeEnv(3000, 8, 37);
  TrainParams p = BaseParams(GrowPolicy::kTopK, 6);
  p.mode = ParallelMode::kASYNC;
  p.num_threads = 4;
  ThreadPool pool(4);
  HarpTreeBuilder builder(env.matrix, p, pool);
  TrainStats stats;
  builder.BuildTree(env.gh, &stats);
  EXPECT_GT(pool.Snapshot().spin_acquires, 0);
}

// ---------- budgets and limits ----------

TEST(TreeBuilder, LeafBudgetRespectedAllModes) {
  const Env env = MakeEnv(2000, 8, 41);
  for (ParallelMode mode : {ParallelMode::kDP, ParallelMode::kMP,
                            ParallelMode::kSYNC, ParallelMode::kASYNC}) {
    TrainParams p = BaseParams(GrowPolicy::kTopK, 3);  // <= 8 leaves
    p.mode = mode;
    const RegTree tree = BuildWith(env, p, 4);
    EXPECT_LE(tree.NumLeaves(), 8) << ToString(mode);
    EXPECT_TRUE(tree.CheckValid());
  }
}

TEST(TreeBuilder, DepthwiseRespectsDepthLimit) {
  const Env env = MakeEnv(2000, 8, 43);
  TrainParams p = BaseParams(GrowPolicy::kDepthwise, 3);
  const RegTree tree = BuildWith(env, p, 2);
  EXPECT_LE(tree.MaxDepth(), 3);
  EXPECT_LE(tree.NumLeaves(), 8);
}

TEST(TreeBuilder, LeafwiseCanGrowDeeperThanDepthwise) {
  const Env env = MakeEnv(2000, 8, 47);
  TrainParams depth = BaseParams(GrowPolicy::kDepthwise, 3);
  TrainParams leaf = BaseParams(GrowPolicy::kLeafwise, 3);
  const RegTree a = BuildWith(env, depth, 2);
  const RegTree b = BuildWith(env, leaf, 2);
  EXPECT_LE(a.MaxDepth(), 3);
  // Leafwise uses the same leaf budget but no depth cap; on this data the
  // gain-greedy tree is deeper.
  EXPECT_GE(b.MaxDepth(), a.MaxDepth());
}

TEST(TreeBuilder, NodeSumsConsistentParentChildren) {
  const Env env = MakeEnv(1000, 6, 53);
  TrainParams p = BaseParams(GrowPolicy::kTopK, 4);
  const RegTree tree = BuildWith(env, p, 2);
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode& n = tree.node(i);
    if (n.IsLeaf()) continue;
    const TreeNode& l = tree.node(n.left);
    const TreeNode& r = tree.node(n.right);
    EXPECT_NEAR(l.sum.g + r.sum.g, n.sum.g, 1e-6);
    EXPECT_NEAR(l.sum.h + r.sum.h, n.sum.h, 1e-6);
    EXPECT_EQ(l.num_rows + r.num_rows, n.num_rows);
  }
}

TEST(TreeBuilder, LeafValuesMatchEvaluatorFormula) {
  const Env env = MakeEnv(800, 5, 59);
  TrainParams p = BaseParams(GrowPolicy::kLeafwise, 4);
  const RegTree tree = BuildWith(env, p, 2);
  const SplitEvaluator eval(p);
  for (const TreeNode& n : tree.nodes()) {
    if (!n.IsLeaf()) continue;
    EXPECT_DOUBLE_EQ(n.leaf_value, eval.LeafValue(n.sum));
  }
}

TEST(TreeBuilder, GainNeverBelowGamma) {
  const Env env = MakeEnv(900, 6, 61);
  TrainParams p = BaseParams(GrowPolicy::kTopK, 5);
  p.min_split_loss = 0.4;
  const RegTree tree = BuildWith(env, p, 2);
  for (const TreeNode& n : tree.nodes()) {
    if (!n.IsLeaf()) {
      EXPECT_GT(n.gain, 0.0);
    }
  }
}

TEST(TreeBuilder, StatsArePopulated) {
  const Env env = MakeEnv(1000, 6, 67);
  TrainParams p = BaseParams(GrowPolicy::kTopK, 4);
  TrainStats stats;
  const RegTree tree = BuildWith(env, p, 2, &stats);
  EXPECT_GT(stats.build_hist_ns, 0);
  EXPECT_GT(stats.find_split_ns, 0);
  EXPECT_GT(stats.hist_updates, 0);
  EXPECT_EQ(stats.leaves, tree.NumLeaves());
  EXPECT_EQ(stats.nodes_split, tree.NumLeaves() - 1);
  EXPECT_GT(stats.hist_peak_bytes, 0u);
}

}  // namespace
}  // namespace harp
