// Histogram tests: pool lifecycle, subtraction, and the central property
// sweep — DP and MP block-wise builders (f64 and quantized) must reproduce
// a naive serial reference histogram for EVERY block configuration, thread
// count and MemBuf setting, writing every slot of a pool buffer whose
// previous contents are garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "core/hist_builder.h"
#include "core/simd.h"
#include "test_util.h"

namespace harp {
namespace {

using harp::testing::MakeDataset;
using harp::testing::MakeGradients;
using harp::testing::NaiveHist;

// Acquire, fill with NaN, release, re-acquire: every node in `nodes` then
// owns a recycled buffer whose contents are all NaN. Acquire promises
// nothing about contents, so a builder that skips any slot shows up as a
// NaN in that slot.
void AcquirePoisoned(HistogramPool& pool, const std::vector<int>& nodes) {
  const GHPair nan{std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::quiet_NaN()};
  for (int node : nodes) {
    GHPair* h = pool.Acquire(node);
    std::fill(h, h + pool.total_bins(), nan);
  }
  for (int node : nodes) pool.Release(node);
  for (int node : nodes) pool.Acquire(node);
}

// ---------- HistogramPool ----------

TEST(HistogramPool, TracksPeak) {
  HistogramPool pool(4);
  pool.Acquire(1);
  pool.Acquire(2);
  pool.Acquire(3);
  pool.Release(2);
  pool.Acquire(4);
  EXPECT_EQ(pool.PeakBytes(), 3 * 4 * sizeof(GHPair));
  pool.ReleaseAll();
  EXPECT_FALSE(pool.Has(1));
  // Peak persists after release.
  EXPECT_EQ(pool.PeakBytes(), 3 * 4 * sizeof(GHPair));
}

TEST(HistogramPool, HasAndGet) {
  HistogramPool pool(2);
  EXPECT_FALSE(pool.Has(5));
  GHPair* h = pool.Acquire(5);
  EXPECT_TRUE(pool.Has(5));
  EXPECT_EQ(pool.Get(5), h);
  pool.Release(5);
  EXPECT_FALSE(pool.Has(5));
}

TEST(HistogramPoolDeath, DoubleAcquireAndMissingGet) {
  HistogramPool pool(2);
  pool.Acquire(1);
  EXPECT_DEATH(pool.Acquire(1), "already owns");
  EXPECT_DEATH(pool.Get(9), "no histogram");
  EXPECT_DEATH(pool.Release(9), "no histogram");
}

TEST(HistogramPool, TransferKeepsBufferAndContents) {
  HistogramPool pool(2);
  GHPair* h = pool.Acquire(3);
  h[1] = GHPair{4.0, 2.0};
  EXPECT_EQ(pool.Transfer(3, 8), h);
  EXPECT_FALSE(pool.Has(3));
  EXPECT_EQ(pool.Get(8)[1], (GHPair{4.0, 2.0}));
  EXPECT_EQ(pool.PeakBytes(), 2 * sizeof(GHPair));
}

TEST(HistogramPoolDeath, TransferNeedsSourceAndFreeTarget) {
  HistogramPool pool(2);
  pool.Acquire(1);
  pool.Acquire(2);
  EXPECT_DEATH(pool.Transfer(9, 3), "no histogram");
  EXPECT_DEATH(pool.Transfer(1, 2), "already owns");
}

TEST(HistogramPool, ConcurrentAcquireRelease) {
  HistogramPool pool(16);
  ThreadPool threads(4);
  threads.ParallelForDynamic(200, 1, [&](int64_t b, int64_t e, int) {
    for (int64_t i = b; i < e; ++i) {
      GHPair* h = pool.Acquire(static_cast<int>(i));
      h[0] = GHPair{static_cast<double>(i), 1.0};
      EXPECT_EQ(pool.Get(static_cast<int>(i))[0].g, static_cast<double>(i));
      pool.Release(static_cast<int>(i));
    }
  });
}

// ---------- kernels ----------

TEST(HistogramKernels, AddAndSubtract) {
  std::vector<GHPair> parent{{5, 5}, {3, 1}, {0, 0}};
  std::vector<GHPair> small{{2, 1}, {1, 1}, {0, 0}};
  std::vector<GHPair> large = parent;
  SubtractHistogramInPlace(large.data(), small.data(), 3);
  EXPECT_EQ(large[0], (GHPair{3, 4}));
  EXPECT_EQ(large[1], (GHPair{2, 0}));
  EXPECT_EQ(large[2], GHPair{});
  AddHistogram(large.data(), small.data(), 3);
  EXPECT_EQ(large[0], (GHPair{5, 5}));
  ClearHistogram(large.data(), 3);
  EXPECT_EQ(large[2], GHPair{});
  EXPECT_EQ(large[0], GHPair{});
}

TEST(HistogramKernels, SumFeature) {
  std::vector<GHPair> hist{{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  const GHPair sum = SumHistogramFeature(hist.data(), 1, 2);
  EXPECT_EQ(sum, (GHPair{5, 5}));
}

// ---------- builder property sweep ----------

struct BuilderCase {
  bool use_mp;       // MP builder (else DP)
  int feature_blk;   // 0 = all
  int node_blk;
  int bin_blk;       // 256 = disabled (DP ignores)
  bool membuf;
  int threads;
  bool quant = false;  // int64 accumulation (QuantRound in the context)
};

std::string CaseName(const ::testing::TestParamInfo<BuilderCase>& info) {
  const BuilderCase& c = info.param;
  std::string name = c.use_mp ? "MP" : "DP";
  name += "_f" + std::to_string(c.feature_blk);
  name += "_n" + std::to_string(c.node_blk);
  name += "_b" + std::to_string(c.bin_blk);
  name += c.membuf ? "_membuf" : "_gather";
  name += "_t" + std::to_string(c.threads);
  if (c.quant) name += "_quant";
  return name;
}

class HistBuilderSweep : public ::testing::TestWithParam<BuilderCase> {};

TEST_P(HistBuilderSweep, MatchesNaiveReference) {
  const BuilderCase& c = GetParam();

  const uint32_t rows = 700;
  const Dataset ds = MakeDataset(rows, 11, 0.8, 17, /*distinct=*/13);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 18);

  TrainParams params;
  params.feature_blk_size = c.feature_blk;
  params.node_blk_size = c.node_blk;
  params.bin_blk_size = c.bin_blk;
  params.use_membuf = c.membuf;

  ThreadPool pool(c.threads);
  RowPartitioner partitioner(rows, c.membuf);
  partitioner.Reset(gh, /*max_nodes=*/8, &pool);

  // Split the root on feature 0, then split node 1 again on the same
  // condition: every row of node 1 goes left, so node 3 holds them all
  // and node 4 is empty. Nodes 2, 3, 4 are built.
  const uint32_t split_bin =
      std::max(1u, (matrix.NumBins(0) - 1) / 2);
  partitioner.ApplySplit(0, 1, 2, matrix, 0, split_bin,
                         /*default_left=*/false, &pool);
  partitioner.ApplySplit(1, 3, 4, matrix, 0, split_bin,
                         /*default_left=*/false, &pool);
  ASSERT_GT(partitioner.NodeSize(2), 0u);
  ASSERT_GT(partitioner.NodeSize(3), 0u);
  ASSERT_EQ(partitioner.NodeSize(4), 0u);

  // Quantized cases: the builders sum the packed pairs exactly, so the
  // reference is NaiveHist over the dequantized per-row pairs (multiples
  // of a power of two whose sums stay exact in double) and must match
  // bit for bit.
  QuantRound qround;
  std::vector<GradientPair> ref_gh = gh;
  if (c.quant) {
    qround.scales = ComputeQuantScales(gh, nullptr);
    QuantizeGradients(gh, qround.scales, false, 0, 0, nullptr,
                      &qround.packed);
    for (uint32_t r = 0; r < rows; ++r) {
      ref_gh[r].g = static_cast<float>(QuantG(qround.packed[r]) *
                                       qround.scales.g_inv);
      ref_gh[r].h = static_cast<float>(QuantH(qround.packed[r]) *
                                       qround.scales.h_inv);
    }
  }

  HistogramPool hists(matrix.TotalBins());
  const BuildContext ctx{matrix,      params, pool,
                         partitioner, hists,  c.quant ? &qround : nullptr,
                         ResolveSimdLevel(params.simd)};
  const std::vector<int> nodes{2, 3, 4};
  HistBuilderDP dp;
  HistBuilderMP mp;
  // Twice: the second build also runs over the builders' own scratch (DP
  // replicas, MP int64 arena) left dirty by the first.
  for (int iter = 0; iter < 2; ++iter) {
    AcquirePoisoned(hists, nodes);
    if (c.use_mp) {
      mp.Build(ctx, nodes);
    } else {
      dp.Build(ctx, nodes);
    }

    for (int node : nodes) {
      std::vector<uint32_t> node_rows;
      partitioner.ForEachRow(
          node, [&](uint32_t rid, float, float) { node_rows.push_back(rid); });
      const std::vector<GHPair> expected =
          NaiveHist(matrix, ref_gh, node_rows);
      const GHPair* actual = hists.Get(node);
      for (size_t s = 0; s < expected.size(); ++s) {
        if (c.quant) {
          ASSERT_EQ(actual[s], expected[s])
              << "iter " << iter << " node " << node << " slot " << s;
        } else {
          ASSERT_NEAR(actual[s].g, expected[s].g, 1e-9)
              << "iter " << iter << " node " << node << " slot " << s;
          ASSERT_NEAR(actual[s].h, expected[s].h, 1e-9)
              << "iter " << iter << " node " << node << " slot " << s;
        }
      }
    }
    hists.ReleaseAll();
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlockConfigs, HistBuilderSweep,
    ::testing::Values(
        // DP: feature blocks x node blocks x threads x membuf
        BuilderCase{false, 0, 1, 256, true, 1},
        BuilderCase{false, 0, 1, 256, true, 4},
        BuilderCase{false, 1, 1, 256, true, 4},
        BuilderCase{false, 3, 2, 256, true, 4},
        BuilderCase{false, 4, 2, 256, false, 2},
        BuilderCase{false, 0, 2, 256, false, 4},
        BuilderCase{false, 11, 1, 256, true, 3},
        // MP: adds bin blocking
        BuilderCase{true, 0, 1, 256, true, 1},
        BuilderCase{true, 1, 1, 256, true, 4},
        BuilderCase{true, 1, 2, 256, true, 4},
        BuilderCase{true, 3, 1, 8, true, 4},
        BuilderCase{true, 4, 2, 4, false, 4},
        BuilderCase{true, 0, 2, 16, false, 2},
        BuilderCase{true, 11, 2, 256, false, 3},
        // Quantized DP (int64 replicas) and MP (int64 cube arena)
        BuilderCase{false, 0, 1, 256, true, 4, true},
        BuilderCase{false, 3, 2, 256, false, 3, true},
        BuilderCase{true, 0, 1, 256, true, 4, true},
        BuilderCase{true, 3, 2, 8, true, 4, true},
        BuilderCase{true, 4, 1, 4, false, 3, true}),
    CaseName);

// The DP reduce writes each slot as 0 + (first contributor), never as a
// plain copy, so its output is bit-identical to zeroing the buffer and
// then AddHistogram-ing every contributor. The difference is the sign of
// zero: 0.0 + -0.0 is +0.0. A copy would carry a -0.0 into the pool
// histogram, and the sparse wire codec counts -0.0 as a touched cell.
TEST(HistogramKernels, AssignMatchesZeroThenAddIncludingSignedZero) {
  const std::vector<GHPair> src{
      {-0.0, -0.0}, {-0.0, 1.5}, {2.25, -0.0}, {-3.0, 0.0}, {0.0, -0.0}};
  const size_t n = src.size();
  std::vector<GHPair> reference(n, GHPair{7.0, 7.0});
  ClearHistogram(reference.data(), n);
  AddHistogram(reference.data(), src.data(), n);
  std::vector<GHPair> out(n, GHPair{std::nan(""), std::nan("")});
  AssignHistogram(out.data(), src.data(), n);
  EXPECT_EQ(std::memcmp(out.data(), reference.data(), n * sizeof(GHPair)),
            0);
  EXPECT_FALSE(std::signbit(out[0].g));
  EXPECT_FALSE(std::signbit(out[0].h));
}

// End to end through the DP reduce: gradients with -0.0f entries (and
// small dyadic values whose sums are exact in any order), 4 threads,
// NaN-poisoned pool buffers. The output must be memcmp-equal to a zeroed
// buffer plus AddHistogram of the exact sums — in particular no cell may
// come out as -0.0. (Replica cells start at +0.0, and +0.0 + -0.0 is
// +0.0, so accumulation itself never produces -0.0; the kernel test above
// covers a -0.0 arriving at the reduce.)
TEST(HistogramReduce, DpOutputBitIdenticalToZeroThenAdd) {
  const uint32_t rows = 600;
  const Dataset ds = MakeDataset(rows, 7, 0.8, 41, /*distinct=*/9);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  std::vector<GradientPair> gh(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    gh[r].g = r % 3 == 0 ? -0.0f : static_cast<float>(r % 7) * 0.25f - 0.75f;
    gh[r].h = r % 5 == 0 ? -0.0f : static_cast<float>(r % 4) * 0.5f;
  }

  TrainParams params;
  params.node_blk_size = 2;
  ThreadPool pool(4);
  RowPartitioner partitioner(rows, /*use_membuf=*/true);
  partitioner.Reset(gh, /*max_nodes=*/8, &pool);
  partitioner.ApplySplit(0, 1, 2, matrix, 1,
                         std::max(1u, (matrix.NumBins(1) - 1) / 2),
                         /*default_left=*/true, &pool);

  HistogramPool hists(matrix.TotalBins());
  const std::vector<int> nodes{1, 2};
  AcquirePoisoned(hists, nodes);
  const BuildContext ctx{matrix, params, pool, partitioner, hists};
  HistBuilderDP dp;
  dp.Build(ctx, nodes);

  for (int node : nodes) {
    std::vector<uint32_t> node_rows;
    partitioner.ForEachRow(
        node, [&](uint32_t rid, float, float) { node_rows.push_back(rid); });
    const std::vector<GHPair> sums = NaiveHist(matrix, gh, node_rows);
    std::vector<GHPair> reference(sums.size());
    ClearHistogram(reference.data(), reference.size());
    AddHistogram(reference.data(), sums.data(), sums.size());
    EXPECT_EQ(std::memcmp(hists.Get(node), reference.data(),
                          reference.size() * sizeof(GHPair)),
              0)
        << "node " << node;
    for (size_t s = 0; s < reference.size(); ++s) {
      const GHPair& cell = hists.Get(node)[s];
      EXPECT_FALSE(cell.g == 0.0 && std::signbit(cell.g)) << "slot " << s;
      EXPECT_FALSE(cell.h == 0.0 && std::signbit(cell.h)) << "slot " << s;
    }
  }
}

// Subtraction-trick cross-check: parent - sibling == direct build.
TEST(HistogramSubtraction, MatchesDirectBuild) {
  const uint32_t rows = 500;
  const Dataset ds = MakeDataset(rows, 6, 0.9, 29);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 30);

  ThreadPool pool(2);
  RowPartitioner partitioner(rows, true);
  partitioner.Reset(gh, 8, &pool);
  const std::vector<uint32_t> all = harp::testing::AllRows(rows);
  const std::vector<GHPair> parent_hist = NaiveHist(matrix, gh, all);

  partitioner.ApplySplit(0, 1, 2, matrix, 2, 1, false, &pool);
  std::vector<uint32_t> left_rows;
  std::vector<uint32_t> right_rows;
  partitioner.ForEachRowRange(1, 0, partitioner.NodeSize(1),
                              [&](uint32_t rid, float, float) {
                                left_rows.push_back(rid);
                              });
  partitioner.ForEachRowRange(2, 0, partitioner.NodeSize(2),
                              [&](uint32_t rid, float, float) {
                                right_rows.push_back(rid);
                              });
  const std::vector<GHPair> left = NaiveHist(matrix, gh, left_rows);
  const std::vector<GHPair> right_direct = NaiveHist(matrix, gh, right_rows);
  std::vector<GHPair> right_sub = parent_hist;
  SubtractHistogramInPlace(right_sub.data(), left.data(), matrix.TotalBins());
  for (size_t s = 0; s < right_sub.size(); ++s) {
    EXPECT_NEAR(right_sub[s].g, right_direct[s].g, 1e-9);
    EXPECT_NEAR(right_sub[s].h, right_direct[s].h, 1e-9);
  }
}

// Histogram total must equal the node's gradient sum, feature by feature.
TEST(HistogramInvariant, PerFeatureTotalsEqualNodeSum) {
  const uint32_t rows = 300;
  const Dataset ds = MakeDataset(rows, 5, 0.7, 31);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 32);
  const auto all = harp::testing::AllRows(rows);
  const auto hist = NaiveHist(matrix, gh, all);
  const GHPair total = harp::testing::SumGh(gh, all);
  for (uint32_t f = 0; f < matrix.num_features(); ++f) {
    const GHPair fsum =
        SumHistogramFeature(hist.data(), matrix.BinOffset(f),
                            matrix.NumBins(f));
    EXPECT_NEAR(fsum.g, total.g, 1e-9);
    EXPECT_NEAR(fsum.h, total.h, 1e-9);
  }
}

}  // namespace
}  // namespace harp
