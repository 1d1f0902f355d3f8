// Tests for the simulated cluster communicator and distributed training.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "common/random.h"
#include "core/grow_policy.h"
#include "core/hist_builder.h"
#include "core/histogram.h"
#include "core/metrics.h"
#include "core/model_io.h"
#include "core/objective.h"
#include "core/quantize.h"
#include "core/row_partitioner.h"
#include "core/simd.h"
#include "core/split_evaluator.h"
#include "data/synthetic.h"
#include "distributed/dist_gbdt.h"
#include "distributed/inprocess_transport.h"
#include "distributed/socket_transport.h"
#include "distributed/sparse_hist.h"
#include "test_util.h"

namespace harp {
namespace {

// ---------- Communicator ----------

class ClusterSizes : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Worlds, ClusterSizes, ::testing::Values(1, 2, 3, 5));

TEST_P(ClusterSizes, AllreduceSumsAcrossRanks) {
  const int world = GetParam();
  SimulatedCluster cluster(world);
  cluster.Run([&](Communicator& comm) {
    std::vector<double> data(16);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<double>(comm.rank() + 1) * (i + 1);
    }
    comm.AllreduceSum(data.data(), data.size());
    // Sum over ranks r of (r+1)*(i+1) = (i+1) * world(world+1)/2.
    const double factor = world * (world + 1) / 2.0;
    for (size_t i = 0; i < data.size(); ++i) {
      EXPECT_DOUBLE_EQ(data[i], factor * (i + 1))
          << "rank " << comm.rank() << " slot " << i;
    }
  });
}

TEST_P(ClusterSizes, RepeatedCollectivesStayInSync) {
  const int world = GetParam();
  SimulatedCluster cluster(world);
  cluster.Run([&](Communicator& comm) {
    int64_t value = 1;
    for (int round = 0; round < 200; ++round) {
      int64_t local = value;
      comm.AllreduceSum(&local, 1);
      EXPECT_EQ(local, value * world) << "round " << round;
    }
  });
}

TEST(Communicator, AllreduceGhPairs) {
  SimulatedCluster cluster(3);
  cluster.Run([&](Communicator& comm) {
    GHPair data{static_cast<double>(comm.rank()), 1.0};
    comm.AllreduceSum(&data, 1);
    EXPECT_DOUBLE_EQ(data.g, 0.0 + 1.0 + 2.0);
    EXPECT_DOUBLE_EQ(data.h, 3.0);
  });
}

TEST(Communicator, BroadcastFromEachRoot) {
  for (int root = 0; root < 3; ++root) {
    SimulatedCluster cluster(3);
    cluster.Run([&](Communicator& comm) {
      int payload[4] = {0, 0, 0, 0};
      if (comm.rank() == root) {
        for (int i = 0; i < 4; ++i) payload[i] = 100 * root + i;
      }
      comm.Broadcast(payload, sizeof(payload), root);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(payload[i], 100 * root + i);
    });
  }
}

TEST(Communicator, BarrierOrdersPhases) {
  SimulatedCluster cluster(4);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  cluster.Run([&](Communicator& comm) {
    phase1.fetch_add(1);
    comm.Barrier();
    if (phase1.load() != 4) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

TEST(Communicator, CountsTraffic) {
  SimulatedCluster cluster(2);
  cluster.Run([&](Communicator& comm) {
    double v = 1.0;
    comm.AllreduceSum(&v, 1);
    comm.Barrier();
  });
  const CommStats stats = cluster.TotalStats();
  EXPECT_EQ(stats.allreduce_calls, 2);
  EXPECT_EQ(stats.allreduce_bytes, 2 * 8);  // 8 bytes x (world-1) x ranks
  EXPECT_EQ(stats.barriers, 2);
}

TEST(Communicator, AllreduceMaxAcrossRanks) {
  SimulatedCluster cluster(3);
  cluster.Run([&](Communicator& comm) {
    double data[3] = {static_cast<double>(comm.rank()),
                      -static_cast<double>(comm.rank()) - 1.0, 0.5};
    comm.AllreduceMax(data, 3);
    EXPECT_DOUBLE_EQ(data[0], 2.0);
    EXPECT_DOUBLE_EQ(data[1], -1.0);
    EXPECT_DOUBLE_EQ(data[2], 0.5);
  });
}

TEST(Communicator, CountsBroadcastBytes) {
  SimulatedCluster cluster(3);
  cluster.Run([&](Communicator& comm) {
    char payload[12] = {};
    if (comm.rank() == 1) std::memset(payload, 7, sizeof(payload));
    comm.Broadcast(payload, sizeof(payload), 1);
    EXPECT_EQ(payload[11], 7);
    EXPECT_EQ(comm.stats().broadcast_calls, 1);
    EXPECT_EQ(comm.stats().broadcast_bytes, 12 * 2);  // bytes x (world-1)
  });
  EXPECT_EQ(cluster.TotalStats().broadcast_calls, 3);
  EXPECT_EQ(cluster.TotalStats().broadcast_bytes, 3 * 12 * 2);
}

// The chunked parallel dense reduce must be bitwise identical to the
// serial rank-ordered reduction (chunking only changes WHO adds, never
// the per-element addition order).
TEST(InProcessTransport, ChunkedAllreduceMatchesSerialRankOrder) {
  const int world = 3;
  const size_t count = 2 * InProcessCluster::kChunkElems + 1234;

  // Deterministic per-rank data with awkward magnitudes so float addition
  // order matters.
  const auto value = [](int rank, size_t i) {
    uint64_t x = 0x9E3779B97F4A7C15ull * (i + 1) + rank * 0x10001ull;
    x ^= x >> 33;
    const double mag = static_cast<double>(x % 100003) / 997.0;
    return (x & 1) ? mag : -mag * 1e-7;
  };
  std::vector<double> expect(count);
  for (size_t i = 0; i < count; ++i) {
    double acc = value(0, i);
    for (int r = 1; r < world; ++r) acc += value(r, i);
    expect[i] = acc;
  }

  InProcessCluster cluster(world);
  std::vector<std::vector<double>> data(world, std::vector<double>(count));
  std::vector<std::thread> threads;
  for (int rank = 0; rank < world; ++rank) {
    threads.emplace_back([&, rank] {
      auto& mine = data[static_cast<size_t>(rank)];
      for (size_t i = 0; i < count; ++i) mine[i] = value(rank, i);
      cluster.transport(rank).AllreduceSum(mine.data(), count);
    });
  }
  for (auto& t : threads) t.join();
  for (int rank = 0; rank < world; ++rank) {
    ASSERT_EQ(0, std::memcmp(data[static_cast<size_t>(rank)].data(),
                             expect.data(), count * sizeof(double)))
        << "rank " << rank;
  }
}

TEST(Communicator, WorkerExceptionPropagates) {
  SimulatedCluster cluster(2);
  EXPECT_THROW(cluster.Run([&](Communicator& comm) {
    if (comm.rank() == 1) throw std::runtime_error("worker died");
    // Rank 0 must not deadlock waiting for rank 1 — it does no
    // collectives here.
  }),
               std::runtime_error);
}

// ---------- SparseHistogram codec ----------

// Exact quantization scales for codec tests: values are multiples of the
// inverse scale, so encode/decode round-trips bit for bit.
SparseHistFormat QuantFormat() {
  SparseHistFormat fmt;
  fmt.quant = true;
  fmt.scales.g_exp = 8;
  fmt.scales.g_scale = 256.0f;
  fmt.scales.g_inv = 1.0 / 256.0;
  fmt.scales.h_exp = 10;
  fmt.scales.h_scale = 1024.0f;
  fmt.scales.h_inv = 1.0 / 1024.0;
  return fmt;
}

// Per-rank test histograms: scattered touched cells (different cells per
// rank, some overlapping), values exactly representable at the quant
// scales so f64 and quant paths must both be exact.
std::vector<std::vector<GHPair>> RankHists(int world, uint32_t num_hists,
                                           uint32_t cells) {
  std::vector<std::vector<GHPair>> hists(static_cast<size_t>(world));
  const SparseHistFormat fmt = QuantFormat();
  for (int r = 0; r < world; ++r) {
    auto& h = hists[static_cast<size_t>(r)];
    h.assign(static_cast<size_t>(num_hists) * cells, GHPair{});
    for (size_t i = 0; i < h.size(); ++i) {
      if ((i * 7 + static_cast<size_t>(r) * 3) % 5 == 0) {
        const double k = static_cast<double>((i % 97) + 1);
        h[i].g = (r % 2 == 0 ? k : -k) * fmt.scales.g_inv;
        h[i].h = k * fmt.scales.h_inv;
      }
    }
  }
  return hists;
}

// Reference: the dense rank-ordered reduction (rank 0's cell, then += each
// higher rank in order) — what the dense oracle path computes.
std::vector<GHPair> DenseRankOrderedSum(
    const std::vector<std::vector<GHPair>>& hists) {
  std::vector<GHPair> acc = hists[0];
  for (size_t r = 1; r < hists.size(); ++r) {
    for (size_t i = 0; i < acc.size(); ++i) {
      acc[i].g += hists[r][i].g;
      acc[i].h += hists[r][i].h;
    }
  }
  return acc;
}

// Encodes each rank's histograms, reduces the frames, decodes the result
// and compares it bitwise with the dense rank-ordered sum. Returns the
// reduced frame's size.
size_t ExpectReduceMatchesDense(const std::vector<std::vector<GHPair>>& hists,
                                uint32_t num_hists, uint32_t cells,
                                const SparseHistFormat& fmt) {
  const std::vector<GHPair> expect = DenseRankOrderedSum(hists);
  std::vector<std::vector<uint8_t>> frames(hists.size());
  Transport::Frames views;
  for (size_t r = 0; r < hists.size(); ++r) {
    std::vector<const GHPair*> ptrs;
    for (uint32_t h = 0; h < num_hists; ++h) {
      ptrs.push_back(hists[r].data() + static_cast<size_t>(h) * cells);
    }
    EncodeSparseHist(ptrs.data(), num_hists, cells, fmt, &frames[r]);
    views.emplace_back(frames[r].data(), frames[r].size());
  }
  std::vector<uint8_t> reduced;
  ReduceSparseHist(views, num_hists, cells, fmt, &reduced);

  std::vector<GHPair> decoded(static_cast<size_t>(num_hists) * cells,
                              GHPair{1.0, 1.0});  // must be overwritten
  std::vector<GHPair*> out_ptrs;
  for (uint32_t h = 0; h < num_hists; ++h) {
    out_ptrs.push_back(decoded.data() + static_cast<size_t>(h) * cells);
  }
  DecodeSparseHist(reduced.data(), reduced.size(), out_ptrs.data(), num_hists,
                   cells, fmt);
  EXPECT_EQ(0, std::memcmp(decoded.data(), expect.data(),
                           decoded.size() * sizeof(GHPair)));
  return reduced.size();
}

class SparseHistCodec : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Formats, SparseHistCodec,
                         ::testing::Values(false, true));

TEST_P(SparseHistCodec, EncodeReduceDecodeMatchesDenseRankOrderBitwise) {
  const uint32_t num_hists = 2;
  const uint32_t cells = 37;  // partial last region
  SparseHistFormat fmt = QuantFormat();
  fmt.quant = GetParam();
  const size_t reduced_bytes = ExpectReduceMatchesDense(
      RankHists(/*world=*/3, num_hists, cells), num_hists, cells, fmt);
  // Compression: the frame must beat the dense payload on this data.
  EXPECT_LT(reduced_bytes,
            static_cast<size_t>(DenseHistBytes(num_hists, cells)));
}

TEST_P(SparseHistCodec, RanksWithDisjointRegionRangesReduceBitwise) {
  // Ranks whose listed region ranges do not overlap: rank 0 touches only
  // the first histogram's head, rank 1 nothing, rank 2 the first
  // histogram's tail and all of the second histogram, rank 3 one region
  // between ranks 0 and 2 and one region inside rank 2's range. Ranks
  // run out of regions at different points of the walk.
  const int world = 4;
  const uint32_t num_hists = 2;
  const uint32_t cells = 45;  // 6 regions per histogram, last one partial
  SparseHistFormat fmt = QuantFormat();
  fmt.quant = GetParam();
  std::vector<std::vector<GHPair>> hists(
      world, std::vector<GHPair>(num_hists * cells, GHPair{}));
  auto set = [&](int rank, uint32_t slot, double k) {  // hessian >= 0
    hists[static_cast<size_t>(rank)][slot] =
        GHPair{k * fmt.scales.g_inv, std::abs(k) * fmt.scales.h_inv};
  };
  for (uint32_t i = 0; i < 12; ++i) set(0, i, i + 1.0);        // regions 0-1
  for (uint32_t i = 32; i < 45; ++i) set(2, i, -(i + 1.0));    // regions 4-5
  for (uint32_t i = 45; i < 90; i += 3) set(2, i, i + 2.0);    // hist 1
  set(3, 17, 7.0);                                             // region 2
  set(3, 45 + 41, 3.0);  // the second histogram's partial last region
  ExpectReduceMatchesDense(hists, num_hists, cells, fmt);
}

TEST_P(SparseHistCodec, AllZeroHistogramsShipHeaderOnlyFrames) {
  const bool quant = GetParam();
  const uint32_t cells = 24;
  SparseHistFormat fmt = QuantFormat();
  fmt.quant = quant;
  const std::vector<GHPair> zero(cells, GHPair{});
  const GHPair* ptrs[1] = {zero.data()};
  std::vector<uint8_t> frame;
  EncodeSparseHist(ptrs, 1, cells, fmt, &frame);
  EXPECT_EQ(frame.size(), sizeof(SparseHistHeader));

  // Reducing three empty frames yields an empty frame; decoding it zeroes
  // the output.
  Transport::Frames views(
      3, std::make_pair(static_cast<const uint8_t*>(frame.data()),
                        frame.size()));
  std::vector<uint8_t> reduced;
  ReduceSparseHist(views, 1, cells, fmt, &reduced);
  EXPECT_EQ(reduced.size(), sizeof(SparseHistHeader));
  std::vector<GHPair> decoded(cells, GHPair{3.0, 3.0});
  GHPair* out_ptrs[1] = {decoded.data()};
  DecodeSparseHist(reduced.data(), reduced.size(), out_ptrs, 1, cells, fmt);
  for (const GHPair& cell : decoded) {
    EXPECT_EQ(cell.g, 0.0);
    EXPECT_EQ(cell.h, 0.0);
  }
}

TEST(SparseHistCodecEdge, NegativeZeroCountsAsTouched) {
  // -0.0 has nonzero bits; skipping it would flip the sign the dense
  // oracle preserves.
  SparseHistFormat fmt;  // f64
  std::vector<GHPair> hist(8, GHPair{});
  hist[3].g = -0.0;
  const GHPair* ptrs[1] = {hist.data()};
  std::vector<uint8_t> frame;
  EncodeSparseHist(ptrs, 1, 8, fmt, &frame);
  EXPECT_GT(frame.size(), sizeof(SparseHistHeader));
  std::vector<GHPair> decoded(8, GHPair{1.0, 1.0});
  GHPair* out_ptrs[1] = {decoded.data()};
  DecodeSparseHist(frame.data(), frame.size(), out_ptrs, 1, 8, fmt);
  EXPECT_TRUE(std::signbit(decoded[3].g));
}

TEST(SparseHistCodecEdge, MalformedFramesRejected) {
  SparseHistFormat fmt;
  const auto hists = RankHists(1, 1, 16);
  const GHPair* ptrs[1] = {hists[0].data()};
  std::vector<uint8_t> frame;
  EncodeSparseHist(ptrs, 1, 16, fmt, &frame);
  std::vector<GHPair> out(16);
  GHPair* out_ptrs[1] = {out.data()};
  const auto decode = [&](const std::vector<uint8_t>& f) {
    DecodeSparseHist(f.data(), f.size(), out_ptrs, 1, 16, fmt);
  };
  ASSERT_NO_THROW(decode(frame));

  {
    std::vector<uint8_t> f = frame;  // short header
    f.resize(sizeof(SparseHistHeader) - 1);
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // truncated payload
    f.resize(f.size() - 1);
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // bad magic
    f[0] ^= 0xFF;
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // bad version
    f[4] ^= 0xFF;
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // unknown flags
    f[6] |= 0x80;
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // geometry mismatch
    SparseHistHeader h;
    std::memcpy(&h, f.data(), sizeof(h));
    h.cells_per_hist = 99;
    std::memcpy(f.data(), &h, sizeof(h));
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // absurd run count
    SparseHistHeader h;
    std::memcpy(&h, f.data(), sizeof(h));
    h.num_runs = 1u << 30;
    std::memcpy(f.data(), &h, sizeof(h));
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // zeroed region bitmap
    SparseHistHeader h;
    std::memcpy(&h, f.data(), sizeof(h));
    ASSERT_GT(h.num_runs, 0u);
    f[sizeof(h) + h.num_runs * sizeof(SparseHistRun)] = 0;
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // format mismatch (quant flag)
    SparseHistFormat qfmt = QuantFormat();
    std::vector<GHPair> q(16);
    GHPair* qptrs[1] = {q.data()};
    EXPECT_THROW(
        DecodeSparseHist(f.data(), f.size(), qptrs, 1, 16, qfmt),
        std::runtime_error);
  }
}

// ---------- DistributedGbdt ----------

Dataset TrainData(uint32_t rows = 4000) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.features = 10;
  spec.density = 0.9;
  spec.margin_scale = 3.0;
  spec.seed = 1101;
  return GenerateSynthetic(spec);
}

TrainParams DistParams(int trees = 5) {
  TrainParams p;
  p.num_trees = trees;
  p.tree_size = 4;
  p.grow_policy = GrowPolicy::kTopK;
  p.topk = 8;
  return p;
}

TEST(DistributedGbdt, SingleWorkerLearns) {
  const Dataset data = TrainData();
  const DistributedResult result =
      DistributedGbdt::Train(data, 1, DistParams(10));
  EXPECT_GT(Auc(data.labels(), result.model.Predict(data)), 0.85);
}

// Identical structure, splits and row counts. f64 leaf values may differ
// in the last bits with the summation order of a different worker count.
void ExpectSameTrees(const GbdtModel& a, const GbdtModel& b, int workers) {
  ASSERT_EQ(a.NumTrees(), b.NumTrees());
  for (size_t t = 0; t < a.NumTrees(); ++t) {
    const RegTree& x = a.tree(t);
    const RegTree& y = b.tree(t);
    ASSERT_EQ(x.num_nodes(), y.num_nodes())
        << "workers " << workers << " tree " << t;
    for (int i = 0; i < x.num_nodes(); ++i) {
      EXPECT_EQ(x.node(i).IsLeaf(), y.node(i).IsLeaf());
      EXPECT_EQ(x.node(i).split_feature, y.node(i).split_feature);
      EXPECT_EQ(x.node(i).split_bin, y.node(i).split_bin);
      EXPECT_EQ(x.node(i).default_left, y.node(i).default_left);
      EXPECT_EQ(x.node(i).num_rows, y.node(i).num_rows);
      if (x.node(i).IsLeaf()) {
        EXPECT_NEAR(x.node(i).leaf_value, y.node(i).leaf_value, 1e-9);
      }
    }
  }
}

TEST(DistributedGbdt, WorkerCountDoesNotChangeTheModel) {
  const Dataset data = TrainData();
  const DistributedResult one = DistributedGbdt::Train(data, 1, DistParams());
  for (int workers : {2, 4}) {
    ExpectSameTrees(one.model,
                    DistributedGbdt::Train(data, workers, DistParams()).model,
                    workers);
  }
}

TEST(DistributedGbdt, MatchesSingleNodeTrainerStructure) {
  // The distributed histogram-aggregation must reproduce the single-node
  // HarpGBDT trees (same algorithm, different plumbing).
  const Dataset data = TrainData(2500);
  TrainParams p = DistParams(3);
  const DistributedResult dist = DistributedGbdt::Train(data, 3, p);

  p.mode = ParallelMode::kDP;
  p.num_threads = 1;
  GbdtTrainer trainer(p);
  ExpectSameTrees(trainer.Train(data), dist.model, 3);
}

TEST(DistributedGbdt, CommunicationVolumeScalesWithWorkers) {
  const Dataset data = TrainData(2000);
  const DistributedResult two = DistributedGbdt::Train(data, 2, DistParams(2));
  const DistributedResult four =
      DistributedGbdt::Train(data, 4, DistParams(2));
  EXPECT_GT(two.comm.allreduce_calls, 0);
  // Per-rank calls are equal; total calls and bytes grow with world size.
  EXPECT_GT(four.comm.allreduce_calls, two.comm.allreduce_calls);
  EXPECT_GT(four.comm.allreduce_bytes, two.comm.allreduce_bytes);
}

TEST(DistributedGbdt, UnevenShardsHandled) {
  const Dataset data = TrainData(1003);  // does not divide evenly
  const DistributedResult result =
      DistributedGbdt::Train(data, 4, DistParams(3));
  EXPECT_EQ(result.model.NumTrees(), 3u);
  for (const RegTree& tree : result.model.trees()) {
    EXPECT_TRUE(tree.CheckValid());
    EXPECT_EQ(tree.node(0).num_rows, data.num_rows());
  }
}

TEST(DistributedGbdtDeath, MoreWorkersThanRows) {
  const Dataset data = TrainData(4);
  EXPECT_DEATH(DistributedGbdt::Train(data, 8, DistParams(1)), "CHECK");
}

// The objective's knobs reach the sharded loop: a 0.9-quantile model
// trains the 0.9 quantile, not the median, and records its alpha.
TEST(DistributedGbdt, QuantileAlphaIsHonoured) {
  SyntheticSpec spec;
  spec.rows = 6000;
  spec.features = 10;
  spec.label = LabelKind::kRegression;
  spec.seed = 411;
  const Dataset data = GenerateSynthetic(spec);
  TrainParams p = DistParams(80);
  p.tree_size = 8;
  p.objective = ObjectiveKind::kQuantile;
  p.quantile_alpha = 0.9;
  p.base_score = 0.0;
  const GbdtModel model = DistributedGbdt::Train(data, 1, p).model;
  EXPECT_EQ(model.quantile_alpha(), 0.9);
  const std::vector<double> preds = model.Predict(data);
  double covered = 0.0;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (static_cast<double>(data.labels()[i]) <= preds[i]) covered += 1.0;
  }
  EXPECT_NEAR(covered / static_cast<double>(preds.size()), 0.9, 0.02);
}

// ---------- one builder, local and sharded ----------

// Every objective, sampling mode, subtraction setting, storage layout and
// cell type trains sharded. Labels per objective are derived from one
// regression draw; LambdaRank gets uneven queries, which the shards must
// not split.
using ShardCase = std::tuple<ObjectiveKind, int /*sampling*/, bool /*sub*/,
                             bool /*sparse*/, bool /*quant*/>;

Dataset ShardSweepData(ObjectiveKind objective, bool sparse) {
  SyntheticSpec spec;
  spec.rows = 600;
  spec.features = sparse ? 40 : 10;
  spec.density = sparse ? 0.08 : 0.9;
  spec.density_skew = sparse ? 0.8 : 0.0;
  spec.mean_distinct = 32.0;
  spec.distinct_cv = 0.5;
  spec.sparse_storage = sparse;
  spec.label = LabelKind::kRegression;
  spec.seed = 3301;
  Dataset data = GenerateSynthetic(spec);
  for (float& y : data.mutable_labels()) {
    switch (objective) {
      case ObjectiveKind::kLogistic:
        y = y > 0.0f ? 1.0f : 0.0f;
        break;
      case ObjectiveKind::kPoisson:
        y = std::round(std::exp(0.5f * y));
        break;
      case ObjectiveKind::kLambdaRank:
        y = std::clamp(std::floor(y + 2.0f), 0.0f, 4.0f);
        break;
      case ObjectiveKind::kSquaredError:
      case ObjectiveKind::kQuantile:
        break;
    }
  }
  if (objective == ObjectiveKind::kLambdaRank) {
    std::vector<uint32_t> group_ptr = {0};
    for (uint32_t q = 0; group_ptr.back() < spec.rows; ++q) {
      group_ptr.push_back(
          std::min(spec.rows, group_ptr.back() + 4 + (q * 7) % 11));
    }
    data.SetGroupPtr(std::move(group_ptr));
  }
  return data;
}

TrainParams ShardSweepParams(const ShardCase& c) {
  const auto [objective, sampling, sub, sparse, quant] = c;
  TrainParams p = DistParams(3);
  p.objective = objective;
  p.quantile_alpha = 0.9;
  p.base_score = objective == ObjectiveKind::kLogistic ? 0.5 : 1.0;
  p.min_split_loss = 0.0;
  p.min_child_weight = 0.01;
  p.subsample = sampling == 1 ? 0.7 : 1.0;
  p.colsample_bytree = sampling == 2 ? 0.6 : 1.0;
  p.use_hist_subtraction = sub;
  p.quantize_hist = quant;
  p.comm_compress = sparse ? "sparse" : "dense";
  return p;
}

class ShardSweep : public ::testing::TestWithParam<ShardCase> {};

TEST_P(ShardSweep, OneWorkerMatchesLocalAndWorkersAgree) {
  const bool quant = std::get<4>(GetParam());
  const Dataset data =
      ShardSweepData(std::get<0>(GetParam()), std::get<3>(GetParam()));
  TrainParams p = ShardSweepParams(GetParam());
  const int threads = 2;

  // W=1 runs the local builder's exact code plus identity collectives.
  TrainParams local = p;
  local.mode = ParallelMode::kDP;
  local.num_threads = threads;
  const std::string expect = SerializeModel(GbdtTrainer(local).Train(data));
  EXPECT_EQ(expect,
            SerializeModel(DistributedGbdt::Train(data, 1, p, threads).model));

  const GbdtModel two = DistributedGbdt::Train(data, 2, p, threads).model;
  for (const RegTree& tree : two.trees()) ASSERT_GT(tree.num_nodes(), 1);
  for (const int workers : {3, 4}) {
    const GbdtModel many =
        DistributedGbdt::Train(data, workers, p, threads).model;
    if (quant) {
      // Exact cells: the worker count cannot change a bit.
      EXPECT_EQ(SerializeModel(two), SerializeModel(many))
          << "workers " << workers;
    } else {
      ExpectSameTrees(two, many, workers);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ObjectivesSampling, ShardSweep,
    ::testing::Combine(
        ::testing::Values(ObjectiveKind::kLogistic,
                          ObjectiveKind::kSquaredError,
                          ObjectiveKind::kQuantile, ObjectiveKind::kPoisson,
                          ObjectiveKind::kLambdaRank),
        ::testing::Values(0, 1, 2), ::testing::Bool(), ::testing::Bool(),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<ShardCase>& info) {
      const int sampling = std::get<1>(info.param);
      std::string name = ToString(std::get<0>(info.param));
      name += sampling == 0 ? "_all" : sampling == 1 ? "_rows" : "_cols";
      name += std::get<2>(info.param) ? "_sub" : "_both";
      name += std::get<3>(info.param) ? "_sparse" : "_dense";
      name += std::get<4>(info.param) ? "_quant" : "_f64";
      return name;
    });

// Rank 0 reports the same grow counters as a one-worker run, with the
// exchange booked to reduce inside build.
TEST(DistributedGbdt, ReportsRankZeroTrainStats) {
  const Dataset data = TrainData(2000);
  TrainParams p = DistParams(4);
  p.quantize_hist = true;
  p.comm_compress = "sparse";
  const DistributedResult one = DistributedGbdt::Train(data, 1, p);
  const DistributedResult two = DistributedGbdt::Train(data, 2, p);
  EXPECT_EQ(two.stats.trees, p.num_trees);
  EXPECT_GT(two.stats.topk_batches, 0);
  EXPECT_EQ(two.stats.topk_batches, one.stats.topk_batches);
  EXPECT_EQ(two.stats.nodes_split, one.stats.nodes_split);
  EXPECT_GT(two.stats.reduce_ns, 0);
  EXPECT_GE(two.stats.build_hist_ns, two.stats.reduce_ns);
  // Each rank scans only its own rows.
  EXPECT_LT(two.stats.hist_updates, one.stats.hist_updates);
}

// The acceptance gate of the compressed exchange: at every worker count,
// with and without histogram quantization, on sparse and dense data, the
// sparse wire format must reproduce the dense f64 oracle's model bit for
// bit (SerializeModel emits hex floats, so string equality is bit
// equality).
TEST(DistributedGbdt, SparseExchangeModelMatchesDenseOracle) {
  SyntheticSpec sparse_spec;
  sparse_spec.rows = 700;
  sparse_spec.features = 40;
  sparse_spec.density = 0.08;
  sparse_spec.density_skew = 0.8;
  sparse_spec.mean_distinct = 32.0;
  sparse_spec.distinct_cv = 0.5;
  sparse_spec.margin_scale = 3.0;
  sparse_spec.sparse_storage = true;
  sparse_spec.seed = 2203;
  const Dataset sparse_data = GenerateSynthetic(sparse_spec);
  const Dataset dense_data = TrainData(700);

  for (const Dataset* data : {&sparse_data, &dense_data}) {
    for (const bool quant : {false, true}) {
      for (const int workers : {1, 2, 3, 4}) {
        TrainParams p = DistParams(2);
        p.tree_size = 3;
        p.quantize_hist = quant;
        p.comm_compress = "dense";
        const DistributedResult oracle =
            DistributedGbdt::Train(*data, workers, p);
        p.comm_compress = "sparse";
        const DistributedResult compressed =
            DistributedGbdt::Train(*data, workers, p);
        EXPECT_EQ(SerializeModel(oracle.model),
                  SerializeModel(compressed.model))
            << "workers=" << workers << " quant=" << quant
            << " rows=" << data->num_rows();
        // The sparse path must actually compress relative to dense f64
        // whenever histograms were exchanged.
        if (workers > 1) {
          EXPECT_LT(compressed.comm.hist_wire_bytes,
                    compressed.comm.hist_dense_bytes);
        }
      }
    }
  }
}

// ---------- sharded loop oracle ----------

// Test-only build-both copy of the sharded TopK loop: every child of every
// split is built locally and exchanged, never derived. DistributedGbdt::
// Train exchanges only the smaller child of a split whose parent kept its
// histogram and subtracts the sibling from the parent; for quantized
// histograms that must give this loop's model bit for bit.
class OracleShard {
 public:
  OracleShard(Communicator& comm, const Dataset& shard,
              const QuantileCuts& cuts, const TrainParams& params)
      : comm_(comm),
        shard_(shard),
        params_(params),
        matrix_(BinnedMatrix::Build(shard, cuts)),
        evaluator_(params),
        hists_(matrix_.TotalBins()),
        partitioner_(matrix_.num_rows(), params.use_membuf),
        pool_(1),
        simd_level_(ResolveSimdLevel(params.simd)) {}

  GbdtModel Run() {
    const auto objective =
        Objective::Create(Objective::ConfigFromParams(params_));
    const double base_margin = objective->InitialMargin(params_.base_score);
    GbdtModel model(params_.objective, base_margin, matrix_.cuts());
    std::vector<double> margins(shard_.num_rows(), base_margin);
    std::vector<GradientPair> gradients;
    for (int iter = 0; iter < params_.num_trees; ++iter) {
      objective->ComputeGradients(shard_.labels(), margins, &gradients);
      RegTree tree = BuildTree(gradients, iter);
      for (int id = 0; id < tree.num_nodes(); ++id) {
        if (tree.node(id).IsLeaf()) {
          partitioner_.AddToMargins(id, tree.node(id).leaf_value, &margins);
        }
      }
      model.AddTree(std::move(tree));
    }
    return model;
  }

 private:
  void AgreeQuantScales(const std::vector<GradientPair>& gradients,
                        int iter) {
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
    quant_.scales = QuantScalesFromStats(global);
    QuantizeGradients(gradients, quant_.scales, params_.quant_stochastic,
                      params_.seed + static_cast<uint64_t>(iter),
                      static_cast<int>(simd_level_), &pool_, &quant_.packed);
  }

  void BuildGlobalHists(const std::vector<int>& nodes) {
    for (const int node : nodes) hists_.Acquire(node);
    const BuildContext ctx{matrix_,     params_, pool_,
                           partitioner_, hists_,
                           params_.quantize_hist ? &quant_ : nullptr,
                           simd_level_};
    dp_.Build(ctx, nodes);
    std::vector<GHPair*> ptrs;
    for (const int node : nodes) ptrs.push_back(hists_.Get(node));
    Communicator::HistExchangeOpts opts;
    opts.sparse = params_.comm_compress == "sparse";
    opts.quant = params_.quantize_hist;
    opts.scales = quant_.scales;
    comm_.AllreduceHistograms(ptrs.data(), static_cast<uint32_t>(ptrs.size()),
                              static_cast<uint32_t>(matrix_.TotalBins()),
                              opts);
  }

  Candidate FindSplitFor(int node_id, int depth, const GHPair& sum) {
    Candidate cand;
    cand.node_id = node_id;
    cand.depth = depth;
    cand.split = evaluator_.FindBestSplit(matrix_, hists_.Get(node_id), sum,
                                          0, matrix_.num_features());
    return cand;
  }

  RegTree BuildTree(const std::vector<GradientPair>& gradients, int iter) {
    const int64_t max_leaves = params_.MaxLeaves();
    const int max_depth = params_.MaxDepth();
    const int max_nodes = static_cast<int>(2 * max_leaves);
    partitioner_.Reset(gradients, max_nodes, &pool_);
    hists_.ReleaseAll();
    if (params_.quantize_hist) AgreeQuantScales(gradients, iter);

    RegTree tree;
    GHPair root_sum = partitioner_.NodeSum(0, &pool_);
    comm_.AllreduceSum(&root_sum, 1);
    int64_t global_rows = partitioner_.num_rows();
    comm_.AllreduceSum(&global_rows, 1);
    tree.mutable_node(0).sum = root_sum;
    tree.mutable_node(0).num_rows = static_cast<uint32_t>(global_rows);

    GrowQueue queue(params_.grow_policy);
    BuildGlobalHists({0});
    const Candidate root = FindSplitFor(0, 0, root_sum);
    hists_.Release(0);
    if (root.split.IsValid() && max_leaves > 1 && max_depth > 0) {
      queue.Push(root);
    }

    int64_t leaves = 1;
    while (!queue.Empty() && leaves < max_leaves) {
      const std::vector<Candidate> batch = queue.PopBatch(
          params_.EffectiveTopK(),
          static_cast<int>(std::min<int64_t>(max_leaves - leaves, 1 << 20)));
      if (batch.empty()) break;
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

      BuildGlobalHists(children);
      for (const int child : children) {
        const Candidate cand = FindSplitFor(child, tree.node(child).depth,
                                            tree.node(child).sum);
        hists_.Release(child);
        if (cand.split.IsValid() && cand.depth < max_depth) {
          queue.Push(cand);
        }
      }
    }

    for (int id = 0; id < tree.num_nodes(); ++id) {
      TreeNode& node = tree.mutable_node(id);
      if (node.IsLeaf()) node.leaf_value = evaluator_.LeafValue(node.sum);
    }
    return tree;
  }

  Communicator& comm_;
  const Dataset& shard_;
  const TrainParams& params_;
  BinnedMatrix matrix_;
  SplitEvaluator evaluator_;
  HistogramPool hists_;
  RowPartitioner partitioner_;
  ThreadPool pool_;
  HistBuilderDP dp_;
  const SimdLevel simd_level_;
  QuantRound quant_;
};

// The oracle over the same contiguous shards and global cuts as
// DistributedGbdt::Train; returns rank 0's model.
GbdtModel OracleTrain(const Dataset& data, int workers,
                      const TrainParams& params) {
  const QuantileCuts cuts = QuantileCuts::Compute(data, params.max_bins);
  std::vector<Dataset> shards;
  for (int w = 0; w < workers; ++w) {
    const uint64_t rows = data.num_rows();
    shards.push_back(data.Slice(static_cast<uint32_t>(rows * w / workers),
                                static_cast<uint32_t>(rows * (w + 1) / workers)));
  }
  std::vector<GbdtModel> models(static_cast<size_t>(workers));
  SimulatedCluster cluster(workers);
  cluster.Run([&](Communicator& comm) {
    const size_t rank = static_cast<size_t>(comm.rank());
    models[rank] = OracleShard(comm, shards[rank], cuts, params).Run();
  });
  return std::move(models[0]);
}

Dataset SparseTrainData(uint32_t rows) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.features = 40;
  spec.density = 0.08;
  spec.density_skew = 0.8;
  spec.mean_distinct = 32.0;
  spec.distinct_cv = 0.5;
  spec.margin_scale = 3.0;
  spec.sparse_storage = true;
  spec.seed = 2203;
  return GenerateSynthetic(spec);
}

// Each tree exchanges its root and, per split, one child (the sibling is
// derived) or both (a parent popped later than the batch after its push
// kept no histogram). Subtraction must have saved some exchanges.
void ExpectFewerHistsThanBuildBoth(const DistributedResult& result,
                                   int trees) {
  int64_t splits = 0;
  for (const RegTree& tree : result.model.trees()) {
    splits += tree.num_nodes() / 2;
  }
  const int64_t exchanged = result.per_rank[0].hists_exchanged;
  EXPECT_GE(exchanged, trees + splits);
  EXPECT_LT(exchanged, trees + 2 * splits);
}

// Quantized subtraction is exact, so exchanging only the smaller child and
// deriving its sibling reproduces the build-everything loop bit for bit,
// on sparse and dense data, at every worker count, for both encodings.
// Fewer histograms cross the wire.
TEST(DistributedGbdt, SubtractionMatchesBuildBothOracle) {
  const Dataset sparse_data = SparseTrainData(900);
  const Dataset dense_data = TrainData(900);
  for (const Dataset* data : {&sparse_data, &dense_data}) {
    for (const int workers : {1, 2, 3, 4}) {
      for (const char* compress : {"dense", "sparse"}) {
        TrainParams p = DistParams(3);
        p.quantize_hist = true;
        p.comm_compress = compress;
        const std::string oracle =
            SerializeModel(OracleTrain(*data, workers, p));
        // Two threads per worker run the sibling subtractions in parallel.
        for (const int threads : {1, 2}) {
          const DistributedResult result =
              DistributedGbdt::Train(*data, workers, p, threads);
          EXPECT_EQ(oracle, SerializeModel(result.model))
              << "workers=" << workers << " compress=" << compress
              << " threads=" << threads
              << " sparse=" << (data == &sparse_data);
          ExpectFewerHistsThanBuildBoth(result, p.num_trees);
        }
      }
    }
  }
}

// Two shards whose root split sends most of rank 0's rows left and most of
// rank 1's rows right: rank 1's locally smaller child is the globally
// larger one. Ranks that chose by local counts would exchange different
// nodes' histograms; the choice must use the global counts.
TEST(DistributedGbdt, SubtractionChoosesByGlobalRowCounts) {
  const uint32_t rows = 1200;
  const uint32_t features = 3;
  Rng rng(5309);
  std::vector<float> values(static_cast<size_t>(rows) * features);
  std::vector<float> labels(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    const double low_share = r < rows / 2 ? 0.9 : 0.25;
    const bool low = rng.Bernoulli(low_share);
    const float x0 =
        static_cast<float>(0.5 * rng.NextDouble() + (low ? 0.0 : 0.5));
    const float x1 = static_cast<float>(rng.NextDouble());
    values[static_cast<size_t>(r) * features] = x0;
    values[static_cast<size_t>(r) * features + 1] = x1;
    values[static_cast<size_t>(r) * features + 2] =
        static_cast<float>(rng.NextDouble());
    labels[r] = (x0 + 0.2f * x1 > 0.6f) ? 1.0f : 0.0f;
  }
  const Dataset data =
      Dataset::FromDense(rows, features, std::move(values), std::move(labels));

  for (const char* compress : {"dense", "sparse"}) {
    TrainParams p = DistParams(3);
    p.quantize_hist = true;
    p.comm_compress = compress;
    const DistributedResult result = DistributedGbdt::Train(data, 2, p);
    EXPECT_EQ(SerializeModel(OracleTrain(data, 2, p)),
              SerializeModel(result.model))
        << "compress=" << compress;

    // The layout does what the test needs: at the first root split, rank
    // 1's smaller side is the other side globally.
    const RegTree& tree = result.model.tree(0);
    const TreeNode& root = tree.node(0);
    ASSERT_FALSE(root.IsLeaf());
    uint32_t rank1_left = 0;
    for (uint32_t r = rows / 2; r < rows; ++r) {
      if (data.At(r, root.split_feature) <= root.split_value) ++rank1_left;
    }
    const uint32_t rank1_right = rows / 2 - rank1_left;
    const bool global_left_smaller =
        tree.node(root.left).num_rows <= tree.node(root.right).num_rows;
    EXPECT_NE(global_left_smaller, rank1_left <= rank1_right);
  }
}

// f64 cells subtract only on request, as in single-node training; the
// sharded loop then builds the same trees at every worker count.
TEST(DistributedGbdt, F64SubtractionKeepsStructureAcrossWorkers) {
  const Dataset data = TrainData(3000);
  TrainParams p = DistParams();
  p.use_hist_subtraction = true;
  const DistributedResult one = DistributedGbdt::Train(data, 1, p);
  for (const int workers : {2, 3, 4}) {
    const DistributedResult many = DistributedGbdt::Train(data, workers, p);
    ExpectSameTrees(one.model, many.model, workers);
    ExpectFewerHistsThanBuildBoth(many, p.num_trees);
  }
}

// rows == workers: every shard holds exactly one row, so after the first
// split most nodes are empty on most ranks — their local histograms are
// all-zero and their sparse frames header-only.
TEST(DistributedGbdt, OneRowShards) {
  const Dataset data = TrainData(6);
  for (const char* compress : {"dense", "sparse"}) {
    TrainParams p = DistParams(2);
    p.tree_size = 3;
    p.comm_compress = compress;
    const DistributedResult result = DistributedGbdt::Train(data, 6, p);
    EXPECT_EQ(result.model.NumTrees(), 2u);
    for (const RegTree& tree : result.model.trees()) {
      EXPECT_TRUE(tree.CheckValid());
    }
  }
}

// ---------- SocketTransport ----------

// Distinct base port per test process; tests in this binary run
// sequentially and use different offsets.
int TestPort(int offset) { return 21100 + (getpid() % 997) * 7 % 8000 + offset; }

TEST(SocketTransport, CollectivesMatchInProcessSemantics) {
  const int world = 3;
  const int port = TestPort(0);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int rank = 0; rank < world; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        auto transport = SocketTransport::Create(rank, world, port);
        double sum[2] = {static_cast<double>(rank + 1), 0.5};
        transport->AllreduceSum(sum, 2);
        if (sum[0] != 6.0 || sum[1] != 1.5) ++failures;
        int64_t isum = rank;
        transport->AllreduceSum(&isum, 1);
        if (isum != 3) ++failures;
        double mx = rank == 1 ? 9.0 : -1.0;
        transport->AllreduceMax(&mx, 1);
        if (mx != 9.0) ++failures;
        int payload = rank == 2 ? 77 : 0;
        transport->Broadcast(&payload, sizeof(payload), 2);
        if (payload != 77) ++failures;
        transport->Barrier();
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SocketTransport, TrainedModelMatchesInProcessBitwise) {
  const Dataset data = TrainData(900);
  TrainParams p = DistParams(2);
  p.tree_size = 3;
  p.quantize_hist = true;
  p.comm_compress = "sparse";
  const int world = 3;
  const DistributedResult inproc = DistributedGbdt::Train(data, world, p);
  const std::string expect = SerializeModel(inproc.model);

  const int port = TestPort(10);
  std::vector<std::string> models(world);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int rank = 0; rank < world; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        auto transport = SocketTransport::Create(rank, world, port);
        Communicator comm(*transport);
        models[static_cast<size_t>(rank)] = SerializeModel(
            DistributedGbdt::TrainShard(data, comm, p));
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (int rank = 0; rank < world; ++rank) {
    EXPECT_EQ(models[static_cast<size_t>(rank)], expect) << "rank " << rank;
  }
}

TEST(SocketTransport, RejectsMalformedHandshakeFrame) {
  const int port = TestPort(20);
  std::atomic<bool> threw{false};
  std::thread root([&] {
    try {
      // The handshake validates every frame; garbage must throw, not be
      // interpreted.
      SocketTransport::Create(0, 2, port, /*timeout_ms=*/5000);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  });
  std::thread client([&] {
    // Raw TCP client sending 64 bytes of garbage instead of a hello.
    int fd = -1;
    for (int attempt = 0; attempt < 200; ++attempt) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        break;
      }
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ASSERT_GE(fd, 0) << "could not connect to test root";
    uint8_t garbage[64];
    std::memset(garbage, 0xAB, sizeof(garbage));
    (void)::send(fd, garbage, sizeof(garbage), 0);
    ::close(fd);
  });
  root.join();
  client.join();
  EXPECT_TRUE(threw.load());
}

}  // namespace
}  // namespace harp
