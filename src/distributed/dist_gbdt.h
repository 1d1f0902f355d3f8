// Distributed GBDT training over a pluggable transport.
//
// Histogram-aggregation data parallelism, the design distributed XGBoost
// and LightGBM use and the paper names as future work: rows are sharded
// across W ranks, and every rank grows its trees with the single-node
// HarpTreeBuilder, given the rank's Communicator. The builder exchanges
// at four points: the quantization stats, the root's sum, row count and
// histogram, each batch's child row counts, and each batch's built child
// histograms (dense f64 or the compressed SparseHistogram format, selected
// by TrainParams::comm_compress). Every rank then makes the identical
// (deterministic) split decision, so no split is broadcast. Subtraction
// picks the smaller child by GLOBAL row count, so all ranks exchange the
// same nodes. Sharded training runs DP (params.mode is overridden): DP's
// batch has one point where every histogram is final. Datasets with query
// groups are sharded on query boundaries, so per-query objectives
// (LambdaRank) train sharded too. The returned model is bitwise identical
// on every rank, for both exchange encodings and both transport backends.
#pragma once

#include <vector>

#include "core/gbdt.h"
#include "distributed/communicator.h"

namespace harp {

struct DistributedResult {
  GbdtModel model;   // rank 0's copy (all ranks build the same model)
  TrainStats stats;  // rank 0's training stats
  CommStats comm;    // communication counters aggregated over all ranks
  std::vector<CommStats> per_rank;  // each rank's own counters
  int workers = 1;
  double seconds = 0.0;
};

class DistributedGbdt {
 public:
  // Shards `dataset` over `workers` in-process workers (threads over an
  // InProcessTransport) and trains params.num_trees trees.
  // `worker_threads` sizes each worker's intra-worker ThreadPool (default
  // 1: the workers are the parallelism).
  static DistributedResult Train(const Dataset& dataset, int workers,
                                 const TrainParams& params,
                                 int worker_threads = 1);

  // One rank's share of a sharded run over an externally created
  // transport (e.g. SocketTransport in a real multi-process launch).
  // `dataset` is the FULL dataset: every rank computes identical quantile
  // cuts from it and trains on the comm.rank()-th shard, so separately
  // launched processes stay in lockstep. Returns this rank's model —
  // bitwise identical on every rank — and fills `stats` when non-null.
  static GbdtModel TrainShard(const Dataset& dataset, Communicator& comm,
                              const TrainParams& params,
                              int worker_threads = 1,
                              TrainStats* stats = nullptr);
};

}  // namespace harp
