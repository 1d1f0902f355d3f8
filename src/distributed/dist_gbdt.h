// Distributed GBDT training over a pluggable transport.
//
// Histogram-aggregation data parallelism, the design distributed XGBoost
// and LightGBM use and the paper names as future work: rows are sharded
// across W workers; every worker builds local histograms for the current
// candidate batch (on the PR 1 kernel layer, threaded inside the worker),
// one histogram exchange — dense f64 or the compressed SparseHistogram
// format, selected by TrainParams::comm_compress — produces the global
// histograms, and each worker then makes the identical (deterministic)
// split decision — no split broadcast needed. When a split's parent kept
// its global histogram, only the smaller child (by global row count) is
// built and exchanged, and every worker derives the sibling as parent -
// smaller when use_hist_subtraction is set (exact for quantized cells). The
// returned model is bitwise identical on every worker, for both exchange
// encodings, and for both transport backends.
#pragma once

#include <vector>

#include "core/gbdt.h"
#include "distributed/communicator.h"

namespace harp {

struct DistributedResult {
  GbdtModel model;   // rank 0's copy (all ranks build the same model)
  CommStats comm;    // communication counters aggregated over all ranks
  std::vector<CommStats> per_rank;  // each rank's own counters
  int workers = 1;
  double seconds = 0.0;
};

class DistributedGbdt {
 public:
  // Shards `dataset` by contiguous row ranges over `workers` in-process
  // workers (threads over an InProcessTransport) and trains
  // params.num_trees trees. `worker_threads` sizes each worker's intra-
  // worker ThreadPool (default 1: the workers are the parallelism).
  static DistributedResult Train(const Dataset& dataset, int workers,
                                 const TrainParams& params,
                                 int worker_threads = 1);

  // One rank's share of a sharded run over an externally created
  // transport (e.g. SocketTransport in a real multi-process launch).
  // `dataset` is the FULL dataset: every rank computes identical quantile
  // cuts from it and trains on the comm.rank()-th contiguous row shard, so
  // separately launched processes stay in lockstep. Returns this rank's
  // model — bitwise identical on every rank.
  static GbdtModel TrainShard(const Dataset& dataset, Communicator& comm,
                              const TrainParams& params,
                              int worker_threads = 1);
};

}  // namespace harp
