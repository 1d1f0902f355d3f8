#include "distributed/dist_gbdt.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "core/tree_builder.h"

namespace harp {
namespace {

// Shard boundaries: rank r owns rows [bounds[r], bounds[r + 1]). Without
// query groups these are the contiguous ranges rows * r / W. With groups
// each boundary snaps to the first query starting at or after it, kept
// at least one query past the previous boundary and one query per rank
// short of the end, so no query is split and no shard is empty.
std::vector<uint32_t> ShardBounds(const Dataset& dataset, int world) {
  const uint32_t rows = dataset.num_rows();
  std::vector<uint32_t> bounds(static_cast<size_t>(world) + 1, rows);
  for (int r = 0; r < world; ++r) {
    bounds[static_cast<size_t>(r)] =
        static_cast<uint32_t>(static_cast<uint64_t>(rows) * r / world);
  }
  if (!dataset.has_groups()) return bounds;

  const std::vector<uint32_t>& group_ptr = dataset.group_ptr();
  const int64_t groups = dataset.num_groups();
  HARP_CHECK(world <= groups)
      << "sharded training of grouped data needs at least one query per "
         "rank ("
      << world << " ranks, " << groups << " queries)";
  int64_t g = 0;
  for (int r = 1; r < world; ++r) {
    const int64_t snapped =
        std::lower_bound(group_ptr.begin(), group_ptr.end(),
                         bounds[static_cast<size_t>(r)]) -
        group_ptr.begin();
    g = std::clamp(snapped, g + 1, groups - (world - r));
    bounds[static_cast<size_t>(r)] = group_ptr[static_cast<size_t>(g)];
  }
  return bounds;
}

// One rank's training: bins its shard with the global cuts and runs the
// shared boosting loop with the single-node builder, which agrees with
// the other ranks through `comm`.
GbdtModel TrainOnShard(Communicator& comm, const Dataset& shard,
                       uint32_t first_row, const QuantileCuts& cuts,
                       const TrainParams& params, int worker_threads,
                       TrainStats* stats) {
  TrainParams dp = params;
  dp.mode = ParallelMode::kDP;
  const BinnedMatrix matrix = BinnedMatrix::Build(shard, cuts);
  ThreadPool pool(std::max(1, worker_threads));
  HarpTreeBuilder builder(matrix, dp, pool, &comm);
  return RunBoosting(matrix, shard.labels(), dp, pool, builder, stats, {},
                     nullptr, first_row);
}

}  // namespace

GbdtModel DistributedGbdt::TrainShard(const Dataset& dataset,
                                      Communicator& comm,
                                      const TrainParams& params,
                                      int worker_threads, TrainStats* stats) {
  params.Validate();
  const int world = comm.world_size();
  HARP_CHECK_LE(static_cast<uint32_t>(world), dataset.num_rows());

  // Global quantile cuts, computed identically in every process (a real
  // deployment would merge distributed sketches; see GkSketch::Merge).
  const QuantileCuts cuts = QuantileCuts::Compute(dataset, params.max_bins);
  const std::vector<uint32_t> bounds = ShardBounds(dataset, world);
  const uint32_t begin = bounds[static_cast<size_t>(comm.rank())];
  const uint32_t end = bounds[static_cast<size_t>(comm.rank()) + 1];
  return TrainOnShard(comm, dataset.Slice(begin, end), begin, cuts, params,
                      worker_threads, stats);
}

DistributedResult DistributedGbdt::Train(const Dataset& dataset, int workers,
                                         const TrainParams& params,
                                         int worker_threads) {
  params.Validate();
  HARP_CHECK_GE(workers, 1);
  HARP_CHECK_LE(static_cast<uint32_t>(workers), dataset.num_rows());

  const QuantileCuts cuts = QuantileCuts::Compute(dataset, params.max_bins);
  const std::vector<uint32_t> bounds = ShardBounds(dataset, workers);
  std::vector<Dataset> shards;
  shards.reserve(static_cast<size_t>(workers));
  for (size_t w = 0; w < static_cast<size_t>(workers); ++w) {
    shards.push_back(dataset.Slice(bounds[w], bounds[w + 1]));
  }

  DistributedResult result;
  result.workers = workers;
  std::vector<GbdtModel> models(static_cast<size_t>(workers));
  std::vector<CommStats> per_rank(static_cast<size_t>(workers));

  const Stopwatch watch;
  SimulatedCluster cluster(workers);
  cluster.Run([&](Communicator& comm) {
    const size_t rank = static_cast<size_t>(comm.rank());
    models[rank] =
        TrainOnShard(comm, shards[rank], bounds[rank], cuts, params,
                     worker_threads, rank == 0 ? &result.stats : nullptr);
    per_rank[rank] = comm.stats();
  });
  result.seconds = watch.ElapsedSec();
  result.comm = cluster.TotalStats();
  result.per_rank = std::move(per_rank);
  result.model = std::move(models[0]);
  return result;
}

}  // namespace harp
