// Fig. 4 — Trend of training-time breakdown over tree size (HIGGS).
//
// The paper runs XGB-Depth, XGB-Leaf and LightGBM at tree sizes 8/10/12
// and shows BuildHist growing ~O(2^D) even for depthwise growth (where the
// algorithmic cost is O(N*D)): the growth is parallel overhead from
// leaf-by-leaf synchronization. We reproduce the per-phase breakdown and
// the normalized growth curves, plus the machine-independent evidence:
// parallel-region counts growing with the leaf count.
#include "bench_common.h"

namespace {

using namespace harp;
using namespace harp::bench;

struct Row {
  std::string trainer;
  int d;
  TrainStats stats;
};

}  // namespace

int main() {
  PrintTitle("Fig. 4", "training-time breakdown over tree size (HIGGS-like)",
             "BuildHist dominates and grows ~O(2^D) for XGBoost/LightGBM "
             "even in depthwise mode; barrier count is proportional to the "
             "number of leaves");

  Prepared data = Prepare(HiggsSpec(0.5 * Scale()), 0.0,
                          /*column_major=*/true);
  std::printf("dataset: %u rows x %u features\n\n", data.train.num_rows(),
              data.train.num_features());

  const std::vector<int> sizes{6, 8, 10};
  std::vector<Row> rows;
  for (int d : sizes) {
    {
      TrainStats stats;
      baselines::XgbHistTrainer(
          BaselineParams(d, GrowPolicy::kDepthwise))
          .TrainBinned(data.matrix, data.train.labels(), &stats);
      rows.push_back(Row{"XGB-Depth", d, stats});
    }
    {
      TrainStats stats;
      baselines::XgbHistTrainer(BaselineParams(d, GrowPolicy::kLeafwise))
          .TrainBinned(data.matrix, data.train.labels(), &stats);
      rows.push_back(Row{"XGB-Leaf", d, stats});
    }
    {
      TrainStats stats;
      baselines::LightGbmTrainer(BaselineParams(d, GrowPolicy::kLeafwise))
          .TrainBinned(data.matrix, data.train.labels(), &stats);
      rows.push_back(Row{"LightGBM", d, stats});
    }
  }

  for (const Row& r : rows) {
    ReportStats("fig04", StrFormat("%s_D%d", r.trainer.c_str(), r.d),
                r.stats);
  }
  std::printf("%-10s %3s %12s %12s %12s %12s %10s %8s\n", "trainer", "D",
              "BuildHist", "FindSplit", "ApplySplit", "ms/tree", "regions",
              "leaves");
  for (const Row& r : rows) {
    const double per_tree = 1.0 / std::max(1, r.stats.trees);
    std::printf("%-10s %3d %10.2fms %10.2fms %10.2fms %10.2fms %10lld %8lld\n",
                r.trainer.c_str(), r.d,
                NsToMs(r.stats.build_hist_ns) * per_tree,
                NsToMs(r.stats.find_split_ns) * per_tree,
                NsToMs(r.stats.apply_split_ns) * per_tree,
                MsPerTree(r.stats),
                static_cast<long long>(r.stats.sync.parallel_regions /
                                       std::max(1, r.stats.trees)),
                static_cast<long long>(r.stats.leaves /
                                       std::max(1, r.stats.trees)));
  }

  // ApplySplit-phase counters (the baselines apply per node, so batches
  // only counts their large-node parallel applications; allocs collapse
  // to ~0 after the first tree's arena warmup).
  std::printf("\n%-10s %3s %10s %10s %10s %12s %8s\n", "trainer", "D",
              "ap.splits", "ap.batch", "ap.barr", "ap.moved", "ap.alloc");
  for (const Row& r : rows) {
    std::printf("%-10s %3d %10lld %10lld %10lld %10lldKB %8lld\n",
                r.trainer.c_str(), r.d,
                static_cast<long long>(r.stats.apply_splits),
                static_cast<long long>(r.stats.apply_batches),
                static_cast<long long>(r.stats.apply_barriers),
                static_cast<long long>(r.stats.apply_bytes_moved / 1024),
                static_cast<long long>(r.stats.apply_allocs));
  }

  std::printf("\nBuildHist time normalized to D=%d (the paper's Fig. 4 "
              "curves, exponential for the leaf-by-leaf systems):\n",
              sizes.front());
  std::printf("%-10s", "trainer");
  for (int d : sizes) std::printf("    D%-4d", d);
  std::printf("\n");
  for (const char* name : {"XGB-Depth", "XGB-Leaf", "LightGBM"}) {
    std::printf("%-10s", name);
    double base = 0.0;
    for (const Row& r : rows) {
      if (r.trainer != name) continue;
      const double build =
          NsToMs(r.stats.build_hist_ns) /
          std::max(1, r.stats.trees);
      if (base == 0.0) base = build;
      std::printf(" %8.2fx", build / base);
    }
    std::printf("\n");
  }
  std::printf("\nbarrier (parallel-region) count per tree grows with the "
              "leaf count 2^D — the machine-independent form of the "
              "paper's claim.\n");

  // Contrast: HarpGBDT's SYNC trainer on the same workload. Each TopK
  // batch of K leaves runs as ONE resident parallel region whose phases
  // are sequenced through in-region barriers.
  std::printf("\nHarpGBDT SYNC (D=8, K=32):\n");
  std::printf("%-10s %12s %12s %12s %12s %10s %10s %10s\n", "trainer",
              "BuildHist", "FindSplit", "ApplySplit", "ms/tree", "regions",
              "launch/bat", "barr/bat");
  {
    const TrainParams p = HarpParams(8, ParallelMode::kSYNC);
    TrainStats stats;
    GbdtTrainer(p).TrainBinned(data.matrix, data.train.labels(), &stats);
    ReportStats("fig04", "harp_sync", stats);
    const double per_tree = 1.0 / std::max(1, stats.trees);
    const double per_batch =
        1.0 / static_cast<double>(std::max<int64_t>(1, stats.topk_batches));
    std::printf(
        "%-10s %10.2fms %10.2fms %10.2fms %10.2fms %10lld %10.2f %10.2f\n",
        "HarpGBDT", NsToMs(stats.build_hist_ns) * per_tree,
        NsToMs(stats.find_split_ns) * per_tree,
        NsToMs(stats.apply_split_ns) * per_tree, MsPerTree(stats),
        static_cast<long long>(stats.sync.parallel_regions /
                               std::max(1, stats.trees)),
        static_cast<double>(stats.grow_region_launches) * per_batch,
        static_cast<double>(stats.grow_phase_barriers) * per_batch);
  }
  return 0;
}
