#include "core/split_evaluator.h"

#include <bit>
#include <vector>

namespace harp {
namespace {

// True when the two pairs differ in any bit. Equal bits are what makes two
// prefixes' gains equal; `==` would also equate +0.0 with -0.0.
inline bool BitsDiffer(const GHPair& a, const GHPair& b) {
  return ((std::bit_cast<uint64_t>(a.g) ^ std::bit_cast<uint64_t>(b.g)) |
          (std::bit_cast<uint64_t>(a.h) ^ std::bit_cast<uint64_t>(b.h))) != 0;
}

// One feature's compacted candidates: the left prefix (SoA) and bin id of
// every kept split bin, and the gain of each in both missing directions.
struct FindScratch {
  std::vector<double> prefix_g;
  std::vector<double> prefix_h;
  std::vector<uint32_t> bin;
  std::vector<double> gain_right;  // missing goes right
  std::vector<double> gain_left;   // missing goes left

  void Reserve(size_t n) {
    if (bin.size() >= n) return;
    prefix_g.resize(n);
    prefix_h.resize(n);
    bin.resize(n);
    gain_right.resize(n);
    gain_left.resize(n);
  }
};

}  // namespace

SplitInfo SplitEvaluator::FindBestSplit(const BinnedMatrix& matrix,
                                        const GHPair* hist,
                                        const GHPair& node_sum,
                                        uint32_t feature_begin,
                                        uint32_t feature_end,
                                        const uint8_t* column_mask) const {
  // Reused across features and calls; thread_local because FindBestSplit
  // runs concurrently from find tasks.
  thread_local FindScratch scratch;
  const double lambda = reg_lambda_;
  const double min_weight = min_child_weight_;
  const double gamma = min_split_loss_;
  const double parent_score = ChildScore(node_sum);

  SplitInfo best;
  // A candidate must beat this strictly: 0 while nothing valid was found
  // (IsValid is gain > 0), then the best gain so far. Candidates arrive in
  // ascending (feature, bin, missing-right, missing-left) order, so the
  // strict > is exactly SplitInfo::BetterThan's lowest-index tie-break.
  double best_gain = 0.0;
  for (uint32_t f = feature_begin; f < feature_end; ++f) {
    if (column_mask != nullptr && column_mask[f] == 0) continue;
    const uint32_t offset = matrix.BinOffset(f);
    const uint32_t num_bins = matrix.NumBins(f);  // includes missing bin 0
    if (num_bins < 3) continue;  // need at least two value bins to split
    const GHPair missing = hist[offset];
    // Left/right default decisions are identical when the node has no
    // missing rows for this feature, so the missing-left pass is skipped.
    const bool has_missing = missing.g != 0.0 || missing.h != 0.0;

    // 1. Compacted ascending prefix pass. `running` after bin b is the
    // left sum at split bin b — the same left-to-right accumulation order
    // (hence the same floating-point values) as summing them in a split
    // loop — and after the last bin it is the present-values total. Using
    // node_sum - missing for the total would be wrong: rows missing in
    // OTHER features still count here. Split bin b is kept when its prefix
    // differs bitwise from bin b-1's. An equal prefix means equal gains in
    // both missing directions (every gain input is the same bits), and the
    // lower bin wins that tie, so a dropped bin could never be the winner.
    // In small nodes most cells are empty and most bins drop out.
    scratch.Reserve(num_bins);
    double* const prefix_g = scratch.prefix_g.data();
    double* const prefix_h = scratch.prefix_h.data();
    uint32_t* const bin = scratch.bin.data();
    GHPair running;
    running += hist[offset + 1];
    prefix_g[0] = running.g;
    prefix_h[0] = running.h;
    bin[0] = 1;
    uint32_t kept = 1;
    for (uint32_t b = 2; b + 1 < num_bins; ++b) {
      const GHPair previous = running;
      running += hist[offset + b];
      // Branch-free compaction: always write, advance only when kept.
      prefix_g[kept] = running.g;
      prefix_h[kept] = running.h;
      bin[kept] = b;
      kept += BitsDiffer(previous, running) ? 1u : 0u;
    }
    running += hist[offset + num_bins - 1];
    const GHPair present_total = running;

    // 2. Branch-free gain loops over the kept bins. The expressions and
    // their operation order are SplitGain's (with ChildScore(node_sum)
    // hoisted), so each gain is bit-identical to the per-candidate
    // evaluation. The child-weight check is left to the argmax: selecting
    // -inf here would make the compiler sink the divisions under a branch.
    double* const gain_right = scratch.gain_right.data();
    for (uint32_t i = 0; i < kept; ++i) {
      const double left_g = prefix_g[i];
      const double left_h = prefix_h[i];
      const double right_g = node_sum.g - left_g;
      const double right_h = node_sum.h - left_h;
      gain_right[i] = 0.5 * (left_g * left_g / (left_h + lambda) +
                             right_g * right_g / (right_h + lambda) -
                             parent_score) -
                      gamma;
    }
    double* const gain_left = scratch.gain_left.data();
    if (has_missing) {
      for (uint32_t i = 0; i < kept; ++i) {
        const double right_g = present_total.g - prefix_g[i];
        const double right_h = present_total.h - prefix_h[i];
        const double left_g = node_sum.g - right_g;
        const double left_h = node_sum.h - right_h;
        gain_left[i] = 0.5 * (left_g * left_g / (left_h + lambda) +
                              right_g * right_g / (right_h + lambda) -
                              parent_score) -
                       gamma;
      }
    }

    // 3. Ordered argmax: strict > in (bin, missing-right, missing-left)
    // order, over the candidates whose children both satisfy
    // min_child_weight (SatisfiesChildWeight on the same child sums). NaN
    // gains never compare greater, as IsValid rejects them.
    int64_t winner = -1;
    bool winner_left = false;
    for (uint32_t i = 0; i < kept; ++i) {
      const double left_h = prefix_h[i];
      if (gain_right[i] > best_gain && left_h >= min_weight &&
          node_sum.h - left_h >= min_weight) {
        best_gain = gain_right[i];
        winner = i;
        winner_left = false;
      }
      if (has_missing && gain_left[i] > best_gain) {
        const double right_h = present_total.h - left_h;
        if (right_h >= min_weight && node_sum.h - right_h >= min_weight) {
          best_gain = gain_left[i];
          winner = i;
          winner_left = true;
        }
      }
    }
    if (winner < 0) continue;

    // The winner's child sums, by the same expressions as its gain.
    const GHPair left_present{prefix_g[winner], prefix_h[winner]};
    GHPair left;
    GHPair right;
    if (winner_left) {
      right = present_total - left_present;
      left = node_sum - right;
    } else {
      left = left_present;
      right = node_sum - left;
    }
    best = SplitInfo{best_gain, f, bin[winner], winner_left, left, right};
  }
  return best;
}

}  // namespace harp
