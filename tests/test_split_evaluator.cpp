// Tests for the Eq. 2 / Eq. 3 arithmetic and histogram split enumeration,
// including a brute-force cross-check over raw rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "core/split_evaluator.h"
#include "test_util.h"

namespace harp {
namespace {

using harp::testing::AllRows;
using harp::testing::MakeDataset;
using harp::testing::MakeGradients;
using harp::testing::NaiveHist;
using harp::testing::SumGh;

TrainParams BaseParams() {
  TrainParams p;
  p.reg_lambda = 1.0;
  p.min_split_loss = 0.0;
  p.min_child_weight = 0.0;
  p.learning_rate = 0.1;
  return p;
}

TEST(SplitEvaluator, LeafWeightFormula) {
  const SplitEvaluator eval(BaseParams());
  const GHPair sum{4.0, 3.0};
  EXPECT_DOUBLE_EQ(eval.RawLeafWeight(sum), -4.0 / (3.0 + 1.0));
  EXPECT_DOUBLE_EQ(eval.LeafValue(sum), 0.1 * -1.0);
}

TEST(SplitEvaluator, GainFormulaHandComputed) {
  TrainParams p = BaseParams();
  p.min_split_loss = 0.5;  // gamma
  const SplitEvaluator eval(p);
  const GHPair left{2.0, 1.0};
  const GHPair right{-3.0, 2.0};
  const GHPair parent = left + right;
  // 0.5*(4/2 + 9/3 - 1/4) - 0.5
  const double expected = 0.5 * (2.0 + 3.0 - 0.25) - 0.5;
  EXPECT_NEAR(eval.SplitGain(parent, left, right), expected, 1e-12);
}

TEST(SplitEvaluator, GammaShiftsGain) {
  TrainParams p = BaseParams();
  const GHPair left{2.0, 1.0};
  const GHPair right{-1.0, 1.5};
  const GHPair parent = left + right;
  p.min_split_loss = 0.0;
  const double g0 = SplitEvaluator(p).SplitGain(parent, left, right);
  p.min_split_loss = 1.0;
  const double g1 = SplitEvaluator(p).SplitGain(parent, left, right);
  EXPECT_NEAR(g0 - g1, 1.0, 1e-12);
}

TEST(SplitEvaluator, MinChildWeightBlocksSplits) {
  // One feature, two bins, tiny hessian on one side.
  const Dataset ds = Dataset::FromDense(
      4, 1, {0.0f, 0.0f, 0.0f, 1.0f}, {0, 0, 0, 1});
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 256));
  std::vector<GradientPair> gh{{1.0f, 0.4f}, {1.0f, 0.4f},
                               {1.0f, 0.4f}, {-3.0f, 0.1f}};
  const auto rows = AllRows(4);
  const auto hist = NaiveHist(matrix, gh, rows);
  const GHPair total = SumGh(gh, rows);

  TrainParams p = BaseParams();
  p.min_child_weight = 0.0;
  const SplitInfo allowed = SplitEvaluator(p).FindBestSplit(
      matrix, hist.data(), total, 0, 1);
  EXPECT_TRUE(allowed.IsValid());

  p.min_child_weight = 0.5;  // right child h = 0.1 < 0.5 -> rejected
  const SplitInfo blocked = SplitEvaluator(p).FindBestSplit(
      matrix, hist.data(), total, 0, 1);
  EXPECT_FALSE(blocked.IsValid());
}

TEST(SplitEvaluator, PicksObviousSplit) {
  // Feature 0 separates gradients perfectly; feature 1 is noise.
  const Dataset ds = Dataset::FromDense(
      6, 2,
      {0.0f, 5.0f, 0.0f, 6.0f, 0.0f, 5.0f,
       1.0f, 6.0f, 1.0f, 5.0f, 1.0f, 6.0f},
      {0, 0, 0, 1, 1, 1});
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 256));
  std::vector<GradientPair> gh(6);
  for (int i = 0; i < 6; ++i) {
    gh[static_cast<size_t>(i)] = {i < 3 ? 1.0f : -1.0f, 1.0f};
  }
  const auto rows = AllRows(6);
  const auto hist = NaiveHist(matrix, gh, rows);
  const SplitInfo split = SplitEvaluator(BaseParams()).FindBestSplit(
      matrix, hist.data(), SumGh(gh, rows), 0, 2);
  ASSERT_TRUE(split.IsValid());
  EXPECT_EQ(split.feature, 0u);
  EXPECT_EQ(split.bin, 1u);  // first bin of feature 0 holds value 0.0
  EXPECT_NEAR(split.left_sum.g, 3.0, 1e-12);
  EXPECT_NEAR(split.right_sum.g, -3.0, 1e-12);
}

TEST(SplitEvaluator, ChildSumsAddUpToParent) {
  const Dataset ds = MakeDataset(300, 5, 0.8, 41);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(300, 42);
  const auto rows = AllRows(300);
  const auto hist = NaiveHist(matrix, gh, rows);
  const GHPair total = SumGh(gh, rows);
  const SplitInfo split = SplitEvaluator(BaseParams()).FindBestSplit(
      matrix, hist.data(), total, 0, 5);
  ASSERT_TRUE(split.IsValid());
  EXPECT_NEAR(split.left_sum.g + split.right_sum.g, total.g, 1e-9);
  EXPECT_NEAR(split.left_sum.h + split.right_sum.h, total.h, 1e-9);
}

// Brute force over raw rows: for every (feature, bin, default direction),
// partition rows directly and compute the gain; the evaluator must find the
// same maximum gain.
TEST(SplitEvaluator, MatchesBruteForceEnumeration) {
  TrainParams p = BaseParams();
  p.min_split_loss = 0.1;
  p.min_child_weight = 0.2;
  const SplitEvaluator eval(p);

  for (uint64_t seed : {1u, 2u, 3u}) {
    const Dataset ds = MakeDataset(120, 4, 0.75, seed, /*distinct=*/8);
    const BinnedMatrix matrix =
        BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 256));
    const auto gh = MakeGradients(120, seed + 100);
    const auto rows = AllRows(120);
    const auto hist = NaiveHist(matrix, gh, rows);
    const GHPair total = SumGh(gh, rows);

    double best_gain = 0.0;
    for (uint32_t f = 0; f < matrix.num_features(); ++f) {
      for (uint32_t bin = 1; bin + 1 < matrix.NumBins(f); ++bin) {
        for (bool default_left : {false, true}) {
          GHPair left;
          for (uint32_t rid : rows) {
            const uint8_t b = matrix.Bin(rid, f);
            const bool goes_left =
                b == 0 ? default_left : b <= bin;
            if (goes_left) left.Add(gh[rid].g, gh[rid].h);
          }
          const GHPair right = total - left;
          if (left.h < p.min_child_weight || right.h < p.min_child_weight) {
            continue;
          }
          best_gain =
              std::max(best_gain, eval.SplitGain(total, left, right));
        }
      }
    }

    const SplitInfo found = eval.FindBestSplit(matrix, hist.data(), total, 0,
                                               matrix.num_features());
    if (best_gain <= 0.0) {
      EXPECT_FALSE(found.IsValid());
    } else {
      ASSERT_TRUE(found.IsValid());
      EXPECT_NEAR(found.gain, best_gain, 1e-9) << "seed " << seed;
    }
  }
}

// Partitioning the feature range must not change the merged winner.
TEST(SplitEvaluator, FeatureRangeMergeIsDeterministic) {
  const Dataset ds = MakeDataset(200, 8, 0.9, 7);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 32));
  const auto gh = MakeGradients(200, 8);
  const auto rows = AllRows(200);
  const auto hist = NaiveHist(matrix, gh, rows);
  const GHPair total = SumGh(gh, rows);
  const SplitEvaluator eval(BaseParams());

  const SplitInfo whole =
      eval.FindBestSplit(matrix, hist.data(), total, 0, 8);
  for (uint32_t chunk : {1u, 2u, 3u, 5u}) {
    SplitInfo merged;
    for (uint32_t f = 0; f < 8; f += chunk) {
      const SplitInfo part = eval.FindBestSplit(matrix, hist.data(), total,
                                                f, std::min(8u, f + chunk));
      if (part.BetterThan(merged)) merged = part;
    }
    EXPECT_EQ(merged.feature, whole.feature);
    EXPECT_EQ(merged.bin, whole.bin);
    EXPECT_EQ(merged.default_left, whole.default_left);
    EXPECT_DOUBLE_EQ(merged.gain, whole.gain);
  }
}

// Verbatim copy of the uncompacted FindBestSplit (one prefix pass, then
// every split bin evaluated in both missing directions behind branches),
// with the evaluator's members reached through `eval`. The compacted,
// branch-free FindBestSplit must reproduce it BIT FOR BIT in every
// SplitInfo field.
SplitInfo ReferenceFindBestSplit(const SplitEvaluator& eval,
                                 const BinnedMatrix& matrix,
                                 const GHPair* hist, const GHPair& node_sum,
                                 uint32_t feature_begin, uint32_t feature_end,
                                 const uint8_t* column_mask = nullptr) {
  SplitInfo best;
  thread_local std::vector<GHPair> prefix;
  for (uint32_t f = feature_begin; f < feature_end; ++f) {
    if (column_mask != nullptr && column_mask[f] == 0) continue;
    const uint32_t offset = matrix.BinOffset(f);
    const uint32_t num_bins = matrix.NumBins(f);  // includes missing bin 0
    if (num_bins < 3) continue;  // need at least two value bins to split
    const GHPair missing = hist[offset];
    const bool has_missing = missing.g != 0.0 || missing.h != 0.0;

    if (prefix.size() < num_bins) prefix.resize(num_bins);
    GHPair running;
    for (uint32_t b = 1; b < num_bins; ++b) {
      running += hist[offset + b];
      prefix[b] = running;
    }
    const GHPair present_total = prefix[num_bins - 1];

    for (uint32_t b = 1; b + 1 < num_bins; ++b) {
      const GHPair left_present = prefix[b];
      // Missing goes right (default_left = false).
      {
        const GHPair left = left_present;
        const GHPair right = node_sum - left;
        if (eval.SatisfiesChildWeight(left) &&
            eval.SatisfiesChildWeight(right)) {
          const double gain = eval.SplitGain(node_sum, left, right);
          SplitInfo candidate{gain, f, b, /*default_left=*/false, left, right};
          if (candidate.IsValid() && candidate.BetterThan(best)) {
            best = candidate;
          }
        }
      }
      // Missing goes left (default_left = true).
      if (has_missing) {
        const GHPair right = present_total - left_present;
        const GHPair left = node_sum - right;
        if (eval.SatisfiesChildWeight(left) &&
            eval.SatisfiesChildWeight(right)) {
          const double gain = eval.SplitGain(node_sum, left, right);
          SplitInfo candidate{gain, f, b, /*default_left=*/true, left, right};
          if (candidate.IsValid() && candidate.BetterThan(best)) {
            best = candidate;
          }
        }
      }
    }
  }
  return best;
}

// Every SplitInfo field equal bit for bit (so -0.0 != +0.0 here).
void ExpectSameSplit(const SplitInfo& got, const SplitInfo& want) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.gain),
            std::bit_cast<uint64_t>(want.gain));
  EXPECT_EQ(got.feature, want.feature);
  EXPECT_EQ(got.bin, want.bin);
  EXPECT_EQ(got.default_left, want.default_left);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.left_sum.g),
            std::bit_cast<uint64_t>(want.left_sum.g));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.left_sum.h),
            std::bit_cast<uint64_t>(want.left_sum.h));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.right_sum.g),
            std::bit_cast<uint64_t>(want.right_sum.g));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.right_sum.h),
            std::bit_cast<uint64_t>(want.right_sum.h));
}

TEST(SplitEvaluator, MatchesReferenceOnRandomNodesBitwise) {
  TrainParams p = BaseParams();
  p.min_child_weight = 0.2;
  const SplitEvaluator eval(p);

  // density 1.0 exercises the hoisted no-missing fast path; the sparse
  // cases exercise the default-left branch with real missing mass.
  struct Case {
    double density;
    uint64_t seed;
  };
  for (const Case& c : {Case{1.0, 51}, Case{0.75, 52}, Case{0.4, 53}}) {
    const Dataset ds = MakeDataset(400, 7, c.density, c.seed, /*distinct=*/12);
    const BinnedMatrix matrix =
        BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 32));
    const auto gh = MakeGradients(400, c.seed + 100);
    const auto rows = AllRows(400);
    const auto hist = NaiveHist(matrix, gh, rows);
    const GHPair total = SumGh(gh, rows);

    const SplitInfo got = eval.FindBestSplit(matrix, hist.data(), total, 0,
                                             matrix.num_features());
    const SplitInfo want = ReferenceFindBestSplit(
        eval, matrix, hist.data(), total, 0, matrix.num_features());

    SCOPED_TRACE(::testing::Message() << "density " << c.density);
    ExpectSameSplit(got, want);
  }
}

// A matrix whose feature f has num_bins[f] bins (missing bin included);
// only its cuts matter, the histograms below are synthesised directly.
BinnedMatrix MatrixWithBins(const std::vector<uint32_t>& num_bins) {
  std::vector<float> cuts;
  std::vector<uint32_t> cut_ptr{0};
  for (uint32_t bins : num_bins) {
    for (uint32_t c = 0; c + 1 < bins; ++c) {
      cuts.push_back(static_cast<float>(c));
    }
    cut_ptr.push_back(static_cast<uint32_t>(cuts.size()));
  }
  const auto features = static_cast<uint32_t>(num_bins.size());
  return BinnedMatrix::Build(MakeDataset(4, features, 1.0, 3),
                             QuantileCuts::FromRaw(std::move(cuts),
                                                   std::move(cut_ptr), 256));
}

// One adversarial histogram cell. Coarse dyadic values make exact sums,
// and so exact gain ties, common.
GHPair AdversarialCell(Rng& rng) {
  const auto coarse = [&rng] {
    return 0.25 * static_cast<double>(static_cast<int>(rng.NextBelow(9)) - 4);
  };
  const auto signed_zero = [&rng] { return rng.Bernoulli(0.5) ? 0.0 : -0.0; };
  switch (rng.NextBelow(8)) {
    case 0:
    case 1:
      return GHPair{};  // empty cell
    case 2:
      return GHPair{signed_zero(), signed_zero()};
    case 3:
      return GHPair{0.0, 0.25 + 0.25 * static_cast<double>(rng.NextBelow(4))};
    case 4:
      return GHPair{coarse(), 0.0};
    case 5:
      return GHPair{coarse(), 0.25 * static_cast<double>(rng.NextBelow(5))};
    case 6:
      return GHPair{rng.Normal(), rng.NextDouble()};
    default:
      return GHPair{rng.Normal(), rng.NextDouble() - 0.2};  // h may be < 0
  }
}

TEST(SplitEvaluator, MatchesReferenceOnAdversarialHistograms) {
  Rng rng(2024);
  int compared = 0;
  int valid = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Features with 1-3 bins sit among wider ones.
    const auto num_features = static_cast<uint32_t>(1 + rng.NextBelow(10));
    std::vector<uint32_t> num_bins(num_features);
    for (auto& bins : num_bins) {
      bins = rng.Bernoulli(0.3) ? static_cast<uint32_t>(1 + rng.NextBelow(3))
                                : static_cast<uint32_t>(4 + rng.NextBelow(60));
    }
    // Duplicated features create exact gain ties across features.
    if (num_features > 1 && rng.Bernoulli(0.5)) num_bins.back() = num_bins[0];
    const BinnedMatrix matrix = MatrixWithBins(num_bins);

    std::vector<GHPair> hist(matrix.TotalBins());
    for (uint32_t f = 0; f < num_features; ++f) {
      const uint32_t offset = matrix.BinOffset(f);
      const bool zero_runs = rng.Bernoulli(0.5);
      for (uint32_t b = 0; b < num_bins[f]; ++b) {
        GHPair& cell = hist[offset + b];
        if (zero_runs && rng.Bernoulli(0.7)) continue;  // runs of zeros
        // Duplicated cells create exact gain ties across bins.
        cell = (b > 1 && rng.Bernoulli(0.2)) ? hist[offset + b - 1]
                                              : AdversarialCell(rng);
      }
    }
    if (num_features > 1 && num_bins.back() == num_bins[0] &&
        rng.Bernoulli(0.7)) {
      std::copy_n(hist.begin() + matrix.BinOffset(0), num_bins[0],
                  hist.begin() + matrix.BinOffset(num_features - 1));
    }
    // Node total: feature 0's cells (a consistent node) or a perturbed
    // total (rows of other features' missing bins, or an inconsistent sum).
    GHPair node_sum;
    for (uint32_t b = 0; b < num_bins[0]; ++b) node_sum += hist[b];
    if (rng.Bernoulli(0.3)) node_sum += AdversarialCell(rng);

    std::vector<uint8_t> mask(num_features);
    for (auto& m : mask) m = rng.Bernoulli(0.75) ? 1 : 0;
    const auto begin = static_cast<uint32_t>(rng.NextBelow(num_features));
    const auto end =
        begin + 1 + static_cast<uint32_t>(rng.NextBelow(num_features - begin));

    for (const double reg_lambda : {0.0, 1.0}) {
      for (const double min_child_weight : {0.0, 0.2, 1.0}) {
        for (const double min_split_loss : {0.0, 1.0}) {
          TrainParams p = BaseParams();
          p.reg_lambda = reg_lambda;
          p.min_child_weight = min_child_weight;
          p.min_split_loss = min_split_loss;
          const SplitEvaluator eval(p);
          SCOPED_TRACE(::testing::Message()
                       << "trial " << trial << " lambda " << reg_lambda
                       << " mcw " << min_child_weight << " gamma "
                       << min_split_loss);
          const SplitInfo whole = eval.FindBestSplit(
              matrix, hist.data(), node_sum, 0, num_features);
          ExpectSameSplit(whole,
                          ReferenceFindBestSplit(eval, matrix, hist.data(),
                                                 node_sum, 0, num_features));
          ExpectSameSplit(
              eval.FindBestSplit(matrix, hist.data(), node_sum, begin, end,
                                 mask.data()),
              ReferenceFindBestSplit(eval, matrix, hist.data(), node_sum,
                                     begin, end, mask.data()));
          compared += 2;
          valid += whole.IsValid() ? 1 : 0;
        }
      }
    }
  }
  EXPECT_EQ(compared, 400 * 12 * 2);
  // The cases must actually reach the split paths, not only rejections.
  EXPECT_GT(valid, 400 * 12 / 4);
}

TEST(SplitInfoTest, BetterThanIsStrictTotalOrder) {
  SplitInfo a;
  a.gain = 1.0;
  a.feature = 2;
  a.bin = 3;
  SplitInfo b = a;
  EXPECT_FALSE(a.BetterThan(b));
  EXPECT_FALSE(b.BetterThan(a));
  b.gain = 2.0;
  EXPECT_TRUE(b.BetterThan(a));
  b.gain = a.gain;
  b.feature = 1;
  EXPECT_TRUE(b.BetterThan(a));
  b.feature = a.feature;
  b.bin = 2;
  EXPECT_TRUE(b.BetterThan(a));
  b.bin = a.bin;
  b.default_left = true;
  EXPECT_TRUE(a.BetterThan(b));  // missing-right preferred on full tie
}

TEST(SplitInfoTest, DefaultIsInvalid) {
  SplitInfo s;
  EXPECT_FALSE(s.IsValid());
}

}  // namespace
}  // namespace harp
