// Model serialization tests: bit-exact roundtrips and malformed input.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/random.h"
#include "common/string_util.h"

#include "core/gbdt.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "predict/flat_forest.h"
#include "predict/predictor.h"

namespace harp {
namespace {

GbdtModel TrainSmallModel(ObjectiveKind objective = ObjectiveKind::kLogistic) {
  SyntheticSpec spec;
  spec.rows = 800;
  spec.features = 6;
  spec.density = 0.85;
  spec.seed = 701;
  if (objective == ObjectiveKind::kSquaredError) {
    spec.label = LabelKind::kRegression;
  }
  const Dataset train = GenerateSynthetic(spec);
  TrainParams p;
  p.num_trees = 5;
  p.tree_size = 4;
  p.num_threads = 2;
  p.objective = objective;
  GbdtTrainer trainer(p);
  return trainer.Train(train);
}

TEST(ModelIo, SerializeDeserializeRoundtripExact) {
  const GbdtModel model = TrainSmallModel();
  const std::string text = SerializeModel(model);
  GbdtModel loaded;
  std::string error;
  ASSERT_TRUE(DeserializeModel(text, &loaded, &error)) << error;

  ASSERT_EQ(loaded.NumTrees(), model.NumTrees());
  EXPECT_EQ(loaded.objective(), model.objective());
  EXPECT_EQ(loaded.base_margin(), model.base_margin());
  EXPECT_EQ(loaded.cuts().cuts(), model.cuts().cuts());
  EXPECT_EQ(loaded.cuts().cut_ptr(), model.cuts().cut_ptr());
  for (size_t t = 0; t < model.NumTrees(); ++t) {
    const auto& a = model.tree(t).nodes();
    const auto& b = loaded.tree(t).nodes();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].left, b[i].left);
      EXPECT_EQ(a[i].right, b[i].right);
      EXPECT_EQ(a[i].parent, b[i].parent);
      EXPECT_EQ(a[i].split_feature, b[i].split_feature);
      EXPECT_EQ(a[i].split_bin, b[i].split_bin);
      EXPECT_EQ(a[i].split_value, b[i].split_value);  // bit-exact
      EXPECT_EQ(a[i].default_left, b[i].default_left);
      EXPECT_EQ(a[i].leaf_value, b[i].leaf_value);    // bit-exact
      EXPECT_EQ(a[i].sum.g, b[i].sum.g);
      EXPECT_EQ(a[i].num_rows, b[i].num_rows);
    }
  }
}

TEST(ModelIo, ReloadedModelPredictsIdentically) {
  const GbdtModel model = TrainSmallModel();
  SyntheticSpec spec;
  spec.rows = 300;
  spec.features = 6;
  spec.density = 0.85;
  spec.seed = 702;
  const Dataset test = GenerateSynthetic(spec);

  GbdtModel loaded;
  std::string error;
  ASSERT_TRUE(DeserializeModel(SerializeModel(model), &loaded, &error));
  const auto a = model.Predict(test);
  const auto b = loaded.Predict(test);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ModelIo, RegressionModelRoundtrips) {
  const GbdtModel model = TrainSmallModel(ObjectiveKind::kSquaredError);
  GbdtModel loaded;
  std::string error;
  ASSERT_TRUE(DeserializeModel(SerializeModel(model), &loaded, &error));
  EXPECT_EQ(loaded.objective(), ObjectiveKind::kSquaredError);
}

TEST(ModelIo, FileRoundtrip) {
  const GbdtModel model = TrainSmallModel();
  const std::string path = "/tmp/harp_model_io_test.model";
  std::string error;
  ASSERT_TRUE(SaveModel(path, model, &error)) << error;
  GbdtModel loaded;
  ASSERT_TRUE(LoadModel(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.NumTrees(), model.NumTrees());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadModel(path, &loaded, &error));
}

TEST(ModelIo, SaveLoadFlattenPredictsIdentically) {
  // save -> load -> FlatForest round-trip: the flat inference layout
  // built from a reloaded model must reproduce the original model's
  // predictions bit for bit on both input kinds.
  const GbdtModel model = TrainSmallModel();
  SyntheticSpec spec;
  spec.rows = 400;
  spec.features = 6;
  spec.density = 0.85;
  spec.seed = 703;
  const Dataset test = GenerateSynthetic(spec);
  const BinnedMatrix binned = model.BinDataset(test);

  const std::string path = "/tmp/harp_model_io_flat_test.model";
  std::string error;
  ASSERT_TRUE(SaveModel(path, model, &error)) << error;
  GbdtModel loaded;
  ASSERT_TRUE(LoadModel(path, &loaded, &error)) << error;
  std::remove(path.c_str());

  const FlatForest flat = loaded.Flatten();
  ASSERT_EQ(flat.num_trees(), model.NumTrees());
  EXPECT_EQ(flat.num_nodes(), model.TotalNodes());
  const Predictor predictor(flat);
  EXPECT_EQ(predictor.PredictMargins(binned),
            model.PredictMarginsBinned(binned));
  EXPECT_EQ(predictor.PredictMargins(test), model.PredictMargins(test));
}

GbdtModel TrainQuantileModel(double alpha) {
  SyntheticSpec spec;
  spec.rows = 800;
  spec.features = 6;
  spec.label = LabelKind::kRegression;
  spec.seed = 709;
  const Dataset train = GenerateSynthetic(spec);
  TrainParams p;
  p.num_trees = 5;
  p.tree_size = 4;
  p.num_threads = 2;
  p.objective = ObjectiveKind::kQuantile;
  p.quantile_alpha = alpha;
  p.base_score = 0.0;
  return GbdtTrainer(p).Train(train);
}

TEST(ModelIo, QuantileAlphaRoundtripsBitExact) {
  const GbdtModel model = TrainQuantileModel(0.85);
  EXPECT_EQ(model.quantile_alpha(), 0.85);
  const std::string text = SerializeModel(model);
  EXPECT_NE(text.find("quantile_alpha"), std::string::npos);
  GbdtModel loaded;
  std::string error;
  ASSERT_TRUE(DeserializeModel(text, &loaded, &error)) << error;
  EXPECT_EQ(loaded.objective(), ObjectiveKind::kQuantile);
  EXPECT_EQ(loaded.quantile_alpha(), 0.85);  // hex float: bit-exact
  // Stable fixed point with the extra line present.
  EXPECT_EQ(SerializeModel(loaded), text);
}

TEST(ModelIo, QuantileSaveLoadPredictRoundtrip) {
  const GbdtModel model = TrainQuantileModel(0.3);
  SyntheticSpec spec;
  spec.rows = 300;
  spec.features = 6;
  spec.label = LabelKind::kRegression;
  spec.seed = 710;
  const Dataset test = GenerateSynthetic(spec);
  const std::string path = "/tmp/harp_model_io_quantile_test.model";
  std::string error;
  ASSERT_TRUE(SaveModel(path, model, &error)) << error;
  GbdtModel loaded;
  ASSERT_TRUE(LoadModel(path, &loaded, &error)) << error;
  std::remove(path.c_str());
  EXPECT_EQ(loaded.quantile_alpha(), 0.3);
  // Quantile Transform is the identity: served predictions must equal
  // raw margins, bit for bit, through the save -> load round trip.
  const auto a = model.Predict(test);
  const auto b = loaded.Predict(test);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ModelIo, NonQuantileSerializationsOmitAlphaLine) {
  // Backward compatibility hinges on only quantile models emitting the
  // optional line: every other objective's files stay byte-identical to
  // the pre-alpha format.
  EXPECT_EQ(SerializeModel(TrainSmallModel()).find("quantile_alpha"),
            std::string::npos);
  EXPECT_EQ(SerializeModel(TrainSmallModel(ObjectiveKind::kSquaredError))
                .find("quantile_alpha"),
            std::string::npos);
}

TEST(ModelIo, QuantileModelWithoutAlphaLineLoadsWithDefault) {
  // A file written before alpha persistence: strip the line; the loader
  // must fall back to alpha = 0.5 rather than reject the model.
  std::string text = SerializeModel(TrainQuantileModel(0.85));
  const size_t pos = text.find("quantile_alpha");
  ASSERT_NE(pos, std::string::npos);
  const size_t eol = text.find('\n', pos);
  text.erase(pos, eol - pos + 1);
  GbdtModel loaded;
  std::string error;
  ASSERT_TRUE(DeserializeModel(text, &loaded, &error)) << error;
  EXPECT_EQ(loaded.objective(), ObjectiveKind::kQuantile);
  EXPECT_EQ(loaded.quantile_alpha(), 0.5);
}

TEST(ModelIo, RejectsCorruptQuantileAlphaLine) {
  const std::string text = SerializeModel(TrainQuantileModel(0.85));
  const size_t pos = text.find("quantile_alpha ");
  ASSERT_NE(pos, std::string::npos);
  const size_t eol = text.find('\n', pos);
  GbdtModel out;
  std::string error;
  for (const char* bad :
       {"quantile_alpha", "quantile_alpha xyz", "quantile_alpha 0x0p+0",
        "quantile_alpha 0x1p+0", "quantile_alpha 1 2"}) {
    std::string corrupted = text;
    corrupted.replace(pos, eol - pos, bad);
    EXPECT_FALSE(DeserializeModel(corrupted, &out, &error)) << bad;
  }
}

TEST(ModelIo, RejectsMalformedInput) {
  GbdtModel out;
  std::string error;
  EXPECT_FALSE(DeserializeModel("", &out, &error));
  EXPECT_FALSE(DeserializeModel("not a model\n", &out, &error));
  EXPECT_FALSE(DeserializeModel("harpgbdt-model v1\n", &out, &error));
  EXPECT_FALSE(DeserializeModel(
      "harpgbdt-model v1\nobjective nope\n", &out, &error));
}

TEST(ModelIo, RejectsTruncatedModel) {
  const GbdtModel model = TrainSmallModel();
  const std::string text = SerializeModel(model);
  GbdtModel out;
  std::string error;
  // Chop the serialization at several points; each must fail cleanly.
  for (double frac : {0.1, 0.3, 0.6, 0.9}) {
    const std::string truncated =
        text.substr(0, static_cast<size_t>(text.size() * frac));
    EXPECT_FALSE(DeserializeModel(truncated, &out, &error)) << frac;
  }
}

TEST(ModelIo, RejectsCorruptNodeLine) {
  const GbdtModel model = TrainSmallModel();
  std::string text = SerializeModel(model);
  const size_t pos = text.find("\nnode ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "\nnode X");
  GbdtModel out;
  std::string error;
  EXPECT_FALSE(DeserializeModel(text, &out, &error));
}

TEST(ModelIo, SerializationIsStable) {
  const GbdtModel model = TrainSmallModel();
  const std::string a = SerializeModel(model);
  GbdtModel loaded;
  std::string error;
  ASSERT_TRUE(DeserializeModel(a, &loaded, &error));
  // Serialize(Deserialize(x)) == x: stable fixed point.
  EXPECT_EQ(SerializeModel(loaded), a);
}

// The byte layout, pinned: every field kind (negative and unsigned ints,
// widened floats, doubles, the quantile line) in a tiny hand-built model.
TEST(ModelIo, SerializedLayoutIsPinned) {
  GbdtModel model(ObjectiveKind::kQuantile, 0.5,
                  QuantileCuts::FromRaw({0.5f, 2.0f}, {0, 2}, 256));
  model.set_quantile_alpha(0.9);
  RegTree tree;
  tree.mutable_nodes().resize(3);
  TreeNode& root = tree.mutable_nodes()[0];
  root.left = 1;
  root.right = 2;
  root.split_bin = 1;
  root.split_value = 0.5f;
  root.default_left = true;
  root.gain = 2.5;
  root.sum = {-1.5, 3.0};
  root.num_rows = 10;
  for (int child : {1, 2}) {
    TreeNode& leaf = tree.mutable_nodes()[static_cast<size_t>(child)];
    leaf.parent = 0;
    leaf.depth = 1;
  }
  tree.mutable_nodes()[1].leaf_value = -0.1;
  tree.mutable_nodes()[1].sum = {-1.0, 1.0};
  tree.mutable_nodes()[1].num_rows = 4;
  tree.mutable_nodes()[2].leaf_value = 0.25;
  tree.mutable_nodes()[2].sum = {-0.5, 2.0};
  tree.mutable_nodes()[2].num_rows = 6;
  model.AddTree(std::move(tree));

  EXPECT_EQ(SerializeModel(model),
            "harpgbdt-model v1\n"
            "objective quantile\n"
            "quantile_alpha 0x1.ccccccccccccdp-1\n"
            "base_margin 0x1p-1\n"
            "cuts 1 256\n"
            "cut_ptr 0 2\n"
            "cut_values 0x1p-1 0x1p+1\n"
            "trees 1\n"
            "tree 3\n"
            "node -1 1 2 0 0 1 0x1p-1 1 0x1.4p+1 0x0p+0 -0x1.8p+0 0x1.8p+1 10\n"
            "node 0 -1 -1 1 0 0 0x0p+0 0 0x0p+0 -0x1.999999999999ap-4 -0x1p+0 "
            "0x1p+0 4\n"
            "node 0 -1 -1 1 0 0 0x0p+0 0 0x0p+0 0x1p-2 -0x1p-1 0x1p+1 6\n");
}

// The model file's number format: AppendHexDouble must write exactly what
// printf("%a") writes, and ParseHexDouble must read it back bit for bit,
// over random bit patterns with every class forced in: ±0, subnormals,
// ±inf, NaN and widened floats (how cut values and split values are
// written).
TEST(ModelIo, HexFormatMatchesPrintfAndRoundTripsOnRandomBits) {
  Rng rng(4242);
  constexpr int kPatterns = 1 << 20;
  std::string ours;
  char want[64];
  int mismatches = 0;
  for (int i = 0; i < kPatterns; ++i) {
    uint64_t bits = rng.NextU64();
    switch (i % 8) {
      case 0:
        bits &= 0x800FFFFFFFFFFFFFull;  // subnormal or ±0
        break;
      case 1:
        bits |= 0x7FF0000000000000ull;  // NaN or ±inf
        break;
      case 2:
        bits = std::bit_cast<uint64_t>(static_cast<double>(
            std::bit_cast<float>(static_cast<uint32_t>(bits))));
        break;
      case 3:
        bits &= 0x8000000000000000ull;  // ±0
        break;
      case 4:
        bits = (bits & 0x8000000000000000ull) | 0x7FF0000000000000ull;  // ±inf
        break;
      default:
        break;
    }
    const double value = std::bit_cast<double>(bits);
    ours.clear();
    AppendHexDouble(&ours, value);
    std::snprintf(want, sizeof(want), "%a", value);
    if (ours != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::hex << bits << ": '" << ours
                    << "' vs printf '" << want << "'";
    }
    double parsed = 0.0;
    ASSERT_TRUE(ParseHexDouble(ours, &parsed)) << ours;
    if (std::isnan(value)) {
      // "%a" drops NaN payloads; the sign survives.
      EXPECT_TRUE(std::isnan(parsed)) << ours;
      EXPECT_EQ(std::signbit(parsed), std::signbit(value)) << ours;
    } else {
      EXPECT_EQ(std::bit_cast<uint64_t>(parsed), bits) << ours;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// ParseHexDouble takes its from_chars path only where that agrees with
// ParseDouble (strtod): same accepted inputs, same bits.
TEST(ModelIo, HexParseAgreesWithStrtod) {
  for (const char* text :
       {"0x1.8p+1", "-0x1.8p+1", "0x0p+0", "-0x0p+0", "0x1p-1074",
        "0x1.0000000000001p-1070", "0x1p+1024", "0x1p-1100", "0x1p",
        "0x1.", "0x.8p1", "0X1P0", "0x1P+0", "+0x1p0", " 0x1p0", "0x1p0 ",
        "0x-1p0", "-0x-1p0", "0xinf", "0xnan", "0x", "-0x", "inf", "-nan",
        "1.5", "1e400", "",
        "0x1.000000000000000000000000000000000000000000000000000000001p0"}) {
    double fast = 7.0;
    double slow = 7.0;
    const bool fast_ok = ParseHexDouble(text, &fast);
    const bool slow_ok = ParseDouble(text, &slow);
    EXPECT_EQ(fast_ok, slow_ok) << "'" << text << "'";
    if (fast_ok && slow_ok && !std::isnan(slow)) {
      EXPECT_EQ(std::bit_cast<uint64_t>(fast), std::bit_cast<uint64_t>(slow))
          << "'" << text << "'";
    }
  }
}

}  // namespace
}  // namespace harp
