// Tests for the CNV builder, exit configurations, and model serialization
// (ONNX-export stand-in).

#include <gtest/gtest.h>

#include <filesystem>

#include "data/dataset.hpp"
#include "model/cnv.hpp"
#include "model/serialize.hpp"
#include "nn/trainer.hpp"
#include "test_support.hpp"

namespace adapex {
namespace {

TEST(Cnv, ScaledWidths) {
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  EXPECT_EQ(cfg.conv_channels,
            (std::vector<int>{16, 16, 32, 32, 64, 64}));
  EXPECT_EQ(cfg.fc_features, (std::vector<int>{128, 128}));
  // Widths stay multiples of 4 and never drop below 4.
  CnvConfig tiny = CnvConfig{}.scaled(0.01);
  for (int c : tiny.conv_channels) EXPECT_EQ(c, 4);
  EXPECT_THROW(CnvConfig{}.scaled(0.0), Error);
}

TEST(Cnv, BlockGeometry) {
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  EXPECT_EQ(cnv_block_out_dims(cfg), (std::vector<int>{14, 5, 1}));
  EXPECT_EQ(cnv_block_out_channels(cfg), (std::vector<int>{16, 32, 64}));
}

TEST(Cnv, TooSmallImageIsAConfigErrorNamingLayerAndMinimum) {
  // 32 is the smallest input the backbone fits (a 1x1 map after block 2).
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  cfg.image_size = 32;
  EXPECT_EQ(cnv_block_out_dims(cfg), (std::vector<int>{14, 5, 1}));
  const auto message = [&cfg](int image_size) {
    cfg.image_size = image_size;
    Rng rng(1);
    try {
      build_cnv(cfg, rng);
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string("no ConfigError");
  };
  EXPECT_EQ(message(4),
            "image size 4 is too small for the CNV topology: "
            "backbone.b0.conv1 (3x3) gets a 2x2 input; the smallest image "
            "size it accepts is 32");
  EXPECT_EQ(message(31),
            "image size 31 is too small for the CNV topology: "
            "backbone.b2.conv1 (3x3) gets a 2x2 input; the smallest image "
            "size it accepts is 32");
  EXPECT_EQ(message(14),
            "image size 14 is too small for the CNV topology: "
            "backbone.b1.6.pool (2x2) gets a 1x1 input; the smallest image "
            "size it accepts is 32");
}

TEST(Cnv, ForwardShapesAllExitOps) {
  Rng rng(1);
  CnvConfig cfg = CnvConfig{}.scaled(0.125);
  for (ExitOps ops : {ExitOps::kConvPoolFc, ExitOps::kPoolFc, ExitOps::kFc}) {
    ExitsConfig exits;
    exits.exits = {ExitSpec{0, ops}, ExitSpec{1, ops}};
    BranchyModel model = build_cnv_with_exits(cfg, exits, rng);
    Tensor x({2, 3, 32, 32});
    x.randn_(rng, 1.0f);
    auto outs = model.forward(x, false);
    ASSERT_EQ(outs.size(), 3u) << to_string(ops);
    for (const auto& o : outs) {
      EXPECT_EQ(o.shape(), (std::vector<int>{2, cfg.num_classes}));
    }
  }
}

TEST(Cnv, ExitsConfigJsonRoundTrip) {
  ExitsConfig cfg = paper_exits_config(true);
  Json j = cfg.to_json();
  ExitsConfig back = ExitsConfig::from_json(Json::parse(j.dump()));
  ASSERT_EQ(back.exits.size(), 2u);
  EXPECT_EQ(back.exits[0].after_block, 0);
  EXPECT_EQ(back.exits[1].after_block, 1);
  EXPECT_EQ(back.exits[0].ops, ExitOps::kConvPoolFc);
  EXPECT_TRUE(back.prune_exits);
  EXPECT_THROW(exit_ops_from_string("nope"), ConfigError);
}

TEST(Cnv, InvalidExitPlacementRejected) {
  Rng rng(2);
  CnvConfig cfg = CnvConfig{}.scaled(0.125);
  ExitsConfig exits;
  exits.exits = {ExitSpec{2, ExitOps::kFc}};  // after the final block
  EXPECT_THROW(build_cnv_with_exits(cfg, exits, rng), Error);
}

TEST(Serialize, RoundTripPreservesInference) {
  Rng rng(3);
  CnvConfig cfg = CnvConfig{}.scaled(0.125);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  // Give batchnorm/actquant non-trivial state via a short training step.
  SyntheticSpec spec = cifar10_like_spec();
  spec.train_size = 40;
  spec.test_size = 10;
  SyntheticDataset data = make_synthetic(spec);
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 8;
  train_model(model, data.train, true, tc);

  const std::string bytes = serialize_model(model);
  BranchyModel loaded = deserialize_model(bytes);

  Tensor x = data.test.batch_images({0, 1, 2, 3});
  auto a = model.forward(x, false);
  auto b = loaded.forward(x, false);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    ASSERT_EQ(a[e].shape(), b[e].shape());
    for (std::size_t i = 0; i < a[e].numel(); ++i) {
      ASSERT_FLOAT_EQ(a[e][i], b[e][i]) << "exit " << e << " elem " << i;
    }
  }
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(4);
  CnvConfig cfg = CnvConfig{}.scaled(0.125);
  BranchyModel model = build_cnv(cfg, rng);
  const std::string dir = scratch_dir("model");
  const std::string path = dir + "/model.adpx";
  save_model(model, path);
  BranchyModel loaded = load_model(path);
  EXPECT_EQ(loaded.num_blocks(), model.num_blocks());
  EXPECT_EQ(loaded.num_exits(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(Serialize, RejectsCorruptedInput) {
  Rng rng(5);
  CnvConfig cfg = CnvConfig{}.scaled(0.125);
  BranchyModel model = build_cnv(cfg, rng);
  std::string bytes = serialize_model(model);
  // Bad magic.
  std::string bad = bytes;
  bad[0] = 'X';
  EXPECT_THROW(deserialize_model(bad), ParseError);
  // Truncated blob.
  EXPECT_THROW(deserialize_model(bytes.substr(0, bytes.size() - 17)), Error);
  // Too short entirely.
  EXPECT_THROW(deserialize_model("AD"), Error);
}

}  // namespace
}  // namespace adapex
