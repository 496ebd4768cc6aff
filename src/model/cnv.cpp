#include "model/cnv.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/fields.hpp"
#include "tensor/ops.hpp"

namespace adapex {

CnvConfig CnvConfig::scaled(double scale) const {
  ADAPEX_CHECK(scale > 0.0, "width scale must be positive");
  auto scale_width = [scale](int w) {
    const int scaled = static_cast<int>(std::lround(w * scale / 4.0)) * 4;
    return std::max(scaled, 4);
  };
  CnvConfig out = *this;
  for (int& c : out.conv_channels) c = scale_width(c);
  for (int& f : out.fc_features) f = scale_width(f);
  return out;
}

const char* to_string(ExitOps ops) {
  switch (ops) {
    case ExitOps::kConvPoolFc: return "conv_pool_fc";
    case ExitOps::kPoolFc: return "pool_fc";
    case ExitOps::kFc: return "fc";
  }
  return "?";
}

ExitOps exit_ops_from_string(const std::string& s) {
  if (s == "conv_pool_fc") return ExitOps::kConvPoolFc;
  if (s == "pool_fc") return ExitOps::kPoolFc;
  if (s == "fc") return ExitOps::kFc;
  throw ConfigError("unknown exit ops: " + s);
}

namespace {

constexpr Field<ExitSpec> kExitSpecFields[] = {
    {"after_block", &ExitSpec::after_block},
    member_field<&ExitSpec::ops, exit_ops_from_string>("ops"),
};

constexpr Field<ExitsConfig> kExitsConfigFields[] = {
    member_field<&ExitsConfig::exits, kExitSpecFields>("exits"),
    {"pruned", &ExitsConfig::prune_exits},
};

}  // namespace

Json ExitsConfig::to_json() const {
  return write_json(*this, "ExitsConfig", kExitsConfigFields);
}

ExitsConfig ExitsConfig::from_json(const Json& j) {
  return read_document(j, kExitsConfigFields, "ExitsConfig");
}

ExitsConfig paper_exits_config(bool prune_exits) {
  ExitsConfig cfg;
  cfg.exits = {ExitSpec{0, ExitOps::kConvPoolFc},
               ExitSpec{1, ExitOps::kConvPoolFc}};
  cfg.prune_exits = prune_exits;
  return cfg;
}

namespace {

void append_conv_bn_act(Sequential& seq, int in_ch, int out_ch,
                        const CnvConfig& cfg, Rng& rng) {
  seq.append(std::make_unique<QuantConv2d>(in_ch, out_ch, 3, cfg.weight_bits,
                                           rng));
  seq.append(std::make_unique<BatchNorm>(out_ch));
  seq.append(std::make_unique<ActQuant>(cfg.act_bits));
}

void append_fc_bn_act(Sequential& seq, int in_f, int out_f,
                      const CnvConfig& cfg, Rng& rng) {
  seq.append(std::make_unique<QuantLinear>(in_f, out_f, cfg.weight_bits, rng));
  seq.append(std::make_unique<BatchNorm>(out_f));
  seq.append(std::make_unique<ActQuant>(cfg.act_bits));
}

void validate(const CnvConfig& cfg) {
  ADAPEX_CHECK(cfg.conv_channels.size() == 6,
               "CNV expects 6 conv layers (3 blocks of 2)");
  ADAPEX_CHECK(cfg.fc_features.size() == 2, "CNV expects 2 hidden FC layers");
  ADAPEX_CHECK(cfg.num_classes >= 2, "need at least two classes");
}

/// Propagates a square `image_size` input through the backbone: three
/// blocks of two valid 3x3 convs, the first two blocks ending in a 2x2
/// pool. Returns "" and, when `dims` is given, each block's output size;
/// or describes the first layer (named as model/walk names it) whose input
/// is smaller than its window.
std::string backbone_misfit(int image_size, std::vector<int>* dims) {
  int dim = image_size;
  const auto misfit = [&dim](const std::string& layer, const char* window) {
    return layer + " (" + window + ") gets a " + std::to_string(dim) + "x" +
           std::to_string(dim) + " input";
  };
  for (int b = 0; b < 3; ++b) {
    const std::string block = "backbone.b" + std::to_string(b);
    for (int c = 0; c < 2; ++c) {
      if (dim < 3) return misfit(block + ".conv" + std::to_string(c), "3x3");
      dim -= 2;
    }
    if (b < 2) {
      if (dim < 2) return misfit(block + ".6.pool", "2x2");
      dim = ops::out_dim(dim, 2, 2);
    }
    if (dims != nullptr) dims->push_back(dim);
  }
  return "";
}

}  // namespace

std::vector<int> cnv_block_out_dims(const CnvConfig& config) {
  std::vector<int> dims;
  const std::string misfit = backbone_misfit(config.image_size, &dims);
  if (misfit.empty()) return dims;
  int min_size = std::max(config.image_size, 0) + 1;
  while (!backbone_misfit(min_size, nullptr).empty()) ++min_size;
  throw ConfigError("image size " + std::to_string(config.image_size) +
                    " is too small for the CNV topology: " + misfit +
                    "; the smallest image size it accepts is " +
                    std::to_string(min_size));
}

std::vector<int> cnv_block_out_channels(const CnvConfig& config) {
  return {config.conv_channels[1], config.conv_channels[3],
          config.conv_channels[5]};
}

BranchyModel build_cnv(const CnvConfig& config, Rng& rng) {
  validate(config);
  const auto& cc = config.conv_channels;
  const auto& ff = config.fc_features;
  const auto dims = cnv_block_out_dims(config);

  BranchyModel model;
  auto block0 = std::make_unique<Sequential>();
  append_conv_bn_act(*block0, config.in_channels, cc[0], config, rng);
  append_conv_bn_act(*block0, cc[0], cc[1], config, rng);
  block0->append(std::make_unique<MaxPool2d>(2));
  model.add_block(std::move(block0));

  auto block1 = std::make_unique<Sequential>();
  append_conv_bn_act(*block1, cc[1], cc[2], config, rng);
  append_conv_bn_act(*block1, cc[2], cc[3], config, rng);
  block1->append(std::make_unique<MaxPool2d>(2));
  model.add_block(std::move(block1));

  auto block2 = std::make_unique<Sequential>();
  append_conv_bn_act(*block2, cc[3], cc[4], config, rng);
  append_conv_bn_act(*block2, cc[4], cc[5], config, rng);
  block2->append(std::make_unique<Flatten>());
  const int flat = cc[5] * dims.back() * dims.back();
  append_fc_bn_act(*block2, flat, ff[0], config, rng);
  append_fc_bn_act(*block2, ff[0], ff[1], config, rng);
  block2->append(std::make_unique<QuantLinear>(ff[1], config.num_classes,
                                               config.weight_bits, rng));
  model.add_block(std::move(block2));
  return model;
}

BranchyModel build_cnv_with_exits(const CnvConfig& config,
                                  const ExitsConfig& exits, Rng& rng) {
  BranchyModel model = build_cnv(config, rng);
  const auto dims = cnv_block_out_dims(config);
  const auto chans = cnv_block_out_channels(config);

  for (const auto& spec : exits.exits) {
    ADAPEX_CHECK(spec.after_block >= 0 && spec.after_block < 2,
                 "exits attach after block 0 or block 1 only");
    const int tap_dim = dims[static_cast<std::size_t>(spec.after_block)];
    const int tap_ch = chans[static_cast<std::size_t>(spec.after_block)];
    // Paper: pool kernel is floor(DIM/2) of the tapped feature map.
    const int pool_k = std::max(tap_dim / 2, 1);

    auto head = std::make_unique<Sequential>();
    int dim = tap_dim;
    int ch = tap_ch;
    switch (spec.ops) {
      case ExitOps::kConvPoolFc: {
        // CONV configured like the block it taps (3x3, same out channels).
        append_conv_bn_act(*head, tap_ch, tap_ch, config, rng);
        dim -= 2;
        ADAPEX_CHECK(dim >= pool_k, "exit feature map too small for pooling");
        head->append(std::make_unique<MaxPool2d>(pool_k));
        dim = ops::out_dim(dim, pool_k, pool_k);
        break;
      }
      case ExitOps::kPoolFc: {
        ADAPEX_CHECK(dim >= pool_k, "exit feature map too small for pooling");
        head->append(std::make_unique<MaxPool2d>(pool_k));
        dim = ops::out_dim(dim, pool_k, pool_k);
        break;
      }
      case ExitOps::kFc: {
        // Global max pool.
        head->append(std::make_unique<MaxPool2d>(dim));
        dim = 1;
        break;
      }
    }
    head->append(std::make_unique<Flatten>());
    const int flat = ch * dim * dim;
    if (spec.ops == ExitOps::kFc) {
      head->append(std::make_unique<QuantLinear>(flat, config.num_classes,
                                                 config.weight_bits, rng));
    } else {
      // Two FC layers mirroring the CNV classifier configuration.
      append_fc_bn_act(*head, flat, config.fc_features[0], config, rng);
      head->append(std::make_unique<QuantLinear>(config.fc_features[0],
                                                 config.num_classes,
                                                 config.weight_bits, rng));
    }
    model.add_exit(spec.after_block, std::move(head));
  }
  return model;
}

}  // namespace adapex
