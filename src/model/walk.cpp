#include "model/walk.hpp"

#include <utility>

#include "tensor/ops.hpp"

namespace adapex {

namespace {

using analysis::LintReport;
using analysis::Severity;

LayerSite make_site(SiteLoc loc, int group, std::size_t index, Layer& layer,
                    Sequential& seq, std::string name) {
  LayerSite site;
  site.loc = loc;
  site.group = group;
  site.layer_index = static_cast<int>(index);
  site.layer = &layer;
  site.container = &seq;
  site.name = std::move(name);
  return site;
}

/// Walks one Sequential from `state`, appending every conv/fc site and
/// reporting R2 violations. After a violation the layer's declared geometry
/// becomes the next layer's input, so later findings stay meaningful.
void walk_sequential(Sequential& seq, SiteLoc loc, int group, ActShape state,
                     WalkedSequential& walked, std::vector<LayerSite>& sites,
                     LintReport& report) {
  const std::string& prefix = walked.prefix;
  walked.layer_in.reserve(seq.size());
  int conv_count = 0, fc_count = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    walked.layer_in.push_back(state);
    Layer& layer = seq.layer(i);
    switch (layer.kind()) {
      case LayerKind::kConv: {
        auto& conv = static_cast<QuantConv2d&>(layer);
        LayerSite site =
            make_site(loc, group, i, layer, seq,
                      prefix + ".conv" + std::to_string(conv_count++));
        if (state.flattened) {
          report.add("R2", Severity::kError, site.name,
                     "conv applied to a flattened activation",
                     "move the conv before Flatten or drop the Flatten");
        } else if (conv.in_channels() != state.channels) {
          report.add("R2", Severity::kError, site.name,
                     "conv expects " + std::to_string(conv.in_channels()) +
                         " input channels but the incoming activation has " +
                         std::to_string(state.channels),
                     "match the conv's in_channels to its producer");
        }
        const int out_dim =
            state.dim >= conv.kernel() && !state.flattened
                ? ops::out_dim(state.dim, conv.kernel(), 1)
                : 0;
        if (!state.flattened && out_dim <= 0) {
          report.add("R2", Severity::kError, site.name,
                     "kernel " + std::to_string(conv.kernel()) +
                         " does not fit the " + std::to_string(state.dim) +
                         "x" + std::to_string(state.dim) + " feature map",
                     "reduce pooling upstream or shrink the kernel");
        }
        site.is_conv = true;
        site.in_channels = conv.in_channels();
        site.out_channels = conv.out_channels();
        site.kernel = conv.kernel();
        site.in_dim = state.dim;
        site.out_dim = out_dim;
        sites.push_back(std::move(site));
        state.channels = conv.out_channels();
        state.dim = out_dim;
        break;
      }
      case LayerKind::kLinear: {
        auto& fc = static_cast<QuantLinear&>(layer);
        LayerSite site =
            make_site(loc, group, i, layer, seq,
                      prefix + ".fc" + std::to_string(fc_count++));
        if (!state.flattened) {
          report.add("R2", Severity::kError, site.name,
                     "fully-connected layer fed an unflattened activation",
                     "insert a Flatten before the first fc layer");
        } else if (fc.in_features() != state.features) {
          report.add("R2", Severity::kError, site.name,
                     "fc expects " + std::to_string(fc.in_features()) +
                         " input features but the incoming activation has " +
                         std::to_string(state.features),
                     "match the fc's in_features to its producer");
        }
        site.in_channels = fc.in_features();
        site.out_channels = fc.out_features();
        sites.push_back(std::move(site));
        state.features = fc.out_features();
        state.flattened = true;
        break;
      }
      case LayerKind::kMaxPool: {
        auto& pool = static_cast<MaxPool2d&>(layer);
        const std::string name = prefix + "." + std::to_string(i) + ".pool";
        if (state.flattened) {
          report.add("R2", Severity::kError, name,
                     "max-pool applied to a flattened activation",
                     "move the pool before Flatten");
          break;
        }
        const int out_dim =
            state.dim >= pool.kernel()
                ? ops::out_dim(state.dim, pool.kernel(), pool.stride())
                : 0;
        if (out_dim <= 0) {
          report.add("R2", Severity::kError, name,
                     "pool kernel " + std::to_string(pool.kernel()) +
                         " does not fit the " + std::to_string(state.dim) +
                         "x" + std::to_string(state.dim) + " feature map",
                     "shrink the pool kernel or pool less upstream");
        }
        state.dim = out_dim;
        break;
      }
      case LayerKind::kFlatten: {
        if (state.flattened) {
          report.add("R2", Severity::kError,
                     prefix + "." + std::to_string(i) + ".flatten",
                     "activation flattened twice", "drop the second Flatten");
          break;
        }
        state.features = state.channels * state.dim * state.dim;
        state.flattened = true;
        break;
      }
      case LayerKind::kBatchNorm:
      case LayerKind::kActQuant:
        break;  // Shape-preserving.
    }
  }
  walked.out = state;
}

}  // namespace

ModelWalk walk_model(BranchyModel& model, int in_channels, int image_size) {
  ModelWalk walk;
  LintReport& report = walk.findings;
  if (model.num_blocks() == 0) {
    report.add("R2", Severity::kError, "model", "model has no backbone blocks",
               "add at least one block ending in the final classifier");
    return walk;
  }
  if (in_channels <= 0 || image_size <= 0) {
    report.add("R2", Severity::kError, "model",
               "input image must have positive channels and size (got " +
                   std::to_string(in_channels) + "x" +
                   std::to_string(image_size) + "x" +
                   std::to_string(image_size) + ")",
               "fix AcceleratorConfig::in_channels / image_size");
  }

  ActShape state;
  state.channels = in_channels;
  state.dim = image_size;
  walk.blocks.resize(model.num_blocks());
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    WalkedSequential& block = walk.blocks[b];
    block.prefix = "backbone.b" + std::to_string(b);
    walk_sequential(model.block(b), SiteLoc::kBackbone, static_cast<int>(b),
                    state, block, walk.sites, report);
    state = block.out;
  }
  walk.exits.resize(model.num_exits());
  for (std::size_t e = 0; e < model.num_exits(); ++e) {
    WalkedSequential& head = walk.exits[e];
    head.prefix = "exit" + std::to_string(e);
    const int after = model.exit(e).after_block;
    if (after < 0 || after >= static_cast<int>(model.num_blocks())) continue;
    const ActShape& tap = walk.blocks[static_cast<std::size_t>(after)].out;
    if (tap.flattened) {
      report.add("R2", Severity::kError, head.prefix,
                 "exit attaches to a flattened activation",
                 "attach the exit before the backbone flattens");
    }
    walk_sequential(*model.exit(e).head, SiteLoc::kExit, static_cast<int>(e),
                    tap, head, walk.sites, report);
  }
  return walk;
}

std::vector<LayerSite> walk_compute_layers(BranchyModel& model,
                                           int in_channels, int image_size) {
  ModelWalk walk = walk_model(model, in_channels, image_size);
  walk.findings.throw_if_errors();
  return std::move(walk.sites);
}

}  // namespace adapex
