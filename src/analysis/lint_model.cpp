// Design-level lint rules: everything checkable on the (model, folding,
// config) triple before an Accelerator exists. The shape walk here mirrors
// model/walk.cpp but recovers after each violation instead of throwing, so
// one run reports every problem in the design.

#include <cmath>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "tensor/ops.hpp"

namespace adapex {
namespace analysis {

namespace {

/// Activation geometry tracked during the lenient shape walk.
struct ShapeState {
  int channels = 0;
  int dim = 0;
  int features = 0;
  bool flattened = false;
};

/// Walks one Sequential, appending every conv/fc site (with best-effort
/// geometry) and reporting R2 violations. Naming matches model/walk.cpp so
/// findings anchor to the same identifiers folding configs use.
void walk_lenient(Sequential& seq, SiteLoc loc, int group,
                  const std::string& prefix, ShapeState& state,
                  std::vector<LayerSite>& sites, LintReport& report) {
  int conv_count = 0, fc_count = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    Layer& layer = seq.layer(i);
    switch (layer.kind()) {
      case LayerKind::kConv: {
        auto& conv = static_cast<QuantConv2d&>(layer);
        const std::string name = prefix + ".conv" + std::to_string(conv_count++);
        if (state.flattened) {
          report.add("R2", Severity::kError, name,
                     "conv applied to a flattened activation",
                     "move the conv before Flatten or drop the Flatten");
        } else if (conv.in_channels() != state.channels) {
          report.add("R2", Severity::kError, name,
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
          report.add("R2", Severity::kError, name,
                     "kernel " + std::to_string(conv.kernel()) +
                         " does not fit the " + std::to_string(state.dim) +
                         "x" + std::to_string(state.dim) + " feature map",
                     "reduce pooling upstream or shrink the kernel");
        }
        LayerSite site;
        site.loc = loc;
        site.group = group;
        site.layer_index = static_cast<int>(i);
        site.layer = &layer;
        site.container = &seq;
        site.is_conv = true;
        site.in_channels = conv.in_channels();
        site.out_channels = conv.out_channels();
        site.kernel = conv.kernel();
        site.in_dim = state.dim;
        site.out_dim = out_dim;
        site.name = name;
        sites.push_back(site);
        // Recover with the layer's declared geometry.
        state.channels = conv.out_channels();
        state.dim = out_dim;
        break;
      }
      case LayerKind::kLinear: {
        auto& fc = static_cast<QuantLinear&>(layer);
        const std::string name = prefix + ".fc" + std::to_string(fc_count++);
        if (!state.flattened) {
          report.add("R2", Severity::kError, name,
                     "fully-connected layer fed an unflattened activation",
                     "insert a Flatten before the first fc layer");
        } else if (fc.in_features() != state.features) {
          report.add("R2", Severity::kError, name,
                     "fc expects " + std::to_string(fc.in_features()) +
                         " input features but the incoming activation has " +
                         std::to_string(state.features),
                     "match the fc's in_features to its producer");
        }
        LayerSite site;
        site.loc = loc;
        site.group = group;
        site.layer_index = static_cast<int>(i);
        site.layer = &layer;
        site.container = &seq;
        site.is_conv = false;
        site.in_channels = fc.in_features();
        site.out_channels = fc.out_features();
        site.name = name;
        sites.push_back(site);
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
        const std::string name = prefix + "." + std::to_string(i) + ".flatten";
        if (state.flattened) {
          report.add("R2", Severity::kError, name,
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
}

/// Lenient twin of walk_compute_layers: same sites and names, but shape
/// violations land in `report` instead of aborting the walk.
std::vector<LayerSite> collect_sites_lenient(BranchyModel& model,
                                             const AcceleratorConfig& config,
                                             LintReport& report) {
  std::vector<LayerSite> sites;
  if (model.num_blocks() == 0) {
    report.add("R2", Severity::kError, "model", "model has no backbone blocks",
               "add at least one block ending in the final classifier");
    return sites;
  }
  ShapeState state;
  state.channels = config.in_channels;
  state.dim = config.image_size;
  if (config.in_channels <= 0 || config.image_size <= 0) {
    report.add("R2", Severity::kError, "model",
               "input image must have positive channels and size (got " +
                   std::to_string(config.in_channels) + "x" +
                   std::to_string(config.image_size) + "x" +
                   std::to_string(config.image_size) + ")",
               "fix AcceleratorConfig::in_channels / image_size");
  }

  std::vector<ShapeState> block_out(model.num_blocks());
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    walk_lenient(model.block(b), SiteLoc::kBackbone, static_cast<int>(b),
                 "backbone.b" + std::to_string(b), state, sites, report);
    block_out[b] = state;
  }
  for (std::size_t e = 0; e < model.num_exits(); ++e) {
    const int after = model.exit(e).after_block;
    const std::string exit_name = "exit" + std::to_string(e);
    if (after < 0 || after >= static_cast<int>(model.num_blocks())) {
      // R7 reports the structural violation; skip the head walk because
      // there is no attachment geometry to start from.
      continue;
    }
    ShapeState exit_state = block_out[static_cast<std::size_t>(after)];
    if (exit_state.flattened) {
      report.add("R2", Severity::kError, exit_name,
                 "exit attaches to a flattened activation",
                 "attach the exit before the backbone flattens");
    }
    walk_lenient(*model.exit(e).head, SiteLoc::kExit, static_cast<int>(e),
                 exit_name, exit_state, sites, report);
  }
  return sites;
}

/// R1: PE/SIMD divisibility per MVTU against the walk-order sites.
void lint_divisibility(const std::vector<LayerSite>& sites,
                       const FoldingConfig& folding, LintReport& report) {
  if (folding.folds.size() != sites.size()) {
    report.add("R1", Severity::kError, "folding",
               "folding has " + std::to_string(folding.folds.size()) +
                   " entries for " + std::to_string(sites.size()) +
                   " compute layers",
               "regenerate the folding for this model (walk order)");
  }
  const std::size_t n = std::min(folding.folds.size(), sites.size());
  for (std::size_t i = 0; i < n; ++i) {
    const LayerSite& site = sites[i];
    const LayerFold& fold = folding.folds[i];
    if (fold.pe < 1) {
      report.add("R1", Severity::kError, site.name,
                 "PE=" + std::to_string(fold.pe) + " must be >= 1",
                 "use a positive divisor of out_channels");
    } else if (site.out_channels % fold.pe != 0) {
      report.add("R1", Severity::kError, site.name,
                 "PE=" + std::to_string(fold.pe) +
                     " does not divide out_channels=" +
                     std::to_string(site.out_channels),
                 "pick PE from the divisors of " +
                     std::to_string(site.out_channels));
    }
    const int matrix_width = site.is_conv
                                 ? site.kernel * site.kernel * site.in_channels
                                 : site.in_channels;
    if (fold.simd < 1) {
      report.add("R1", Severity::kError, site.name,
                 "SIMD=" + std::to_string(fold.simd) + " must be >= 1",
                 "use a positive divisor of the matrix width");
    } else if (matrix_width % fold.simd != 0) {
      report.add("R1", Severity::kError, site.name,
                 "SIMD=" + std::to_string(fold.simd) +
                     " does not divide matrix width=" +
                     std::to_string(matrix_width) +
                     (site.is_conv ? " (k^2 * ch_in)" : " (in_features)"),
                 "pick SIMD from the divisors of " +
                     std::to_string(matrix_width));
    }
  }
}

/// R7 (design half): exit attachment structure — intermediate blocks only,
/// monotonic attachment order, heads that end in a classifier.
void lint_exit_structure(BranchyModel& model, LintReport& report) {
  int prev_block = -1;
  for (std::size_t e = 0; e < model.num_exits(); ++e) {
    const ExitBranch& exit = model.exit(e);
    const std::string name = "exit" + std::to_string(e);
    if (exit.after_block < 0 ||
        exit.after_block + 1 >= static_cast<int>(model.num_blocks())) {
      report.add("R7", Severity::kError, name,
                 "exit attaches after block " +
                     std::to_string(exit.after_block) + " but the backbone " +
                     "has blocks 0.." +
                     std::to_string(model.num_blocks() == 0
                                        ? 0
                                        : model.num_blocks() - 1) +
                     " (the final block is the final exit)",
                 "attach exits after an intermediate block");
    }
    if (exit.after_block < prev_block) {
      report.add("R7", Severity::kError, name,
                 "exit attachment order is not monotonic (after_block " +
                     std::to_string(exit.after_block) + " follows " +
                     std::to_string(prev_block) + ")",
                 "keep exits sorted by attachment depth");
    }
    prev_block = exit.after_block;
    if (exit.head == nullptr || exit.head->size() == 0) {
      report.add("R7", Severity::kError, name, "exit head is empty",
                 "give every exit at least a classifier layer");
      continue;
    }
    // The head must end in class logits: its last compute layer is a fc.
    const Layer* last_compute = nullptr;
    for (std::size_t i = 0; i < exit.head->size(); ++i) {
      const Layer& l = exit.head->layer(i);
      if (l.kind() == LayerKind::kConv || l.kind() == LayerKind::kLinear) {
        last_compute = &l;
      }
    }
    if (last_compute == nullptr ||
        last_compute->kind() != LayerKind::kLinear) {
      report.add("R7", Severity::kWarning, name,
                 "exit head does not end in a fully-connected classifier",
                 "finish the head with an fc layer producing class logits");
    }
  }
}

bool entry_is_positive_int(const Json& v) {
  if (!v.is_number()) return false;
  const double d = v.as_number();
  return d >= 1.0 && d == std::floor(d);
}

}  // namespace

LintReport lint_folding_json(const Json& folding_json,
                             const std::vector<LayerSite>& sites) {
  LintReport report;
  if (!folding_json.is_object()) {
    report.add("R6", Severity::kError, "folding",
               "folding document is not a JSON object",
               "emit one {\"PE\":..,\"SIMD\":..} entry per layer name");
    return report;
  }
  const JsonObject& obj = folding_json.as_object();
  if (obj.size() != sites.size()) {
    report.add("R6", Severity::kError, "folding",
               "folding has " + std::to_string(obj.size()) +
                   " entries for " + std::to_string(sites.size()) +
                   " compute layers",
               "emit exactly one entry per walk-order site");
  }
  for (const auto& site : sites) {
    if (!folding_json.contains(site.name)) {
      report.add("R6", Severity::kError, site.name,
                 "folding entry missing for this layer",
                 "add {\"PE\":..,\"SIMD\":..} under \"" + site.name + "\"");
      continue;
    }
    const Json& entry = folding_json.at(site.name);
    if (!entry.is_object()) {
      report.add("R6", Severity::kError, site.name,
                 "folding entry is not an object",
                 "use {\"PE\":..,\"SIMD\":..}");
      continue;
    }
    for (const char* key : {"PE", "SIMD"}) {
      if (!entry.contains(key)) {
        report.add("R6", Severity::kError, site.name,
                   std::string("folding entry lacks \"") + key + "\"",
                   "add a positive integer value");
      } else if (!entry_is_positive_int(entry.at(key))) {
        report.add("R6", Severity::kError, site.name,
                   std::string("\"") + key + "\" must be a positive integer",
                   "use an integral PE/SIMD >= 1");
      }
    }
  }
  for (const auto& [key, value] : obj) {
    (void)value;
    bool known = false;
    for (const auto& site : sites) {
      if (site.name == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      report.add("R6", Severity::kWarning, key,
                 "folding entry names no layer of this model",
                 "remove stale entries or regenerate the folding");
    }
  }
  return report;
}

LintReport lint_design(BranchyModel& model, const FoldingConfig& folding,
                       const AcceleratorConfig& config) {
  LintReport report;
  const std::vector<LayerSite> sites =
      collect_sites_lenient(model, config, report);
  lint_divisibility(sites, folding, report);
  lint_exit_structure(model, report);

  // R6: serialization fidelity. Only meaningful when the arity matches
  // (to_json indexes folds by site) — the mismatch itself is already an R1
  // error above.
  if (folding.folds.size() == sites.size() && !sites.empty()) {
    const Json j = folding.to_json(sites);
    report.merge(lint_folding_json(j, sites));
    try {
      const FoldingConfig round_trip = FoldingConfig::from_json(j, sites);
      for (std::size_t i = 0; i < sites.size(); ++i) {
        if (round_trip.folds[i].pe != folding.folds[i].pe ||
            round_trip.folds[i].simd != folding.folds[i].simd) {
          report.add("R6", Severity::kError, sites[i].name,
                     "folding JSON round-trip altered PE/SIMD",
                     "report this as a serialization bug");
        }
      }
    } catch (const ConfigError&) {
      // from_json re-validates divisibility; those findings are R1's.
    }
  }
  return report;
}

}  // namespace analysis
}  // namespace adapex
