// Design-level lint rules: everything checkable on the (model, folding,
// config) triple before an Accelerator exists. R2 is the model walk's own
// findings (model/walk.hpp), which recovers after each shape violation, so
// one run reports every problem in the design; R1 and R6 check the folding
// against the same walk's sites.

#include <cmath>
#include <string>
#include <vector>

#include "analysis/lint.hpp"

namespace adapex {
namespace analysis {

namespace {

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
  return lint_design(model,
                     walk_model(model, config.in_channels, config.image_size),
                     folding);
}

LintReport lint_design(BranchyModel& model, const ModelWalk& walk,
                       const FoldingConfig& folding) {
  LintReport report = walk.findings;
  const std::vector<LayerSite>& sites = walk.sites;
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
