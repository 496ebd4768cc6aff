// Accelerator-level lint rules: checks over the compiled streaming-module
// graph. These run on any Accelerator — freshly compiled, hand-built in a
// test, or rehydrated from a report — and never mutate it.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/lint.hpp"
#include "finn/fifo_sizing.hpp"

namespace adapex {
namespace analysis {

namespace {

/// R4 warns when an exit head's initiation interval exceeds the post-branch
/// backbone II by more than this factor.
constexpr double kFifoImbalanceWarn = 1.5;
/// Utilization fraction above which R5 warns even though the design fits.
constexpr double kBudgetWarnFraction = 0.80;

std::string module_site(const Accelerator& acc, int index) {
  if (index < 0 || index >= static_cast<int>(acc.modules.size())) {
    return "module[" + std::to_string(index) + "]";
  }
  return acc.modules[static_cast<std::size_t>(index)].name;
}

/// True when every path index is a valid module index; later rules assume
/// this and are skipped otherwise.
bool lint_path_indices(const Accelerator& acc, LintReport& report) {
  bool ok = true;
  for (std::size_t e = 0; e < acc.paths.size(); ++e) {
    if (acc.paths[e].empty()) {
      report.add("R7", Severity::kError, "paths[" + std::to_string(e) + "]",
                 "output path is empty",
                 "every output must traverse at least one module");
      ok = false;
    }
    for (int mi : acc.paths[e]) {
      if (mi < 0 || mi >= static_cast<int>(acc.modules.size())) {
        report.add("R7", Severity::kError, "paths[" + std::to_string(e) + "]",
                   "path references module index " + std::to_string(mi) +
                       " outside modules[0.." +
                       std::to_string(acc.modules.size()) + ")",
                   "rebuild the accelerator paths");
        ok = false;
      }
    }
  }
  return ok;
}

/// R3: stream-width agreement on every producer -> consumer link.
void lint_stream_widths(const Accelerator& acc, LintReport& report) {
  for (const auto& m : acc.modules) {
    if (m.in_stream_elems < 1 || m.out_stream_elems < 1) {
      report.add("R3", Severity::kError, m.name,
                 "stream widths must be positive (in=" +
                     std::to_string(m.in_stream_elems) +
                     ", out=" + std::to_string(m.out_stream_elems) + ")",
                 "recompile the accelerator with a valid folding");
    }
  }
  for (const auto& [p, c] : accelerator_links(acc)) {
    const HlsModule& prod = acc.modules[static_cast<std::size_t>(p)];
    const HlsModule& cons = acc.modules[static_cast<std::size_t>(c)];
    if (prod.out_stream_elems < 1 || cons.in_stream_elems < 1) continue;
    if (prod.out_stream_elems == cons.in_stream_elems) continue;
    const int wide = std::max(prod.out_stream_elems, cons.in_stream_elems);
    const int narrow = std::min(prod.out_stream_elems, cons.in_stream_elems);
    const std::string site = prod.name + " -> " + cons.name;
    const std::string widths = std::to_string(prod.out_stream_elems) +
                               " elems/cycle vs " +
                               std::to_string(cons.in_stream_elems);
    if (wide % narrow == 0) {
      report.add("R3", Severity::kInfo, site,
                 "stream widths differ (" + widths +
                     "); a data-width converter is required on this link",
                 "FINN inserts an InsertDWC here; budget its LUTs");
    } else {
      report.add("R3", Severity::kWarning, site,
                 "stream widths are not integer-ratio (" + widths + ")",
                 "align PE/SIMD so one width divides the other");
    }
  }
}

/// R4: FIFO backpressure hazards at Branch forks. A slow exit head makes
/// the duplicated feature-map stream back up behind the branch; statically
/// compare the head's initiation interval against the post-branch backbone
/// II, then cross-check the needed depth with the transaction-level
/// fifo_sizing model.
void lint_fifo_hazards(const Accelerator& acc, LintReport& report) {
  if (acc.num_exits <= 0 ||
      acc.paths.size() != static_cast<std::size_t>(acc.num_exits) + 1) {
    return;
  }
  const std::vector<int>& backbone = acc.paths.back();

  // Round-robin stimulus over every output keeps the cross-check
  // deterministic and cheap (a few dozen transactions).
  std::vector<int> stimulus(8 * acc.paths.size());
  for (std::size_t i = 0; i < stimulus.size(); ++i) {
    stimulus[i] = static_cast<int>(i % acc.paths.size());
  }
  const std::vector<FifoRequirement> sized = size_fifos(acc, stimulus);

  for (int e = 0; e < acc.num_exits; ++e) {
    const auto& path = acc.paths[static_cast<std::size_t>(e)];
    // The branch is the last backbone module on the exit path; everything
    // after it belongs to this exit's head.
    int branch_index = -1;
    std::size_t head_start = 0;
    for (std::size_t i = 0; i < path.size(); ++i) {
      const HlsModule& m = acc.modules[static_cast<std::size_t>(path[i])];
      if (m.exit_head < 0) {
        branch_index = path[i];
        head_start = i + 1;
      }
    }
    if (branch_index < 0 || head_start >= path.size()) continue;

    long head_ii = 0;
    for (std::size_t i = head_start; i < path.size(); ++i) {
      head_ii = std::max(
          head_ii, acc.modules[static_cast<std::size_t>(path[i])].cycles);
    }
    long post_branch_ii = 0;
    bool after = false;
    for (int mi : backbone) {
      if (after) {
        post_branch_ii = std::max(
            post_branch_ii, acc.modules[static_cast<std::size_t>(mi)].cycles);
      }
      if (mi == branch_index) after = true;
    }
    if (post_branch_ii <= 0 || head_ii <= 0) continue;

    const double imbalance =
        static_cast<double>(head_ii) / static_cast<double>(post_branch_ii);
    if (imbalance <= kFifoImbalanceWarn) continue;

    std::string message =
        "exit head II (" + std::to_string(head_ii) +
        " cycles) exceeds the post-branch backbone II (" +
        std::to_string(post_branch_ii) + ") by " +
        std::to_string(imbalance).substr(0, 4) +
        "x; the duplicated stream backs up behind the branch and stalls the "
        "backbone once the FIFO fills";
    const int head_module = path[head_start];
    for (const auto& req : sized) {
      if (req.producer == branch_index && req.consumer == head_module) {
        message += " (fifo_sizing: depth " + std::to_string(req.depth_images) +
                   " images, " + std::to_string(req.bram) + " BRAM)";
        break;
      }
    }
    report.add("R4", Severity::kWarning, module_site(acc, branch_index),
               message,
               "raise the exit head's PE/SIMD or provision the branch FIFO "
               "to the sized depth");
  }
}

/// R5: resource budget against the device profile.
void lint_resource_budget(const Accelerator& acc, const LintOptions& options,
                          LintReport& report) {
  const DeviceProfile& device = options.device;
  const std::string site = "device:" + device.name;
  struct Row {
    const char* name;
    long used;
    long cap;
  };
  const Row rows[] = {{"LUT", acc.total.lut, device.caps.lut},
                      {"FF", acc.total.ff, device.caps.ff},
                      {"BRAM18", acc.total.bram, device.caps.bram},
                      {"DSP", acc.total.dsp, device.caps.dsp}};
  for (const Row& row : rows) {
    if (row.used > row.cap) {
      report.add("R5", Severity::kError, site,
                 std::string(row.name) + " overflow: " +
                     std::to_string(row.used) + " > " +
                     std::to_string(row.cap),
                 "fold more tightly (smaller PE/SIMD) or prune channels");
    }
  }
  const double worst = device.worst_utilization(acc.total);
  if (device.fits(acc.total) && worst > kBudgetWarnFraction) {
    report.add("R5", Severity::kWarning, site,
               "design uses " + std::to_string(static_cast<int>(worst * 100)) +
                   "% of the scarcest resource",
               "leave headroom for FIFO sizing and routing");
  }
}

/// R7 (path half): every exit path must be a prefix-consistent extension of
/// the backbone path, diverging exactly at its Branch module, and every
/// module must be reachable from some output.
void lint_path_structure(const Accelerator& acc, LintReport& report) {
  if (acc.paths.size() != static_cast<std::size_t>(acc.num_exits) + 1) {
    report.add("R7", Severity::kError, "paths",
               "accelerator has " + std::to_string(acc.paths.size()) +
                   " paths for " + std::to_string(acc.num_exits) +
                   " exits + 1 final output",
               "emit one path per output (exits first, final last)");
    return;
  }
  const std::vector<int>& backbone = acc.paths.back();
  std::size_t prev_split = 0;
  for (int e = 0; e < acc.num_exits; ++e) {
    const auto& path = acc.paths[static_cast<std::size_t>(e)];
    const std::string site = "paths[" + std::to_string(e) + "]";
    std::size_t lcp = 0;
    while (lcp < path.size() && lcp < backbone.size() &&
           path[lcp] == backbone[lcp]) {
      ++lcp;
    }
    if (lcp == 0) {
      report.add("R7", Severity::kError, site,
                 "exit path shares no prefix with the backbone path",
                 "route every exit through the backbone up to its branch");
      continue;
    }
    const HlsModule& split =
        acc.modules[static_cast<std::size_t>(path[lcp - 1])];
    if (split.kind != HlsModuleKind::kBranch) {
      report.add("R7", Severity::kError, site,
                 "exit path diverges from the backbone after " + split.name +
                     ", which is not a Branch duplicator",
                 "insert a Branch module at the exit attachment point");
    }
    for (std::size_t i = lcp; i < path.size(); ++i) {
      const HlsModule& m = acc.modules[static_cast<std::size_t>(path[i])];
      if (m.exit_head != e) {
        report.add("R7", Severity::kError, site,
                   "module " + m.name +
                       " past the branch does not belong to exit head " +
                       std::to_string(e),
                   "exit paths may only append their own head modules");
        break;
      }
    }
    if (lcp < prev_split) {
      report.add("R7", Severity::kError, site,
                 "exit branch points are not monotonic along the backbone",
                 "order exits by attachment depth");
    }
    prev_split = lcp;
  }

  // Backbone exit_level must be non-decreasing (reach probabilities are
  // computed from it).
  int prev_level = 0;
  for (int mi : backbone) {
    const HlsModule& m = acc.modules[static_cast<std::size_t>(mi)];
    if (m.exit_level < prev_level) {
      report.add("R7", Severity::kError, m.name,
                 "backbone exit_level decreases along the pipeline (" +
                     std::to_string(m.exit_level) + " after " +
                     std::to_string(prev_level) + ")",
                 "recount upstream branch points");
    }
    prev_level = std::max(prev_level, m.exit_level);
  }

  std::vector<bool> reachable(acc.modules.size(), false);
  for (const auto& path : acc.paths) {
    for (int mi : path) reachable[static_cast<std::size_t>(mi)] = true;
  }
  for (std::size_t m = 0; m < acc.modules.size(); ++m) {
    if (!reachable[m]) {
      report.add("R7", Severity::kWarning, acc.modules[m].name,
                 "module is not on any output path (dead hardware)",
                 "remove the module or route an output through it");
    }
  }
}

}  // namespace

LintReport lint_accelerator(const Accelerator& acc,
                            const LintOptions& options) {
  LintReport report;
  if (acc.modules.empty()) {
    report.add("R7", Severity::kError, "accelerator",
               "accelerator has no modules", "compile a non-empty model");
    return report;
  }
  if (!lint_path_indices(acc, report)) return report;
  lint_stream_widths(acc, report);
  lint_fifo_hazards(acc, report);
  lint_resource_budget(acc, options, report);
  lint_path_structure(acc, report);
  std::vector<double> fractions = options.exit_fractions;
  if (fractions.empty()) {
    fractions.assign(static_cast<std::size_t>(acc.num_exits) + 1,
                     1.0 / static_cast<double>(acc.num_exits + 1));
  }
  DataflowOptions dopts;
  dopts.device = options.device;
  report.merge(analyze_dataflow(acc, fractions, dopts).lint);
  return report;
}

LintReport lint(BranchyModel& model, const FoldingConfig& folding,
                const AcceleratorConfig& config, const LintOptions& options) {
  return lint(model, walk_model(model, config.in_channels, config.image_size),
              folding, config, options);
}

LintReport lint(BranchyModel& model, const ModelWalk& walk,
                const FoldingConfig& folding, const AcceleratorConfig& config,
                const LintOptions& options, Accelerator* compiled) {
  LintReport report = lint_design(model, walk, folding);
  if (report.has_errors()) return report;
  try {
    Accelerator acc = compile_accelerator(model, walk, folding, config);
    report.merge(lint_accelerator(acc, options));
    if (compiled != nullptr) *compiled = std::move(acc);
  } catch (const Error& e) {
    // The design rules passed but compilation still failed: surface the
    // internal check as a structured finding rather than propagating.
    report.add("R2", Severity::kError, "compile", e.what(),
               "report this as a verifier coverage gap");
  }
  return report;
}

}  // namespace analysis
}  // namespace adapex
