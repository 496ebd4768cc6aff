// adapex_lint — static design verifier for AdaPEx accelerators.
//
//   adapex_lint [MODEL.adpx] [--folding FOLDING.json] [--device DEV]
//               [--min-severity info|warning|error]
//               [--in-channels N] [--image-size N]
//               [--folding-style styled|default|reach]
//               [--scale W] [--exits paper|none]
//               [--fractions F0,F1,...] [--verify] [--json]
//               [--emit-folding PATH]
//   adapex_lint --fleet-scenario SCENARIO.json [--min-severity ...] [--json]
//   adapex_lint --gen-spec [--journal-dir DIR] [--max-point-retries N]
//               [--partial-policy fail|emit_partial] [--verify-dataflow]
//               [--eval-path auto|float|packed]
//               [--min-severity ...] [--json]
//
// Lints a (model, folding, accelerator-config) design point and prints the
// structured findings as a table (rule, severity, site, message, fix hint).
// With MODEL.adpx the model comes from a serialized export; otherwise a CNV
// demo model is built at --scale with the paper's exits. --folding lints a
// FINN-style folding JSON (rule R6) before applying it; otherwise a config
// is generated per --folding-style. --emit-folding writes the effective
// folding JSON for later hand-editing.
//
// The reach-aware rules R8-R14 analyze under --fractions (one probability
// per output, exits first; default uniform). --verify additionally runs the
// agreement harness: the static II and FIFO occupancy bounds are
// cross-validated against the transaction-level pipeline simulator, and any
// bracket violation is reported as an XV error.
//
// --fleet-scenario switches the tool to the serving-drill rules: the JSON
// is parsed as a FleetScenario and checked against FS1-FS8 (plus the edge
// scenario and fault-spec rules on its base), skipping the model path
// entirely. The same --json / --min-severity / exit-code contract applies.
//
// --gen-spec switches to the crash-safety rules RG1-RG3 and RG5 and the
// packed-inference rule RQ2 (library/generator.hpp): the
// journal/retry/partial/eval-path knobs of a library-generation
// spec are validated exactly as generate_library() would before spending
// any training time — CI can gate a sweep's configuration without running
// it.
//
// --json replaces the table with a machine-readable document on stdout
// ({"errors", "warnings", "infos", "diagnostics": [...], ...}) for CI
// gating; findings below --min-severity are still included.
//
// Exit codes (stable, meant for CI):
//   0  no error-severity findings (verification passed if requested)
//   3  the design has error findings or failed cross-validation
//   1  usage errors
//   2  runtime failures (unreadable files, bad flag values, ...)

#include <charconv>
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>

#include "analysis/dataflow.hpp"
#include "analysis/lint.hpp"
#include "edge/fleet.hpp"
#include "library/generator.hpp"
#include "model/cnv.hpp"
#include "model/serialize.hpp"

namespace {

using namespace adapex;

int usage() {
  std::cerr <<
      "usage:\n"
      "  adapex_lint [MODEL.adpx] [--folding FOLDING.json] [--device DEV]\n"
      "              [--min-severity info|warning|error]\n"
      "              [--in-channels N] [--image-size N]\n"
      "              [--folding-style styled|default|reach]\n"
      "              [--scale W] [--exits paper|none]\n"
      "              [--fractions F0,F1,...] [--verify] [--json]\n"
      "              [--emit-folding PATH]\n"
      "  adapex_lint --fleet-scenario SCENARIO.json [--min-severity ...]"
      " [--json]\n"
      "  adapex_lint --gen-spec [--journal-dir DIR] [--max-point-retries N]\n"
      "              [--partial-policy fail|emit_partial]"
      " [--verify-dataflow]\n"
      "              [--eval-path auto|float|packed]\n"
      "              [--min-severity ...] [--json]\n"
      "devices: zcu104 (default) | ultra96 | zcu102\n"
      "exit codes: 0 clean, 3 errors found, 1 usage, 2 runtime failure\n";
  return 1;
}

analysis::Severity severity_from_string(const std::string& s) {
  if (s == "info") return analysis::Severity::kInfo;
  if (s == "warning") return analysis::Severity::kWarning;
  if (s == "error") return analysis::Severity::kError;
  throw ConfigError("unknown severity: " + s + " (expected info|warning|error)");
}

/// Parses all of `text` as the value of `--flag`, or throws a ConfigError
/// naming the flag.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || stop != end) {
    throw ConfigError("--" + flag + ": '" + text + "' is not a valid " +
                      (std::is_integral_v<T> ? "integer" : "number"));
  }
  return value;
}

std::vector<double> fractions_from_string(const std::string& s) {
  std::vector<double> fractions;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    fractions.push_back(parse_number<double>("fractions", item));
  }
  if (fractions.empty()) {
    throw ConfigError("--fractions needs a comma-separated probability list");
  }
  return fractions;
}

/// Renders one lint outcome and returns the process exit code. JSON mode
/// emits the full report regardless of min_severity (CI filters itself);
/// table mode respects it.
int emit(const analysis::LintReport& report, analysis::Severity min_severity,
         bool json, const std::string& context_key, const Json& context) {
  if (json) {
    Json root = report.to_json();
    if (!context_key.empty()) root[context_key] = context;
    root["exit_code"] = report.has_errors() ? 3 : 0;
    std::cout << root.dump(2) << "\n";
  } else {
    const std::string table = report.format_table(min_severity);
    if (!table.empty()) std::cout << table << "\n";
    std::cout << report.summary() << "\n";
  }
  return report.has_errors() ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::set<std::string> boolean_flags = {"json", "verify", "gen-spec",
                                               "verify-dataflow"};
  std::string model_path;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      const std::string name = argv[i] + 2;
      if (boolean_flags.count(name)) {
        flags.emplace(name, "");
        continue;
      }
      if (i + 1 >= argc) return usage();
      flags[name] = argv[i + 1];
      ++i;
    } else if (model_path.empty()) {
      model_path = argv[i];
    } else {
      return usage();
    }
  }
  const bool json = flags.count("json") > 0;

  try {
    const analysis::Severity min_severity =
        flags.count("min-severity")
            ? severity_from_string(flags["min-severity"])
            : analysis::Severity::kInfo;
    if (flags.count("fleet-scenario")) {
      // Serving-drill mode: lint a FleetScenario JSON (FS1-FS8 plus the
      // edge/fault rules on its base) and skip the model path entirely.
      const Json j = Json::parse(read_file(flags["fleet-scenario"]));
      const FleetScenario scenario = FleetScenario::from_json(j);
      const analysis::LintReport report = lint_fleet_scenario(scenario);
      const int code = emit(report, min_severity, json, "", Json());
      if (!json) {
        std::cerr << "(" << scenario.devices.size() << " devices, "
                  << scenario.tenants.size() << " tenants, "
                  << scenario.fleet_faults.domains.size() << " domains)\n";
      }
      return code;
    }

    if (flags.count("gen-spec")) {
      // Crash-safety mode: validate a generation spec's robustness knobs
      // against RG1-RG3 and RG5 without building a model or training
      // anything.
      LibraryGenSpec spec;
      if (flags.count("journal-dir")) spec.journal_dir = flags["journal-dir"];
      if (flags.count("max-point-retries")) {
        spec.max_point_retries =
            parse_number<int>("max-point-retries", flags["max-point-retries"]);
      }
      if (flags.count("partial-policy")) {
        const std::string& p = flags["partial-policy"];
        if (p == "fail") {
          spec.partial_policy = PartialPolicy::kFail;
        } else if (p == "emit_partial") {
          spec.partial_policy = PartialPolicy::kEmitPartial;
        } else {
          throw ConfigError("unknown partial policy: " + p +
                            " (expected fail|emit_partial)");
        }
      }
      if (flags.count("eval-path")) spec.eval_path = flags["eval-path"];
      spec.verify_dataflow = flags.count("verify-dataflow") > 0;
      const analysis::LintReport report = lint_gen_spec(spec);
      const int code = emit(report, min_severity, json, "", Json());
      if (!json) {
        std::cerr << "(journal " << (spec.journal_dir.empty()
                                         ? std::string("disabled")
                                         : spec.journal_dir)
                  << ", retries " << spec.max_point_retries << ", policy "
                  << to_string(spec.partial_policy) << ", eval path "
                  << spec.eval_path << ")\n";
      }
      return code;
    }

    AcceleratorConfig config;
    if (flags.count("in-channels")) {
      config.in_channels =
          parse_number<int>("in-channels", flags["in-channels"]);
    }
    if (flags.count("image-size")) {
      config.image_size = parse_number<int>("image-size", flags["image-size"]);
    }

    BranchyModel model;
    if (!model_path.empty()) {
      model = load_model(model_path);
    } else {
      const double scale = flags.count("scale")
                               ? parse_number<double>("scale", flags["scale"])
                               : 0.25;
      const std::string exits =
          flags.count("exits") ? flags["exits"] : "paper";
      CnvConfig cnv = CnvConfig{}.scaled(scale);
      cnv.in_channels = config.in_channels;
      cnv.image_size = config.image_size;
      Rng rng(7);
      model = exits == "none"
                  ? build_cnv(cnv, rng)
                  : build_cnv_with_exits(cnv, paper_exits_config(false), rng);
      std::cerr << "no model given; linting a demo CNV (scale " << scale
                << ", exits " << exits << ")\n";
    }

    analysis::LintOptions options;
    if (flags.count("device")) {
      options.device = analysis::DeviceProfile::by_name(flags["device"]);
    }
    // The exit regime the reach-aware folding targets, the dataflow rules
    // analyze and --verify simulates: --fractions, or uniform.
    if (flags.count("fractions")) {
      options.exit_fractions = fractions_from_string(flags["fractions"]);
    } else {
      options.exit_fractions.assign(
          model.num_outputs(), 1.0 / static_cast<double>(model.num_outputs()));
    }

    // The folding under test: a user-supplied JSON (linted as R6 against
    // the walk-order sites before use) or a generated config.
    analysis::LintReport report;
    FoldingConfig folding;
    const ModelWalk walk =
        walk_model(model, config.in_channels, config.image_size);
    if (walk.findings.has_errors()) {
      // A shape-broken model has no sites to fold: report every violation
      // the design rules find with an empty folding.
      report = analysis::lint_design(model, walk, FoldingConfig{});
      return emit(report, min_severity, json, "", Json());
    }
    const std::vector<LayerSite>& sites = walk.sites;
    if (flags.count("folding")) {
      const Json j = Json::parse(read_file(flags["folding"]));
      report.merge(analysis::lint_folding_json(j, sites));
      if (report.has_errors()) {
        // The JSON is not well-formed enough to build a config from;
        // report what we have.
        return emit(report, min_severity, json, "", Json());
      }
      // R6 passed, so every site has a positive integral PE/SIMD. Build
      // the config directly instead of via from_json, whose first-check-wins
      // divisibility validation would hide all but one R1 violation.
      for (const auto& site : sites) {
        const Json& entry = j.at(site.name);
        folding.folds.push_back(
            LayerFold{static_cast<int>(entry.at("PE").as_number()),
                      static_cast<int>(entry.at("SIMD").as_number())});
      }
    } else {
      const std::string style =
          flags.count("folding-style") ? flags["folding-style"] : "styled";
      if (style == "styled") {
        folding = styled_folding(sites);
      } else if (style == "default") {
        folding = default_folding(sites);
      } else if (style == "reach") {
        // Reach-aware folds need the target exit regime and the device
        // budget (--device). The fixed overhead is taken from a compile of
        // the styled baseline so the optimizer prices pool/branch/FIFO
        // fabric it does not directly control.
        const FoldingConfig styled = styled_folding(sites);
        analysis::lint_design(model, walk, styled).throw_if_errors();
        const Accelerator styled_acc =
            compile_accelerator(model, walk, styled, config);
        folding = reach_aware_folding(
            sites, options.exit_fractions, options.device.caps,
            reach_aware_options(model, sites, styled, styled_acc,
                                config.cost));
      } else {
        throw ConfigError("unknown folding style: " + style);
      }
    }
    if (flags.count("emit-folding")) {
      write_file(flags["emit-folding"], folding.to_json(sites).dump(2) + "\n");
      std::cerr << "wrote folding to " << flags["emit-folding"] << "\n";
    }

    Accelerator acc;
    report.merge(analysis::lint(model, walk, folding, config, options, &acc));

    // Agreement harness: only meaningful once the static rules accept the
    // design (a rejected design cannot be compiled, let alone simulated).
    Json verify_json;
    std::string context_key;
    if (flags.count("verify") && !report.has_errors()) {
      analysis::CrossValidateOptions cv_opts;
      cv_opts.dataflow.device = options.device;
      const analysis::CrossValidation cv =
          analysis::cross_validate(acc, options.exit_fractions, cv_opts);
      report.merge(cv.lint);
      if (json) {
        context_key = "verify";
        verify_json = Json::object();
        verify_json["passed"] = cv.passed;
        verify_json["static_ii_cycles"] = cv.static_ii_cycles;
        verify_json["measured_ii_cycles"] = cv.measured_ii_cycles;
        verify_json["ii_rel_err"] = cv.ii_rel_err;
        verify_json["num_images"] = cv.num_images;
        Json links = Json::array();
        for (const auto& l : cv.links) {
          Json lj = Json::object();
          lj["producer"] = l.producer;
          lj["consumer"] = l.consumer;
          lj["high_water"] = l.measured_high_water;
          lj["lower"] = l.lower;
          lj["upper"] = l.upper;
          lj["ok"] = l.ok;
          links.push_back(std::move(lj));
        }
        verify_json["links"] = std::move(links);
      } else {
        std::cerr << cv.summary() << "\n";
      }
    }

    const int code =
        emit(report, min_severity, json, context_key, verify_json);
    if (!json) {
      std::cerr << "(" << sites.size() << " layers, device "
                << options.device.name << ")\n";
    }
    return code;
  } catch (const std::exception& e) {
    if (json) {
      Json root = Json::object();
      root["error"] = std::string(e.what());
      root["exit_code"] = 2;
      std::cout << root.dump(2) << "\n";
    } else {
      std::cerr << "error: " << e.what() << "\n";
    }
    return 2;
  }
}
