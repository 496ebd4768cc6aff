// adapex_cli — command-line front end to the AdaPEx flow.
//
//   adapex_cli generate [--dataset cifar|gtsrb] [--out DIR]
//       [--journal DIR] [--retries N] [--partial-policy fail|emit_partial]
//       Run the design-time flow at the ADAPEX_SCALE preset and cache the
//       library. With --journal every finished design point is checkpointed
//       under DIR and an interrupted run resumes byte-identically; --retries
//       re-attempts failing points on fresh seed streams, and
//       --partial-policy emit_partial ships a library with still-failing
//       points explicitly missing instead of failing the run. A generation
//       report (computed/replayed/retried/quarantined, checkpoint overhead)
//       is printed after any journaled or retried run.
//   adapex_cli inspect LIBRARY.json [--top N]
//       Summarize a library: reference accuracy, accelerators, and the
//       Pareto-best operating points.
//   adapex_cli serve LIBRARY.json [--policy adapex|pr|ct|finn]
//       [--ratio R] [--runs N] [--threshold T]
//       Serve edge episodes at R x FINN capacity and print the metrics.
//
// Exit code 0 on success, 1 on usage errors (an unknown flag, a flag
// without a value, a stray argument), 2 on runtime failures (a flag value
// that does not parse in full or is out of range, an unreadable library).

#include <algorithm>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/table.hpp"
#include "core/adapex.hpp"

#include "cli_flags.hpp"

namespace {

using namespace adapex;

int usage() {
  std::cerr <<
      "usage:\n"
      "  adapex_cli generate [--dataset cifar|gtsrb] [--out DIR]\n"
      "             [--journal DIR] [--retries N]\n"
      "             [--partial-policy fail|emit_partial]\n"
      "  adapex_cli inspect LIBRARY.json [--top N]\n"
      "  adapex_cli serve LIBRARY.json [--policy adapex|pr|ct|finn]\n"
      "             [--ratio R] [--runs N] [--threshold T]\n";
  return 1;
}

using Flags = std::map<std::string, std::string>;

/// The `--name value` pairs from argv[start] on, or nullopt (a usage error)
/// for a flag not in `known`, a flag without a value, or a stray argument.
std::optional<Flags> parse_flags(
    int argc, char** argv, int start,
    std::initializer_list<std::string_view> known) {
  Flags flags;
  for (int i = start; i < argc; i += 2) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--") || i + 1 >= argc ||
        std::find(known.begin(), known.end(), arg.substr(2)) == known.end()) {
      return std::nullopt;
    }
    flags[std::string(arg.substr(2))] = argv[i + 1];
  }
  return flags;
}

std::string text_flag(const Flags& flags, const std::string& name,
                      std::string fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? std::move(fallback) : it->second;
}

template <typename T>
T number_flag(const Flags& flags, const std::string& name, T fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : parse_number<T>(name, it->second);
}

int cmd_generate(int argc, char** argv) {
  const auto flags =
      parse_flags(argc, argv, 2,
                  {"dataset", "out", "journal", "retries", "partial-policy"});
  if (!flags) return usage();
  const std::string ds = text_flag(*flags, "dataset", "cifar");
  if (ds != "cifar" && ds != "gtsrb") {
    throw ConfigError("--dataset: unknown dataset " + ds +
                      " (expected cifar|gtsrb)");
  }
  const std::string out = text_flag(*flags, "out", default_artifact_dir());
  SyntheticSpec dataset =
      ds == "gtsrb" ? gtsrb_like_spec() : cifar10_like_spec();
  auto spec = make_gen_spec(dataset, ExperimentScale::from_env());
  spec.on_progress = [](const std::string& s) {
    std::cerr << "  " << s << "\n";
  };
  spec.journal_dir = text_flag(*flags, "journal", spec.journal_dir);
  spec.max_point_retries =
      number_flag(*flags, "retries", spec.max_point_retries);
  if (flags->count("partial-policy")) {
    const std::string& p = flags->at("partial-policy");
    if (p == "fail") {
      spec.partial_policy = PartialPolicy::kFail;
    } else if (p == "emit_partial") {
      spec.partial_policy = PartialPolicy::kEmitPartial;
    } else {
      throw ConfigError("unknown partial policy: " + p +
                        " (expected fail|emit_partial)");
    }
  }
  GenerationReport report;
  spec.report = &report;
  Library lib = generate_or_load_library(spec, out);
  std::cout << "library ready: " << lib.entries.size() << " entries, "
            << lib.accelerators.size() << " accelerators, reference accuracy "
            << lib.reference_accuracy << "\n";
  if (report.partial) {
    std::cout << "PARTIAL library (not cached): inspect the report below\n";
  } else {
    std::cout << "cached under " << out << "/library_"
              << library_cache_key(spec) << ".json\n";
  }
  // A cache hit never runs generation, so the report stays empty.
  if (!report.points.empty()) {
    std::cout << "generation report: " << report.summary() << "\n";
  }
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto flags = parse_flags(argc, argv, 3, {"top"});
  if (!flags) return usage();
  const int top = number_flag(*flags, "top", 10);
  Library lib = Library::load(argv[2]);
  std::cout << "dataset: " << lib.dataset << "\nreference accuracy: "
            << lib.reference_accuracy << "\nentries: " << lib.entries.size()
            << ", accelerators: " << lib.accelerators.size() << "\n\n";

  // Pareto frontier on (accuracy up, ips up).
  std::vector<const LibraryEntry*> frontier;
  for (const auto& e : lib.entries) {
    bool dominated = false;
    for (const auto& o : lib.entries) {
      if (o.accuracy >= e.accuracy && o.ips >= e.ips &&
          (o.accuracy > e.accuracy || o.ips > e.ips)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) frontier.push_back(&e);
  }
  std::sort(frontier.begin(), frontier.end(),
            [](const LibraryEntry* a, const LibraryEntry* b) {
              return a->accuracy > b->accuracy;
            });
  TextTable table({"variant", "rate%", "ct%", "accuracy", "ips", "mj/inf"});
  int shown = 0;
  for (const auto* e : frontier) {
    if (shown++ >= top) break;
    table.add_row({to_string(e->variant), std::to_string(e->prune_rate_pct),
                   std::to_string(e->conf_threshold_pct),
                   TextTable::num(e->accuracy, 3), TextTable::num(e->ips, 0),
                   TextTable::num(e->energy_per_inf_j * 1e3, 4)});
  }
  std::cout << "accuracy-throughput Pareto frontier (top " << top << "):\n";
  table.print(std::cout);
  return 0;
}

int cmd_serve(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto flags =
      parse_flags(argc, argv, 3, {"policy", "ratio", "runs", "threshold"});
  if (!flags) return usage();
  AdaptPolicy policy = AdaptPolicy::kAdaPEx;
  if (flags->count("policy")) {
    const std::string& p = flags->at("policy");
    if (p == "adapex") policy = AdaptPolicy::kAdaPEx;
    else if (p == "pr") policy = AdaptPolicy::kPrOnly;
    else if (p == "ct") policy = AdaptPolicy::kCtOnly;
    else if (p == "finn") policy = AdaptPolicy::kStaticFinn;
    else throw ConfigError("unknown policy: " + p);
  }
  const double ratio = number_flag(*flags, "ratio", 1.3);
  const int runs = number_flag(*flags, "runs", 20);
  if (runs < 1) {
    throw ConfigError("--runs: " + std::to_string(runs) +
                      " is not at least 1");
  }
  const double threshold = number_flag(*flags, "threshold", 0.10);

  Library lib = Library::load(argv[2]);
  EdgeScenario scenario = scale_to_library(EdgeScenario{}, lib, ratio);
  EdgeMetrics m = simulate_edge_runs(lib, {policy, threshold}, scenario, runs);
  TextTable table({"metric", "value"});
  table.add_row({"policy", to_string(policy)});
  table.add_row({"offered load",
                 TextTable::num(scenario.workload.base_ips, 0) + " ips (" +
                     TextTable::num(ratio, 2) + "x FINN)"});
  table.add_row({"inference loss", TextTable::num(m.inference_loss_pct, 2) + " %"});
  table.add_row({"accuracy", TextTable::num(m.accuracy * 100, 2) + " %"});
  table.add_row({"avg latency", TextTable::num(m.avg_latency_ms, 3) + " ms"});
  table.add_row({"avg power", TextTable::num(m.avg_power_w, 3) + " W"});
  table.add_row({"energy/inf", TextTable::num(m.energy_per_inf_j * 1e3, 4) + " mJ"});
  table.add_row({"EDP", TextTable::num(m.edp * 1e6, 4) + " uJ*s"});
  table.add_row({"QoE", TextTable::num(m.qoe * 100, 2) + " %"});
  table.add_row({"reconfigs/run",
                 TextTable::num(static_cast<double>(m.reconfigurations) / runs, 1)});
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "inspect") return cmd_inspect(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
