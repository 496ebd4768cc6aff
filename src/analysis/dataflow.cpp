#include "analysis/dataflow.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <sstream>

#include "common/error.hpp"

namespace adapex {
namespace analysis {

namespace {

constexpr double kReachEps = 1e-12;
/// R9 fires when a gated (reach < 1) module's cycles * reach exceeds the
/// full-traffic front section's II by more than this factor.
constexpr double kBottleneckSlack = 1.25;
/// cross_validate: maximum |static - measured| / measured steady-state II.
constexpr double kIiRelTol = 0.01;
/// cross_validate stimulus length bounds; the harness sizes the stream from
/// the static lag bounds so the measurement window dominates transients.
constexpr std::size_t kMinImages = 512;
constexpr std::size_t kMaxImages = 60000;

/// The branch level whose survival probability gates module `m` (mirrors
/// module_touches: exit heads are gated by their branch point, backbone
/// modules by their exit level).
int gate_level(const HlsModule& m) {
  return m.exit_head >= 0 ? m.exit_head : m.exit_level;
}

double reach_at(const std::vector<double>& reach, int level) {
  if (level < 0) return 0.0;
  return level < static_cast<int>(reach.size())
             ? reach[static_cast<std::size_t>(level)]
             : 0.0;
}

std::string link_site(const Accelerator& acc, int producer, int consumer) {
  return acc.modules[static_cast<std::size_t>(producer)].name + " -> " +
         acc.modules[static_cast<std::size_t>(consumer)].name;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// R8: the exit distribution itself. Arity against the branch structure,
/// range and finiteness per fraction, unit sum, and non-negative survival
/// at every branch level (the partial sums may never exceed 1, or some
/// reach_m would be negative).
LintReport check_fractions(const Accelerator& acc,
                           const std::vector<double>& fractions) {
  LintReport report;
  const int outputs = acc.num_exits + 1;
  if (static_cast<int>(fractions.size()) != outputs) {
    report.add("R8", Severity::kError, "fractions",
               "exit distribution has " + std::to_string(fractions.size()) +
                   " entries but the accelerator has " +
                   std::to_string(outputs) + " outputs",
               "pass one fraction per output (exits in order, then final)");
    return report;
  }
  bool finite = true;
  for (std::size_t e = 0; e < fractions.size(); ++e) {
    const double f = fractions[e];
    if (!std::isfinite(f) || f < -1e-9 || f > 1.0 + 1e-9) {
      report.add("R8", Severity::kError, "fractions",
                 "fraction of output " + std::to_string(e) + " is " + fmt(f) +
                     ", outside [0, 1]",
                 "exit fractions are probabilities");
      finite = finite && std::isfinite(f);
    }
  }
  double sum = 0.0;
  for (double f : fractions) sum += f;
  if (!std::isfinite(sum) || std::abs(sum - 1.0) > 1e-6) {
    report.add("R8", Severity::kError, "fractions",
               "exit fractions sum to " + fmt(sum) + ", expected 1",
               "normalize the measured exit distribution");
  }
  if (finite) {
    // Monotone survival: reach[L] = 1 - sum(fractions[0..L-1]) must stay
    // non-negative (equivalently, every partial sum stays <= 1).
    double prefix = 0.0;
    for (int level = 0; level < acc.num_exits; ++level) {
      prefix += fractions[static_cast<std::size_t>(level)];
      if (prefix > 1.0 + 1e-9) {
        report.add(
            "R8", Severity::kError, "fractions",
            "survival past branch " + std::to_string(level) + " is " +
                fmt(1.0 - prefix) + " (exit fractions over-count the stream)",
            "fractions up to each branch point may sum to at most 1");
      }
    }
  }
  return report;
}

/// R11 (structural half): rebuilds the producer -> consumer link graph from
/// the paths defensively — hand-built fixtures may carry corrupt paths the
/// shared helpers in finn/ are entitled to assert on. Reports out-of-range
/// indices, joins (two producers into one module), self-loops, and cycles.
/// Returns false when the graph is too broken for bound computation.
bool build_link_graph(const Accelerator& acc,
                      std::vector<std::pair<int, int>>* links,
                      std::vector<int>* pred, LintReport* report) {
  const int num_modules = static_cast<int>(acc.modules.size());
  if (num_modules == 0 ||
      acc.paths.size() != static_cast<std::size_t>(acc.num_exits + 1)) {
    report->add("R11", Severity::kError, "accelerator",
                "accelerator has " + std::to_string(acc.paths.size()) +
                    " paths for " + std::to_string(acc.num_exits + 1) +
                    " outputs",
                "compile_accelerator emits one path per output");
    return false;
  }
  pred->assign(static_cast<std::size_t>(num_modules), -1);
  bool ok = true;
  for (std::size_t e = 0; e < acc.paths.size(); ++e) {
    const auto& path = acc.paths[e];
    if (path.empty()) {
      report->add("R11", Severity::kError, "path " + std::to_string(e),
                  "output path is empty", "every output needs a module path");
      ok = false;
      continue;
    }
    for (int mi : path) {
      if (mi < 0 || mi >= num_modules) {
        report->add("R11", Severity::kError, "path " + std::to_string(e),
                    "path references module index " + std::to_string(mi),
                    "path indices must name compiled modules");
        ok = false;
      }
    }
    if (!ok) continue;
    for (std::size_t i = 1; i < path.size(); ++i) {
      const int p = path[i - 1];
      const int c = path[i];
      if (p == c) {
        report->add("R11", Severity::kError,
                    acc.modules[static_cast<std::size_t>(c)].name,
                    "self-loop in the module graph",
                    "a module cannot stream to itself");
        ok = false;
        continue;
      }
      int& existing = (*pred)[static_cast<std::size_t>(c)];
      if (existing == p) continue;  // shared backbone prefix
      if (existing >= 0) {
        report->add("R11", Severity::kError,
                    acc.modules[static_cast<std::size_t>(c)].name,
                    "module has two producers (" +
                        acc.modules[static_cast<std::size_t>(existing)].name +
                        " and " +
                        acc.modules[static_cast<std::size_t>(p)].name +
                        "); the stream graph must be a fork tree",
                    "joins need an explicit merge module");
        ok = false;
        continue;
      }
      existing = p;
      links->emplace_back(p, c);
    }
  }
  if (!ok) return false;
  // Cycle check over the predecessor chains: in a tree every walk to the
  // source terminates in at most num_modules steps. A cycle here is the
  // credit-graph deadlock hazard — bounded FIFOs on a cyclic data path can
  // all fill and wedge.
  for (int m = 0; m < num_modules; ++m) {
    int cursor = m;
    int steps = 0;
    while (cursor >= 0 && steps <= num_modules) {
      cursor = (*pred)[static_cast<std::size_t>(cursor)];
      ++steps;
    }
    if (cursor >= 0) {
      report->add("R11", Severity::kError,
                  acc.modules[static_cast<std::size_t>(m)].name,
                  "cycle in the module stream graph: bounded FIFOs on this "
                  "loop can fill and deadlock the pipeline",
                  "break the cycle; dataflow graphs must be acyclic");
      return false;
    }
  }
  return true;
}

}  // namespace

DataflowReport analyze_dataflow(const Accelerator& acc,
                                const std::vector<double>& exit_fractions,
                                const DataflowOptions& options) {
  DataflowReport rep;
  rep.lint.merge(check_fractions(acc, exit_fractions));
  if (rep.lint.has_errors()) return rep;

  std::vector<std::pair<int, int>> links;
  std::vector<int> pred;
  if (!build_link_graph(acc, &links, &pred, &rep.lint)) return rep;

  rep.reach = reach_from_fractions(exit_fractions);
  rep.module_reach.resize(acc.modules.size());
  for (std::size_t m = 0; m < acc.modules.size(); ++m) {
    rep.module_reach[m] = reach_at(rep.reach, gate_level(acc.modules[m]));
  }

  // Reach-scaled steady-state II and the full-traffic front II (R9 base).
  rep.steady_ii_cycles = gated_steady_ii(acc, exit_fractions,
                                         &rep.bottleneck_module);
  rep.front_ii_cycles = 0.0;
  for (std::size_t m = 0; m < acc.modules.size(); ++m) {
    if (rep.module_reach[m] >= 1.0 - kReachEps) {
      rep.front_ii_cycles = std::max(
          rep.front_ii_cycles, static_cast<double>(acc.modules[m].cycles));
    }
  }
  if (rep.steady_ii_cycles <= 0.0) {
    rep.lint.add("R9", Severity::kError, "accelerator",
                 "degenerate accelerator: no module performs work under this "
                 "exit distribution",
                 "at least one reachable module needs nonzero cycles");
    return rep;
  }
  const double t = rep.steady_ii_cycles;

  // Per-module lag bound: lag(m) = sum of cycles_u * (gate_level_u + 1)
  // along the source..m path. With injection paced at the gated II and an
  // evenly spread stimulus, module m finishes image i no later than
  // i * II + lag(m) (derivation in DESIGN.md "Dataflow verification").
  std::vector<double> lag(acc.modules.size(), 0.0);
  // pred[] points upstream, so a forward pass in link order (producers
  // always appear before their consumers on some path prefix) needs a
  // topological order; walking each chain memoized is simpler and linear.
  std::vector<char> lag_done(acc.modules.size(), 0);
  std::function<double(int)> lag_of = [&](int m) -> double {
    const std::size_t mi = static_cast<std::size_t>(m);
    if (lag_done[mi]) return lag[mi];
    const double own =
        static_cast<double>(acc.modules[mi].cycles) *
        static_cast<double>(gate_level(acc.modules[mi]) + 1);
    lag[mi] = own + (pred[mi] >= 0 ? lag_of(pred[mi]) : 0.0);
    lag_done[mi] = 1;
    return lag[mi];
  };

  rep.links.reserve(links.size());
  rep.fifo_bram_upper = 0;
  long branch_bram = 0;
  for (const auto& pc : links) {
    const int p = pc.first;
    const int c = pc.second;
    LinkBound lb;
    lb.producer = p;
    lb.consumer = c;
    lb.reach = rep.module_reach[static_cast<std::size_t>(c)];
    const double cons_cycles =
        static_cast<double>(acc.modules[static_cast<std::size_t>(c)].cycles);
    // Upper bound: arrivals are paced at >= II apart, departures lag by at
    // most lag(consumer); at most 2 + ceil(lag(c)/II) images can be resident.
    lb.occupancy_upper =
        2 + static_cast<int>(std::ceil(lag_of(c) / t - 1e-9));
    // Lower bound: while the consumer serves one touched image (cycles_c
    // long), at least floor((cycles_c - lag(p))/II) further images arrive
    // behind it — any correct sizing must hold them.
    lb.occupancy_lower = 1;
    if (lb.reach > kReachEps) {
      const double backlog = (cons_cycles - lag_of(p)) / t - 1e-9;
      lb.occupancy_lower =
          std::max(1, static_cast<int>(std::floor(backlog)));
    }
    lb.occupancy_lower = std::min(lb.occupancy_lower, lb.occupancy_upper);
    lb.bram_upper = fifo_bram_for(acc, p, lb.occupancy_upper);
    rep.fifo_bram_upper += lb.bram_upper;
    if (acc.modules[static_cast<std::size_t>(p)].kind ==
        HlsModuleKind::kBranch) {
      branch_bram += lb.bram_upper;
    }
    rep.links.push_back(lb);
  }

  // R9: a gated module folded below its gated arrival rate throttles the
  // whole pipeline — the paper's re-folding target. The slack factor keeps
  // the rule quiet on designs that deliberately put the bottleneck after
  // the branch (the styled CNV points do).
  for (std::size_t m = 0; m < acc.modules.size(); ++m) {
    const double r = rep.module_reach[m];
    if (r >= 1.0 - kReachEps) continue;
    const double gated = static_cast<double>(acc.modules[m].cycles) * r;
    if (rep.front_ii_cycles > 0.0 &&
        gated > kBottleneckSlack * rep.front_ii_cycles) {
      rep.lint.add(
          "R9", Severity::kWarning, acc.modules[m].name,
          "gated II " + fmt(gated) + " cycles (cycles " +
              std::to_string(acc.modules[m].cycles) + " x reach " + fmt(r) +
              ") exceeds the full-traffic front II of " +
              fmt(rep.front_ii_cycles) + " cycles by more than " +
              fmt(kBottleneckSlack) + "x",
          "unfold this module (more PE/SIMD): it throttles the pipeline "
          "despite seeing only part of the traffic");
    }
  }

  // R10 / R11 (plan half): check a proposed sizing plan against the bounds.
  if (options.fifo_plan != nullptr) {
    for (const LinkBound& lb : rep.links) {
      const FifoRequirement* plan = nullptr;
      for (const FifoRequirement& req : *options.fifo_plan) {
        if (req.producer == lb.producer && req.consumer == lb.consumer) {
          plan = &req;
          break;
        }
      }
      const std::string site = link_site(acc, lb.producer, lb.consumer);
      if (plan == nullptr) {
        rep.lint.add("R10", Severity::kError, site,
                     "sizing plan provisions no FIFO on this link",
                     "every producer -> consumer link needs a depth");
        continue;
      }
      if (plan->depth_images < 1) {
        rep.lint.add("R11", Severity::kError, site,
                     "planned depth " + std::to_string(plan->depth_images) +
                         " cannot hold a single image: the Branch "
                         "duplicator's synchronous write wedges immediately",
                     "provision at least one image per link");
        continue;
      }
      if (plan->depth_images < lb.occupancy_lower) {
        rep.lint.add("R10", Severity::kError, site,
                     "planned depth " + std::to_string(plan->depth_images) +
                         " is below the static occupancy lower bound " +
                         std::to_string(lb.occupancy_lower),
                     "deepen the FIFO to at least the lower bound");
      } else if (acc.modules[static_cast<std::size_t>(lb.producer)].kind ==
                     HlsModuleKind::kBranch &&
                 plan->depth_images < lb.occupancy_upper) {
        rep.lint.add(
            "R11", Severity::kWarning, site,
            "branch-side depth " + std::to_string(plan->depth_images) +
                " is below the proven-sufficient bound " +
                std::to_string(lb.occupancy_upper) +
                ": the duplicator stalls its sibling subtree whenever this "
                "FIFO fills",
            "deepen to the upper bound to prove backpressure freedom");
      }
    }
  }

  // R13: the duplicated-stream buffering cost, statically. The upper
  // bounds prove a sufficient provisioning, so their BRAM total is what an
  // eager designer would have to budget before size_fifos ever runs.
  const long total_bram = acc.total.bram + rep.fifo_bram_upper;
  if (total_bram > options.device.caps.bram) {
    rep.lint.add(
        "R13", Severity::kWarning, "device " + options.device.name,
        "accelerator BRAM " + std::to_string(acc.total.bram) +
            " plus proven-sufficient FIFO buffering " +
            std::to_string(rep.fifo_bram_upper) + " (branch links: " +
            std::to_string(branch_bram) + ") exceeds the device cap " +
            std::to_string(options.device.caps.bram),
        "shrink the duplicated-stream FIFOs (re-fold the exit heads) or "
        "target a larger part");
  } else {
    rep.lint.add(
        "R13", Severity::kInfo, "device " + options.device.name,
        "FIFO buffering upper bound " + std::to_string(rep.fifo_bram_upper) +
            " BRAM (branch links: " + std::to_string(branch_bram) +
            "); accelerator total with FIFOs " + std::to_string(total_bram) +
            " of " + std::to_string(options.device.caps.bram));
  }

  // R14: the analytical performance model must agree with the
  // reach-weighted account this pass computes. On compiled accelerators the
  // two share their formulas; divergence means the gating metadata
  // (exit_level vs exit_head) is inconsistent.
  try {
    const AcceleratorPerf perf =
        estimate_performance(acc, exit_fractions, PowerModel{});
    rep.lint.merge(lint_gated_throughput(acc, exit_fractions, perf));
  } catch (const Error& e) {
    rep.lint.add("R14", Severity::kError, "accelerator",
                 std::string("analytical performance model rejected the "
                             "design: ") +
                     e.what(),
                 "fix the module metadata so estimate_performance accepts "
                 "the distribution");
  }

  return rep;
}

std::vector<int> make_gated_stimulus(const std::vector<double>& fractions,
                                     std::size_t num_images) {
  ADAPEX_CHECK(num_images > 0, "stimulus needs at least one image");
  ADAPEX_CHECK(!fractions.empty(), "need at least one exit fraction");
  double sum = 0.0;
  for (double f : fractions) {
    ADAPEX_CHECK(std::isfinite(f) && f >= -1e-9, "bad exit fraction");
    sum += f;
  }
  ADAPEX_CHECK(std::abs(sum - 1.0) < 1e-6, "exit fractions must sum to 1");

  const std::size_t outputs = fractions.size();
  // Largest-remainder apportionment of the per-output counts.
  std::vector<std::size_t> count(outputs, 0);
  std::vector<std::pair<double, std::size_t>> remainder(outputs);
  std::size_t assigned = 0;
  for (std::size_t e = 0; e < outputs; ++e) {
    const double ideal =
        std::max(0.0, fractions[e]) * static_cast<double>(num_images);
    count[e] = static_cast<std::size_t>(std::floor(ideal));
    assigned += count[e];
    remainder[e] = {count[e] - ideal, e};  // ascending = largest remainder
  }
  std::sort(remainder.begin(), remainder.end());
  for (std::size_t k = 0; assigned < num_images; ++k) {
    count[remainder[k % outputs].second] += 1;
    assigned += 1;
  }

  // Nested Bresenham survivor selection: at each branch level, spread the
  // images that survive evenly over the current survivor list, so every
  // "survives past level L" subset has bounded discrepancy in any window —
  // the arrival mix the static occupancy bounds assume.
  std::vector<int> exit_of(num_images, static_cast<int>(outputs) - 1);
  std::vector<std::size_t> survivors(num_images);
  std::iota(survivors.begin(), survivors.end(), std::size_t{0});
  for (std::size_t level = 0; level + 1 < outputs; ++level) {
    const unsigned long long total = survivors.size();
    unsigned long long take = 0;
    for (std::size_t e = level + 1; e < outputs; ++e) take += count[e];
    std::vector<std::size_t> next;
    next.reserve(static_cast<std::size_t>(take));
    for (unsigned long long j = 0; j < total; ++j) {
      const bool advances = ((j + 1) * take) / total > (j * take) / total;
      if (advances) {
        next.push_back(survivors[static_cast<std::size_t>(j)]);
      } else {
        exit_of[survivors[static_cast<std::size_t>(j)]] =
            static_cast<int>(level);
      }
    }
    survivors = std::move(next);
  }
  return exit_of;
}

LintReport lint_entry_reach(const Accelerator& acc, const LibraryEntry& entry,
                            double throughput_factor, double rel_tol) {
  LintReport report = check_fractions(acc, entry.exit_fractions);
  if (report.has_errors()) return report;
  const double ii = gated_steady_ii(acc, entry.exit_fractions);
  if (ii <= 0.0) {
    report.add("R12", Severity::kError, "entry " + std::to_string(entry.accel_id),
               "degenerate accelerator under the entry's exit distribution",
               "");
    return report;
  }
  const double expected_ips = acc.fclk_hz() / ii * throughput_factor;
  const double err =
      std::abs(entry.ips - expected_ips) / std::max(expected_ips, 1e-12);
  if (err > rel_tol) {
    report.add(
        "R12", Severity::kError, "entry " + std::to_string(entry.accel_id),
        "recorded throughput " + fmt(entry.ips) +
            " ips drifts from the reach-scaled model " + fmt(expected_ips) +
            " ips (rel err " + fmt(err) + ")",
        "regenerate the library entry against this accelerator");
  }
  return report;
}

LintReport lint_gated_throughput(const Accelerator& acc,
                                 const std::vector<double>& exit_fractions,
                                 const AcceleratorPerf& claimed,
                                 double rel_tol) {
  LintReport report = check_fractions(acc, exit_fractions);
  if (report.has_errors()) return report;

  const double ii = gated_steady_ii(acc, exit_fractions);
  if (ii <= 0.0) {
    report.add("R14", Severity::kError, "accelerator",
               "degenerate accelerator (no gated work)", "");
    return report;
  }
  const double expected_ips = acc.fclk_hz() / ii;
  const double ips_err =
      std::abs(claimed.ips - expected_ips) / std::max(expected_ips, 1e-12);
  if (ips_err > rel_tol) {
    report.add("R14", Severity::kError, "accelerator",
               "claimed throughput " + fmt(claimed.ips) +
                   " ips does not match the reach-weighted model " +
                   fmt(expected_ips) + " ips (rel err " + fmt(ips_err) + ")",
               "gating metadata (exit_level/exit_head) and the claimed "
               "performance disagree");
  }

  // Fraction-weighted analytical latency, computed exactly as the
  // performance model does so agreement is bitwise on compiled designs.
  if (acc.paths.size() == exit_fractions.size()) {
    double latency_ms = 0.0;
    for (std::size_t e = 0; e < acc.paths.size(); ++e) {
      double cycles = 0.0;
      for (int mi : acc.paths[e]) {
        cycles += static_cast<double>(
            acc.modules[static_cast<std::size_t>(mi)].cycles);
      }
      latency_ms += exit_fractions[e] * (cycles / acc.fclk_hz() * 1e3);
    }
    const double lat_err = std::abs(claimed.latency_ms - latency_ms) /
                           std::max(latency_ms, 1e-12);
    if (lat_err > rel_tol) {
      report.add("R14", Severity::kError, "accelerator",
                 "claimed latency " + fmt(claimed.latency_ms) +
                     " ms does not match the fraction-weighted path model " +
                     fmt(latency_ms) + " ms (rel err " + fmt(lat_err) + ")",
                 "gated-throughput accounting drift");
    }
  }
  return report;
}

std::string CrossValidation::summary() const {
  std::ostringstream os;
  os << "cross-validation " << (passed ? "PASSED" : "FAILED") << ": static II "
     << static_ii_cycles << " vs measured " << measured_ii_cycles
     << " cycles (rel err " << ii_rel_err << ") over " << num_images
     << " images; ";
  std::size_t ok = 0;
  for (const auto& l : links) ok += l.ok ? 1 : 0;
  os << ok << "/" << links.size() << " links inside occupancy bounds";
  return os.str();
}

CrossValidation cross_validate(const Accelerator& acc,
                               const std::vector<double>& exit_fractions,
                               const CrossValidateOptions& options) {
  CrossValidation cv;

  // Gate on the static pass: a distribution R8 rejects (or a corrupt
  // graph) is not verifiable against simulation.
  DataflowReport ideal = analyze_dataflow(acc, exit_fractions,
                                          options.dataflow);
  if (ideal.lint.has_errors()) {
    cv.lint = std::move(ideal.lint);
    return cv;
  }

  // Size the stream so the steady-state window dominates both the fill
  // transient (lag) and the stimulus discrepancy at the 1% II tolerance.
  double lag_proxy = 0.0;
  double max_cycles = 0.0;
  for (const auto& m : acc.modules) {
    lag_proxy += static_cast<double>(m.cycles) *
                 static_cast<double>(gate_level(m) + 1);
    max_cycles = std::max(max_cycles, static_cast<double>(m.cycles));
  }
  const double t_ideal = ideal.steady_ii_cycles;
  double want = 400.0 * (lag_proxy +
                         static_cast<double>(acc.num_exits + 2) * max_cycles) /
                t_ideal;
  int max_lower = 0;
  for (const auto& lb : ideal.links) {
    max_lower = std::max(max_lower, lb.occupancy_lower);
  }
  want = std::max(want, 4.0 * static_cast<double>(max_lower +
                                                  static_cast<int>(
                                                      acc.modules.size()) +
                                                  64));
  std::size_t n = static_cast<std::size_t>(std::ceil(
      std::max(want, static_cast<double>(kMinImages))));
  n = std::min(std::max(n, kMinImages), kMaxImages);
  cv.num_images = n;

  const std::vector<int> stimulus = make_gated_stimulus(exit_fractions, n);
  const std::vector<double> realized = realized_fractions(acc, stimulus);

  // Bounds from the *realized* fractions: the simulator sees the quantized
  // stream, so the static model must be evaluated on the same mix.
  DataflowReport rep = analyze_dataflow(acc, realized, options.dataflow);
  if (rep.lint.has_errors()) {
    cv.lint = std::move(rep.lint);
    return cv;
  }
  cv.static_ii_cycles = rep.steady_ii_cycles;

  // Measurement 1 — free run: unbounded FIFOs, back-to-back source. The
  // statically predicted bottleneck saturates, so its begin pace is the
  // measured sustainable II (sensitive to both over- and under-estimation).
  PipelineSimOptions free_run;
  free_run.injection_interval_cycles = 0.0;
  free_run.fifo_depth = 0;
  free_run.record_link_occupancy = false;
  const PipelineSimResult free_sim = simulate_pipeline(acc, stimulus, free_run);
  cv.measured_ii_cycles =
      free_sim
          .module_begin_ii_cycles[static_cast<std::size_t>(
              rep.bottleneck_module)];
  cv.ii_rel_err = std::abs(cv.static_ii_cycles - cv.measured_ii_cycles) /
                  std::max(cv.measured_ii_cycles, 1e-12);
  if (cv.ii_rel_err > kIiRelTol) {
    cv.lint.add(
        "XV", Severity::kError,
        acc.modules[static_cast<std::size_t>(rep.bottleneck_module)].name,
        "static II " + fmt(cv.static_ii_cycles) +
            " disagrees with measured II " + fmt(cv.measured_ii_cycles) +
            " cycles (rel err " + fmt(cv.ii_rel_err) + " > " +
            fmt(kIiRelTol) + ")",
        "the reach-scaled II model and the simulator diverge");
  }

  // Measurement 2 — paced run at the static II with unbounded FIFOs: the
  // same measurement path size_fifos provisions from. Every link's
  // high-water mark must land inside [lower, upper].
  PipelineSimOptions paced;
  paced.injection_interval_cycles = std::max(cv.static_ii_cycles, 1.0);
  paced.fifo_depth = 0;
  paced.record_link_occupancy = true;
  const PipelineSimResult paced_sim = simulate_pipeline(acc, stimulus, paced);

  cv.links.reserve(rep.links.size());
  for (const LinkBound& lb : rep.links) {
    CrossValidation::LinkCheck check;
    check.producer = lb.producer;
    check.consumer = lb.consumer;
    check.lower = lb.occupancy_lower;
    check.upper = lb.occupancy_upper;
    check.measured_high_water = -1;
    for (const LinkOccupancy& occ : paced_sim.links) {
      if (occ.producer == lb.producer && occ.consumer == lb.consumer) {
        check.measured_high_water = occ.high_water_images;
        break;
      }
    }
    check.ok = check.measured_high_water >= check.lower &&
               check.measured_high_water <= check.upper;
    if (!check.ok) {
      cv.lint.add("XV", Severity::kError,
                  link_site(acc, lb.producer, lb.consumer),
                  "measured high-water mark " +
                      std::to_string(check.measured_high_water) +
                      " images outside static bounds [" +
                      std::to_string(check.lower) + ", " +
                      std::to_string(check.upper) + "]",
                  "occupancy bound derivation and simulator diverge");
    }
    cv.links.push_back(check);
  }

  cv.passed = !cv.lint.has_errors();
  return cv;
}

}  // namespace analysis
}  // namespace adapex
