// Reach-aware dataflow verifier: abstract interpretation over compiled
// Accelerator graphs.
//
// Under stream gating, only a fraction reach_m of the offered inputs ever
// performs work at module m (ATHEENA's observation: post-branch hardware
// only sees the traffic that survives every upstream exit). This pass
// propagates an exit distribution through the module tree and derives, per
// module and per link, static quantities the transaction-level simulator
// would otherwise have to measure:
//
//   - reach_m and the reach-scaled steady-state initiation interval
//     II = max_m cycles_m * reach_m (the sustainable input pace);
//   - FIFO occupancy *bounds* per link: a lower bound any correct sizing
//     must meet and an upper bound that proves a proposed depth sufficient
//     (interval arithmetic over per-module lag bounds, derivation in
//     DESIGN.md "Dataflow verification");
//   - deadlock/backpressure freedom of bounded-FIFO configurations via
//     cycle detection over the fork/join credit graph (the Branch
//     duplicator's synchronous write to both outputs is the hazard).
//
// Findings surface as structured Diagnostics extending the R1-R7 catalog:
//
//   R8  reach-consistency: exit-fraction arity/range/sum, and monotone
//       non-negative survival (partial sums vs. the branch structure).
//   R9  reach-scaled II feasibility: a post-branch module folded below its
//       gated arrival rate throttles the whole pipeline even though it
//       sees only reach_m of the traffic (the ATHEENA re-folding target).
//   R10 FIFO depth lower-bound violation: a proposed fifo_sizing plan
//       provisions a link below the static occupancy lower bound.
//   R11 bounded-FIFO deadlock freedom: the data/credit graph must be
//       acyclic and every bounded link at a Branch fork deep enough that
//       the synchronous duplicator cannot wedge its sibling subtree.
//   R12 reach-vs-Library drift: a Library entry's recorded exit fractions
//       and throughput must be consistent with the accelerator it was
//       priced against.
//   R13 duplicated-stream buffering cost: BRAM for branch-link FIFOs at
//       the proven-sufficient depth, statically, against the device budget
//       (before size_fifos ever runs).
//   R14 gated-throughput accounting: claimed cycles/ips/latency must match
//       the reach-weighted module model.
//
// cross_validate() is the agreement harness: it builds a deterministic
// evenly-spread stimulus realizing the exit distribution, runs
// simulate_pipeline twice (free-running for the measured II at the
// bottleneck, steady-paced for link occupancy — the same measurement path
// size_fifos uses), and asserts every static bound brackets the measured
// value: steady II within 1%, every link high-water mark inside
// [lower, upper]. generate_library() runs it behind
// LibraryGenSpec::verify_dataflow, adapex_lint behind --verify, and
// bench_verifier sweeps the CNV design space with it to report tightness.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/device.hpp"
#include "analysis/diagnostics.hpp"
#include "finn/accelerator.hpp"
#include "finn/fifo_sizing.hpp"
#include "finn/pipeline_sim.hpp"
#include "library/library.hpp"

namespace adapex {
namespace analysis {

/// Tuning knobs for one dataflow analysis.
struct DataflowOptions {
  /// Device whose BRAM budget R13 checks the buffering cost against.
  DeviceProfile device = DeviceProfile::zcu104();
  /// Optional proposed FIFO sizing plan; enables R10 and sharpens R11.
  const std::vector<FifoRequirement>* fifo_plan = nullptr;
};

/// Static occupancy bounds of one producer -> consumer link.
struct LinkBound {
  int producer = -1;  ///< Module index.
  int consumer = -1;
  /// Fraction of offered inputs that perform work at the consumer.
  double reach = 1.0;
  /// Any correct sizing must provision at least this many images.
  int occupancy_lower = 1;
  /// This many images provably suffices (no steady-state backpressure).
  int occupancy_upper = 1;
  /// BRAM18 cost of occupancy_upper at the link's stream width.
  long bram_upper = 0;
};

/// Everything one analysis derives.
struct DataflowReport {
  /// Survival probability before each output (reach_from_fractions).
  std::vector<double> reach;
  /// Gated traffic fraction per module.
  std::vector<double> module_reach;
  /// Reach-scaled steady-state initiation interval, cycles.
  double steady_ii_cycles = 0.0;
  /// II of the full-traffic (reach == 1) front section, cycles (R9 base).
  double front_ii_cycles = 0.0;
  /// Module whose cycles * reach is binding.
  int bottleneck_module = -1;
  /// Per-link occupancy bounds, one per module with a predecessor.
  std::vector<LinkBound> links;
  /// Aggregate BRAM of all link FIFOs at the proven-sufficient depth.
  long fifo_bram_upper = 0;
  /// R8-R14 findings.
  LintReport lint;
};

/// Runs the abstract-interpretation pass. `exit_fractions` has one entry
/// per output (exits then final; {1.0} for a no-exit design) — supplied by
/// the caller or taken from a Library entry's recorded exit distribution.
/// Never throws on a broken design: violations come back as diagnostics,
/// and bound/II fields are only meaningful when R8 left no errors.
DataflowReport analyze_dataflow(const Accelerator& acc,
                                const std::vector<double>& exit_fractions,
                                const DataflowOptions& options = {});

/// Deterministic, evenly-spread stimulus realizing `fractions` over
/// `num_images` images: per-output counts by largest remainder, assigned by
/// nested Bresenham selection so that every "survives past branch L" subset
/// is spread with bounded discrepancy — the steady-state arrival mix the
/// occupancy bounds assume.
std::vector<int> make_gated_stimulus(const std::vector<double>& fractions,
                                     std::size_t num_images);

/// R12: checks a Library entry against the accelerator it claims to be
/// priced on — exit-fraction consistency (via R8) and recorded ips vs. the
/// reach-scaled II of this accelerator. `throughput_factor` is the
/// mitigation derate the entry was taxed with (1.0 when none).
LintReport lint_entry_reach(const Accelerator& acc, const LibraryEntry& entry,
                            double throughput_factor = 1.0,
                            double rel_tol = 1e-6);

/// R14: checks a claimed performance estimate against the reach-weighted
/// module model (ips vs. fclk / gated II, latency vs. the fraction-weighted
/// per-path cycle sums).
LintReport lint_gated_throughput(const Accelerator& acc,
                                 const std::vector<double>& exit_fractions,
                                 const AcceleratorPerf& claimed,
                                 double rel_tol = 1e-6);

/// Agreement-harness knobs.
struct CrossValidateOptions {
  /// Options of the static analysis the measurements are checked against.
  DataflowOptions dataflow;
};

/// One cross-validation outcome.
struct CrossValidation {
  bool passed = false;
  /// Static reach-scaled II (from the stimulus's realized fractions).
  double static_ii_cycles = 0.0;
  /// Measured: the bottleneck module's begin pace in a free-running,
  /// unbounded-FIFO simulation (its sustainable service rate).
  double measured_ii_cycles = 0.0;
  double ii_rel_err = 0.0;
  std::size_t num_images = 0;
  struct LinkCheck {
    int producer = -1;
    int consumer = -1;
    int measured_high_water = 0;
    int lower = 1;
    int upper = 1;
    bool ok = false;
  };
  std::vector<LinkCheck> links;
  /// Bracket violations as XV-rule diagnostics (plus any R8 findings that
  /// made the distribution unverifiable).
  LintReport lint;

  std::string summary() const;
};

/// Cross-validates the static model against the transaction-level
/// simulator on one (accelerator, exit distribution) pair.
CrossValidation cross_validate(const Accelerator& acc,
                               const std::vector<double>& exit_fractions,
                               const CrossValidateOptions& options = {});

}  // namespace analysis
}  // namespace adapex
