// Deterministic fault injection for the runtime layer.
//
// Edge deployments miss the happy path in ways the paper's Runtime Manager
// never sees: bitstream loads fail or run long, the accelerator wedges for a
// transient window, workload telemetry gets dropped or delayed. The
// FaultInjector models those events as independent Bernoulli processes, one
// per fault category, each driven by its own splitmix64-derived RNG stream
// seeded from the episode seed. Independent streams make experiments
// composable: raising the stall probability cannot perturb the sequence of
// reconfiguration-failure decisions, and an episode replays byte-identically
// for a fixed (spec, seed) pair. With every probability at zero the injector
// draws nothing and the simulation is exactly the fault-free one.
//
// Beyond those transient faults, the spec models soft errors (single-event
// upsets) in the deployed accelerator itself: bit flips in quantized weight
// memory silently degrade TOP-1 accuracy, and flips in configuration/FIFO
// memory manifest as wrong-class outputs, early-exit confidence corruption,
// or pipeline hangs. The `mitigation` block describes the hardware
// countermeasures synthesized into the bitstream (finn/mitigation.hpp);
// their runtime effect (immediate correction, periodic repair, dark time)
// is modeled in edge/simulation.

#pragma once

#include <cstdint>

#include "analysis/diagnostics.hpp"
#include "common/rng.hpp"
#include "finn/mitigation.hpp"
#include "finn/reconfig.hpp"
#include "library/library.hpp"

namespace adapex {

/// Fault probabilities and shapes for one episode. All probabilities are
/// per-opportunity: reconfiguration faults per attempt, the others per
/// manager sampling period.
struct FaultSpec {
  /// A reconfiguration attempt fails: the bitstream does not load, the dead
  /// time is still paid, and the previously loaded accelerator stays active.
  double reconfig_fail_prob = 0.0;
  /// A successful reconfiguration runs long by `reconfig_slow_factor`.
  double reconfig_slow_prob = 0.0;
  double reconfig_slow_factor = 4.0;
  /// Transient accelerator stall: serving stops for `stall_duration_s`.
  double stall_prob = 0.0;
  double stall_duration_s = 1.0;
  /// Monitor sample lost (the manager sees nothing this period).
  double monitor_drop_prob = 0.0;
  /// Monitor sample arrives one period late.
  double monitor_delay_prob = 0.0;

  // --- Soft errors (SEUs), per sampling period ---
  /// Bit upset in the quantized weight memory (MVTU BRAMs) of the active
  /// accelerator. Uncorrected, it silently degrades TOP-1 accuracy.
  double seu_weight_prob = 0.0;
  /// Bit upset in configuration/FIFO memory. Manifests as a pipeline hang,
  /// exit-confidence corruption, or wrong-class outputs (split below).
  double seu_config_prob = 0.0;
  /// TOP-1 accuracy lost per active uncorrected weight upset.
  double seu_weight_accuracy_drop = 0.04;
  /// TOP-1 accuracy lost per active wrong-class / exit-corrupting config
  /// upset.
  double seu_config_accuracy_drop = 0.06;
  /// First-exit acceptance shift per active confidence-corrupting upset
  /// (stuck-high exit logits accept early far too often).
  double seu_exit_rate_shift = 0.25;
  /// Config-upset manifestation split: fraction that hangs the pipeline and
  /// fraction that corrupts exit confidence; the remainder flips classes.
  double seu_hang_frac = 0.15;
  double seu_exit_corrupt_frac = 0.35;
  /// Mitigations synthesized into the deployed bitstream
  /// (finn/mitigation.hpp). Their runtime behaviour — ECC correction, scrub
  /// repairs + dark time, TMR masking — is modeled in edge/simulation.
  SeuMitigation mitigation;

  /// True when any soft-error upset can actually land.
  bool any_seu() const { return seu_weight_prob > 0.0 || seu_config_prob > 0.0; }

  /// True when any fault can actually fire.
  bool any() const {
    return reconfig_fail_prob > 0.0 || reconfig_slow_prob > 0.0 ||
           stall_prob > 0.0 || monitor_drop_prob > 0.0 ||
           monitor_delay_prob > 0.0 || any_seu();
  }
};

/// Validates the spec without throwing; one diagnostic per bad field (the
/// aggregated-report pattern of src/analysis).
analysis::LintReport lint_fault_spec(const FaultSpec& spec);

/// Library-aware overload: additionally checks the mitigations against the
/// accelerators they protect (RF6: TMR needs early-exit heads to
/// triplicate). Used by simulate_edge, which knows the library.
analysis::LintReport lint_fault_spec(const FaultSpec& spec,
                                     const Library& library);

/// How one configuration-memory upset manifests.
enum class ConfigUpset {
  kNone,        ///< No upset this period.
  kWrongClass,  ///< Corrupted routing/thresholds flip output classes.
  kExitCorrupt, ///< Exit-head confidence corrupted (early exits misfire).
  kHang,        ///< FIFO/handshake state wedged: the pipeline stops.
};

/// Draws fault events for one episode. Each category owns an independent
/// RNG stream derived from the episode seed, so decisions in one category
/// are a pure function of (seed, opportunity ordinal) in that category.
class FaultInjector {
 public:
  FaultInjector(const FaultSpec& spec, std::uint64_t episode_seed);

  /// Resolves one reconfiguration attempt with nominal dead time
  /// `nominal_ms`. The dead time is paid whether or not the load succeeds;
  /// slow loads stretch it by the spec's factor.
  ReconfigOutcome attempt_reconfig(double nominal_ms);

  /// Does the accelerator stall for a transient window this period?
  bool draw_stall();

  /// Is this period's monitor sample dropped / delayed?
  bool draw_monitor_drop();
  bool draw_monitor_delay();

  /// Does a weight-memory upset land this period?
  bool draw_weight_upset();

  /// Does a config-memory upset land this period, and how does it manifest?
  ConfigUpset draw_config_upset();

  /// Correlated-failure scaling (fleet failure domains, edge/fleet.hpp):
  /// multiplies the transient hardware rates (reconfig_fail_prob,
  /// stall_prob) by `transient` and the SEU occurrence rates
  /// (seu_weight_prob, seu_config_prob) by `seu`, clamped to probability 1.
  /// Every draw still happens, so the underlying uniform sequences are
  /// unchanged: scaling back to 1.0 restores the exact unscaled episode
  /// from that point on, and an injector that is never scaled (or scaled by
  /// exactly 1.0) is byte-identical to the pre-scaling behaviour
  /// (p * 1.0 == p). Monitor faults and severity knobs are not scaled.
  void set_rate_scale(double transient, double seu);

  double transient_scale() const { return transient_scale_; }
  double seu_scale() const { return seu_scale_; }

  const FaultSpec& spec() const { return spec_; }

 private:
  FaultSpec spec_;
  double transient_scale_ = 1.0;
  double seu_scale_ = 1.0;
  Rng reconfig_rng_;
  Rng stall_rng_;
  Rng drop_rng_;
  Rng delay_rng_;
  Rng weight_rng_;
  Rng config_rng_;
};

}  // namespace adapex
