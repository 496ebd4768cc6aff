// Static verifier for AdaPEx design points.
//
// lint() checks a (BranchyModel, FoldingConfig, AcceleratorConfig) triple —
// and, when the design-level rules pass, the compiled Accelerator — without
// running the pipeline simulator, emitting structured Diagnostics instead of
// aborting on the first violated ADAPEX_CHECK. Rule catalog:
//
//   R1  folding divisibility: PE | out_channels and SIMD | matrix width
//       (k^2 * ch_in for conv, in_features for fc) at every walk-order site.
//   R2  shape propagation: conv/pool/fc geometry must stay consistent from
//       the input image through the backbone and every exit head.
//   R3  stream-width agreement: a producer's output parallelism must match
//       (or integrally convert to) its consumer's input parallelism on every
//       link, including both consumers of a Branch duplicator.
//   R4  FIFO backpressure hazards: initiation-interval imbalance across a
//       Branch fork makes the duplicated stream back up; flagged statically
//       and cross-checked against the transaction-level fifo_sizing model.
//   R5  resource budget: total LUT/FF/BRAM/DSP vs. a named device profile
//       (default ZCU104), with a near-capacity warning band.
//   R6  folding-JSON well-formedness: arity/site-name match, integral
//       positive PE/SIMD entries, and to_json/from_json round-trip fidelity.
//   R7  exit-path structure: exits attach to intermediate blocks in
//       monotonic order, and every compiled exit path is a prefix-consistent
//       extension of the backbone path through its Branch module.
//
// The reach-aware dataflow verifier (analysis/dataflow.hpp) extends the
// catalog with R8-R14, which lint_accelerator() always runs:
//
//   R8  reach consistency: exit-fraction arity, range, unit sum, and
//       non-negative monotone survival against the branch structure.
//   R9  reach-scaled II feasibility: a gated module folded below its gated
//       arrival rate throttles the pipeline (re-folding target).
//   R10 FIFO depth lower-bound violation against a proposed sizing plan.
//   R11 bounded-FIFO deadlock freedom: acyclic stream graph, no zero-depth
//       links, branch-side depths past the wedge hazard.
//   R12 reach-vs-Library drift: a Library entry's recorded distribution and
//       throughput vs. the accelerator it was priced against.
//   R13 duplicated-stream buffering cost (static FIFO BRAM upper bound)
//       against the device budget.
//   R14 gated-throughput accounting: claimed ips/latency vs. the
//       reach-weighted module model.
//
// Further rule families live next to their subsystems and share this
// diagnostics infrastructure, their range checks written with
// analysis::SpecCheck: the fault-spec rules (runtime/faults.hpp), the
// edge-scenario and fleet-serving rules FS1-FS8 (edge/fleet.hpp), and the
// generation-spec rules RG1-RG3, RG5 and RQ2 (library/generator.hpp):
//
//   RG1 journal_dir must be a creatable, writable directory (probed).
//   RG2 max_point_retries bounds: < 0 is an error, > 8 warns.
//   RG3 PartialPolicy::kEmitPartial under verify_dataflow warns — verifier
//       rejections would be quarantined instead of failing the run.
//   RG5 relative journal_dir warns (resume depends on the CWD).
//   RQ2 eval_path must be auto | float | packed.
//
// compile_accelerator() and generate_library() run the design-level rules as
// a precondition (LintReport::throw_if_errors) and reject illegal design
// points with a single aggregated ConfigError listing every violation; a
// caller that lints and then compiles passes its walk to both. The
// adapex_lint CLI (examples/adapex_lint.cpp) exposes the same checks over
// serialized models and folding JSON files.

#pragma once

#include "analysis/device.hpp"
#include "analysis/diagnostics.hpp"
#include "finn/accelerator.hpp"
#include "hls/folding.hpp"
#include "nn/branchy.hpp"

namespace adapex {
namespace analysis {

/// Tuning knobs for a lint run.
struct LintOptions {
  /// Device whose capacities R5 (and the dataflow rules' R13) check against.
  DeviceProfile device = DeviceProfile::zcu104();
  /// Exit distribution the dataflow rules analyze under; empty means
  /// uniform over the accelerator's outputs.
  std::vector<double> exit_fractions;
};

/// Design-level rules (R1, R2, R6, R7's model-structure half): everything
/// checkable before/without compiling an Accelerator. Never throws on a
/// broken design — violations come back as diagnostics.
LintReport lint_design(BranchyModel& model, const FoldingConfig& folding,
                       const AcceleratorConfig& config);

/// The same rules over an existing walk of `model` (model/walk.hpp), for
/// callers that go on to use the walk's sites and shapes.
LintReport lint_design(BranchyModel& model, const ModelWalk& walk,
                       const FoldingConfig& folding);

/// Accelerator-level rules (R3, R4, R5, R7's path half) over a compiled
/// design. Usable directly on hand-built or deserialized accelerators.
LintReport lint_accelerator(const Accelerator& acc,
                            const LintOptions& options = LintOptions{});

/// R6 over a folding JSON document against the model's walk-order sites.
LintReport lint_folding_json(const Json& folding_json,
                             const std::vector<LayerSite>& sites);

/// Full verification: design rules first; when they leave no errors, the
/// model is compiled and the accelerator rules run on the result. The
/// returned report concatenates both stages.
LintReport lint(BranchyModel& model, const FoldingConfig& folding,
                const AcceleratorConfig& config,
                const LintOptions& options = LintOptions{});

/// The same over a walk of `model` at the config's input shape; stores the
/// compiled accelerator, if any, in `compiled`.
LintReport lint(BranchyModel& model, const ModelWalk& walk,
                const FoldingConfig& folding, const AcceleratorConfig& config,
                const LintOptions& options, Accelerator* compiled = nullptr);

}  // namespace analysis
}  // namespace adapex
