// AdaPEx public API (umbrella header).
//
// AdaPEx — Adaptive Pruning of Early-Exit CNNs — co-optimizes filter
// pruning and early exits for FPGA dataflow accelerators:
//
//   1. Design time (Framework::design): trains an early-exit CNV, sweeps
//      dataflow-aware pruning rates, synthesizes a FINN-style accelerator
//      per pruned model, and records every (pruning rate, confidence
//      threshold) operating point in a Library.
//   2. Runtime (Framework::serve): an edge server simulation where the
//      Runtime Manager matches the operating point to the observed workload
//      under a user accuracy threshold, reconfiguring the FPGA when the
//      pruning rate changes. An EdgeScenario is one device's settings
//      (DeviceScenario) plus the one WorkloadSpec it serves; a fleet
//      (edge/fleet.hpp) shares one DeviceScenario across its devices and
//      gives each tenant its own WorkloadSpec.
//
// Quickstart:
//
//   auto scale = adapex::ExperimentScale::from_env();
//   auto spec  = adapex::make_gen_spec(adapex::cifar10_like_spec(), scale);
//   auto lib   = adapex::Framework::design(spec);
//   auto sc    = adapex::scale_to_library(adapex::EdgeScenario{}, lib);
//                // sc.workload.base_ips = 1.3 x the FINN point's IPS
//   auto m     = adapex::Framework::serve(
//                    lib, {adapex::AdaptPolicy::kAdaPEx, 0.10}, sc, 10);
//
// See examples/ for complete programs and DESIGN.md for the architecture.

#pragma once

#include "core/scale.hpp"
#include "data/dataset.hpp"
#include "edge/simulation.hpp"
#include "finn/accelerator.hpp"
#include "finn/mitigation.hpp"
#include "finn/pipeline_sim.hpp"
#include "finn/reconfig.hpp"
#include "hls/folding.hpp"
#include "hls/modules.hpp"
#include "library/cache.hpp"
#include "library/generator.hpp"
#include "library/library.hpp"
#include "model/cnv.hpp"
#include "model/walk.hpp"
#include "nn/branchy.hpp"
#include "nn/eval.hpp"
#include "nn/trainer.hpp"
#include "pruning/pruning.hpp"
#include "runtime/manager.hpp"

namespace adapex {

/// The two-step AdaPEx flow behind one facade.
struct Framework {
  /// Design-time: runs the Library Generator.
  static Library design(const LibraryGenSpec& spec) {
    return generate_library(spec);
  }

  /// Design-time with a disk cache (see library/cache.hpp).
  static Library design_cached(const LibraryGenSpec& spec,
                               const std::string& artifact_dir) {
    return generate_or_load_library(spec, artifact_dir);
  }

  /// Runtime: serves `runs` edge episodes and returns averaged metrics.
  static EdgeMetrics serve(const Library& library, const RuntimePolicy& policy,
                           const EdgeScenario& scenario, int runs = 1) {
    return simulate_edge_runs(library, policy, scenario, runs);
  }
};

}  // namespace adapex
