// Event-driven simulation of the dataflow pipeline.
//
// Substitute for the paper's Verilator RTL simulations (see DESIGN.md): a
// transaction-level model where each streaming module serially processes one
// image in its `cycles` budget, overlapping across modules exactly like the
// synthesized pipeline. Images carry their taken exit, so the simulator
// reproduces the stream-gating service model (backbone tail skipped after a
// taken exit, exit heads fed up to their branch point).
//
// Two operating regimes, selected via PipelineSimOptions:
//   - closed loop (default): the source injects back-to-back and every
//     module's output FIFO is `fifo_depth` images deep, so backpressure
//     throttles injection to the sustainable rate. This is the legacy
//     behaviour (depth 2).
//   - paced / unbounded: the source injects one image every
//     `injection_interval_cycles` and FIFOs are unbounded. This is the
//     steady-state regime FIFO sizing provisions for; size_fifos() and the
//     dataflow verifier's cross-validation both measure link occupancy here,
//     through this one shared measurement path.
//
// The engine streams: images are simulated in order, in blocks of up to 32
// (never more than fifo_depth), each block walking the modules in a
// topological order of the fork tree (module indices need not be
// topological). Only per-module state is kept — the current block's
// begin/data-ready instants, the instant the output slot freed, and with
// bounded FIFOs a rolling window of the last fifo_depth begin instants —
// plus, per recorded link, the departures of the images still pending on
// it. Memory is O(modules) plus the pending images per link, not
// O(images x modules); link high-water marks are computed online.
//
// Used in tests to validate the analytical initiation-interval and latency
// estimates, by analysis::cross_validate() to check the static dataflow
// bounds, and available to users who want trace-level behaviour.

#pragma once

#include <vector>

#include "finn/accelerator.hpp"

namespace adapex {

/// Knobs for one simulation run.
struct PipelineSimOptions {
  /// Cycles between successive source injections; 0 means closed-loop
  /// (the source re-injects as soon as backpressure frees it).
  double injection_interval_cycles = 0.0;
  /// Output-FIFO depth in images at every link; <= 0 means unbounded.
  long fifo_depth = 2;
  /// Record per-link occupancy high-water marks (kLinkOccupancy below).
  bool record_link_occupancy = true;
};

/// Measured occupancy of one producer -> consumer link: an image occupies
/// the link from the producer's data-ready instant until the consumer
/// begins it.
struct LinkOccupancy {
  int producer = -1;  ///< Module index.
  int consumer = -1;
  /// Maximum images simultaneously resident on the link.
  int high_water_images = 0;
  /// Simulation time (cycles) at which the high-water mark was reached.
  double peak_time_cycles = 0.0;
};

/// Result of simulating a stream of images through the pipeline.
struct PipelineSimResult {
  /// Average cycles between successive source injections in steady state
  /// (measured over the second half of the run). In closed-loop mode this
  /// is the backpressured, sustainable input rate.
  double steady_ii_cycles = 0.0;
  /// Completion time of the first image (pipeline fill + drain), cycles.
  double first_latency_cycles = 0.0;
  /// Average per-image latency (injection to completion), cycles.
  double avg_latency_cycles = 0.0;
  /// Completion timestamp per image, cycles.
  std::vector<double> completion_cycles;
  /// Average cycles between successive `begin` events per module over the
  /// second half of the run — module m's realized initiation interval.
  std::vector<double> module_begin_ii_cycles;
  /// Per-link occupancy measurements (empty unless recorded). One entry per
  /// module with a predecessor, in module-index order of the consumer.
  std::vector<LinkOccupancy> links;
};

/// Simulates `exit_of_image.size()` back-to-back images; exit_of_image[i]
/// gives the output index (0..num_exits) image i is accepted at. Module 0
/// is the injection point the steady-state and latency figures are read
/// at. Throws when the module graph has a cycle.
PipelineSimResult simulate_pipeline(const Accelerator& acc,
                                    const std::vector<int>& exit_of_image,
                                    const PipelineSimOptions& options = {});

}  // namespace adapex
