// The AdaPEx Library: the design-time artifact the Runtime Manager searches.
//
// Each row ("entry") is one operating point: a pruned (or unpruned) model
// variant together with a confidence threshold, annotated with the metrics
// gathered at design time — accuracy on the test set under the early-exit
// decision rule, throughput (IPS), latency, power, and energy per inference
// from the synthesized accelerator's performance model. Entries referencing
// the same accelerator share a bitstream: switching between them at runtime
// is free (only the confidence threshold changes), while switching
// accelerators costs an FPGA reconfiguration.

#pragma once

#include <string>
#include <vector>

#include "common/fields.hpp"
#include "finn/mitigation.hpp"
#include "hls/modules.hpp"

namespace adapex {

/// Model family variants in the library.
enum class ModelVariant {
  kNoExit,         ///< Plain CNV (FINN / PR-Only baselines).
  kPrunedExits,    ///< Early-exit CNV, exit convs pruned with the backbone.
  kNotPrunedExits, ///< Early-exit CNV, exit convs left intact.
};

const char* to_string(ModelVariant v);
ModelVariant model_variant_from_string(const std::string& s);

/// One synthesized accelerator (bitstream).
struct AcceleratorRecord {
  int id = 0;
  ModelVariant variant = ModelVariant::kNoExit;
  int prune_rate_pct = 0;
  Resources resources;
  /// Resource share of exit heads + branch modules.
  Resources exit_overhead;
  double reconfig_ms = 145.0;
  /// Soft-error mitigations synthesized into this bitstream and their
  /// resource cost (already included in `resources`). Serialized only when
  /// a mitigation is enabled, so mitigation-free libraries are unchanged.
  SeuMitigation mitigation;
  Resources mitigation_overhead;
  /// Folding mode the bitstream was generated with: "styled" (default) or
  /// "reach" — ATHEENA-style reach-aware folds optimized for the exit
  /// fractions in `reach_regime` (hls/folding.hpp reach_aware_folding).
  /// Serialized only for non-styled records, so existing libraries
  /// round-trip unchanged.
  std::string folding_mode = "styled";
  std::vector<double> reach_regime;

  Json to_json() const;
  static AcceleratorRecord from_json(const Json& j);
};

/// One operating point.
struct LibraryEntry {
  int accel_id = 0;
  ModelVariant variant = ModelVariant::kNoExit;
  int prune_rate_pct = 0;
  /// Confidence threshold in percent; -1 for no-exit models.
  int conf_threshold_pct = -1;

  double accuracy = 0.0;   ///< TOP-1 under the early-exit rule.
  std::vector<double> exit_fractions;  ///< Per output; {1} for no-exit.
  double ips = 0.0;
  double latency_ms = 0.0;
  double peak_power_w = 0.0;
  double energy_per_inf_j = 0.0;

  Json to_json() const;
  static LibraryEntry from_json(const Json& j);
};

/// The library for one dataset.
struct Library {
  std::string dataset;
  /// Test accuracy of the unpruned, no-exit model on FINN — the reference
  /// the user accuracy threshold is relative to.
  double reference_accuracy = 0.0;
  double static_power_w = 0.0;  ///< Board static power used at generation.
  /// Soft-error mitigations the whole library was generated with.
  SeuMitigation mitigation;
  std::vector<AcceleratorRecord> accelerators;
  std::vector<LibraryEntry> entries;

  const AcceleratorRecord& accelerator(int id) const;

  Json to_json() const;
  static Library from_json(const Json& j);

  void save(const std::string& path) const;
  static Library load(const std::string& path);
};

// Field tables (library.cpp). SeuMitigation's is shared with the fleet
// scenario's FaultSpec, the other two with the journal's checkpoints.
extern const Field<SeuMitigation> kSeuMitigationFields[5];
extern const Field<AcceleratorRecord> kAcceleratorFields[10];
extern const Field<LibraryEntry> kLibraryEntryFields[10];

}  // namespace adapex
