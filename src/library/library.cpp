#include "library/library.hpp"

#include "common/integrity.hpp"

namespace adapex {

const char* to_string(ModelVariant v) {
  switch (v) {
    case ModelVariant::kNoExit: return "no_exit";
    case ModelVariant::kPrunedExits: return "pruned_exits";
    case ModelVariant::kNotPrunedExits: return "not_pruned_exits";
  }
  return "?";
}

ModelVariant model_variant_from_string(const std::string& s) {
  if (s == "no_exit") return ModelVariant::kNoExit;
  if (s == "pruned_exits") return ModelVariant::kPrunedExits;
  if (s == "not_pruned_exits") return ModelVariant::kNotPrunedExits;
  throw ParseError("unknown model variant: " + s);
}

namespace {

constexpr Field<Resources> kResourceFields[] = {
    {"lut", &Resources::lut},
    {"ff", &Resources::ff},
    {"bram", &Resources::bram},
    {"dsp", &Resources::dsp},
};

bool mitigated(const AcceleratorRecord& a) { return a.mitigation.any(); }
bool reach_folded(const AcceleratorRecord& a) {
  return a.folding_mode != "styled";
}
bool library_mitigated(const Library& lib) { return lib.mitigation.any(); }

}  // namespace

// Mitigation keys are written only when a mitigation is enabled, and the
// reach keys only for non-styled folds, so libraries without them keep
// their bytes.
constexpr Field<SeuMitigation> kSeuMitigationFields[] = {
    {"ecc_weights", &SeuMitigation::ecc_weights},
    {"scrubbing", &SeuMitigation::scrubbing},
    {"scrub_period_s", &SeuMitigation::scrub_period_s},
    {"scrub_time_ms", &SeuMitigation::scrub_time_ms},
    {"tmr_exit_heads", &SeuMitigation::tmr_exit_heads},
};

constexpr Field<AcceleratorRecord> kAcceleratorFields[] = {
    {"id", &AcceleratorRecord::id},
    member_field<&AcceleratorRecord::variant, model_variant_from_string>(
        "variant"),
    {"prune_rate_pct", &AcceleratorRecord::prune_rate_pct},
    member_field<&AcceleratorRecord::resources, kResourceFields>("resources"),
    member_field<&AcceleratorRecord::exit_overhead, kResourceFields>(
        "exit_overhead"),
    {"reconfig_ms", &AcceleratorRecord::reconfig_ms},
    member_field<&AcceleratorRecord::mitigation, kSeuMitigationFields,
                 mitigated>("mitigation"),
    member_field<&AcceleratorRecord::mitigation_overhead, kResourceFields,
                 mitigated>("mitigation_overhead"),
    optional_field<&AcceleratorRecord::folding_mode, reach_folded>(
        "folding_mode"),
    optional_field<&AcceleratorRecord::reach_regime, reach_folded>(
        "reach_regime"),
};

constexpr Field<LibraryEntry> kLibraryEntryFields[] = {
    {"accel_id", &LibraryEntry::accel_id},
    member_field<&LibraryEntry::variant, model_variant_from_string>("variant"),
    {"prune_rate_pct", &LibraryEntry::prune_rate_pct},
    {"conf_threshold_pct", &LibraryEntry::conf_threshold_pct},
    {"accuracy", &LibraryEntry::accuracy},
    {"exit_fractions", &LibraryEntry::exit_fractions},
    {"ips", &LibraryEntry::ips},
    {"latency_ms", &LibraryEntry::latency_ms},
    {"peak_power_w", &LibraryEntry::peak_power_w},
    {"energy_per_inf_j", &LibraryEntry::energy_per_inf_j},
};

namespace {

constexpr Field<Library> kLibraryFields[] = {
    {"dataset", &Library::dataset},
    {"reference_accuracy", &Library::reference_accuracy},
    {"static_power_w", &Library::static_power_w},
    member_field<&Library::mitigation, kSeuMitigationFields,
                 library_mitigated>("mitigation"),
    member_field<&Library::accelerators, kAcceleratorFields>("accelerators"),
    member_field<&Library::entries, kLibraryEntryFields>("entries"),
};

}  // namespace

Json AcceleratorRecord::to_json() const {
  return write_json(*this, "AcceleratorRecord", kAcceleratorFields);
}

AcceleratorRecord AcceleratorRecord::from_json(const Json& j) {
  return read_document(j, kAcceleratorFields, "AcceleratorRecord");
}

Json LibraryEntry::to_json() const {
  return write_json(*this, "LibraryEntry", kLibraryEntryFields);
}

LibraryEntry LibraryEntry::from_json(const Json& j) {
  return read_document(j, kLibraryEntryFields, "LibraryEntry");
}

const AcceleratorRecord& Library::accelerator(int id) const {
  for (const auto& a : accelerators) {
    if (a.id == id) return a;
  }
  throw Error("library has no accelerator with id " + std::to_string(id));
}

Json Library::to_json() const {
  return write_json(*this, "Library", kLibraryFields);
}

Library Library::from_json(const Json& j) {
  return read_document(j, kLibraryFields, "Library");
}

void Library::save(const std::string& path) const {
  write_file(path, to_json().dump(1));
}

Library Library::load(const std::string& path) {
  Json j = Json::parse(read_file(path));
  // Cache artifacts (schema v4+) are sealed envelopes whose content
  // checksum is verified here (common/integrity.hpp); plain documents
  // (Library::save output, older artifacts, hand-written fixtures) load
  // unchanged.
  if (is_sealed_document(j)) {
    return from_json(open_document(j, "library"));
  }
  return from_json(j);
}

}  // namespace adapex
