#include "library/journal.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/integrity.hpp"

namespace adapex {

const char* to_string(PartialPolicy policy) {
  switch (policy) {
    case PartialPolicy::kFail: return "fail";
    case PartialPolicy::kEmitPartial: return "emit_partial";
  }
  return "?";
}

const char* to_string(PointStatus status) {
  switch (status) {
    case PointStatus::kComputed: return "computed";
    case PointStatus::kReplayed: return "replayed";
    case PointStatus::kRetried: return "retried";
    case PointStatus::kQuarantined: return "quarantined";
  }
  return "?";
}

namespace {

constexpr const char* kPointKind = "journal-point";
constexpr const char* kFailureKind = "journal-failure";
constexpr const char* kMetaKind = "journal-meta";

/// The 64-bit retrain seed as 16 hex digits: a JSON double would lose bits.
Json write_seed(const JournalPoint& p, const KeyPath&) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, p.retrain_seed);
  return Json(buf);
}

void read_seed(const Json* v, JournalPoint& p, const KeyPath& at) {
  if (!at.present(v)) return;
  const std::string hex = at.leaf([&] { return v->as_string(); });
  if (hex.size() != 16 ||
      std::sscanf(hex.c_str(), "%16" SCNx64, &p.retrain_seed) != 1) {
    at.fail("malformed retrain-seed hex '" + hex + "'");
  }
}

// PointOutcome and GenerationReport are write-only flight records.
constexpr Field<PointOutcome> kPointOutcomeFields[] = {
    {"index", &PointOutcome::index},
    member_field<&PointOutcome::variant, model_variant_from_string>("variant"),
    {"rate_pct", &PointOutcome::rate_pct},
    {"status",
     [](const PointOutcome& p, const KeyPath&) {
       return Json(to_string(p.status));
     },
     nullptr},
    {"attempts", &PointOutcome::attempts},
    {"wall_s", &PointOutcome::wall_s},
    {"checkpoint_s", &PointOutcome::checkpoint_s},
    {"verify_s", &PointOutcome::verify_s},
    {"cross_validations", &PointOutcome::cross_validations},
    optional_field<&PointOutcome::error>("error"),
    optional_field<&PointOutcome::eval_path>("eval_path"),
};

constexpr Field<GenerationReport::BaseWall> kBaseWallFields[] = {
    {"plain", &GenerationReport::BaseWall::plain},
    {"early_exit", &GenerationReport::BaseWall::early_exit},
};

constexpr Field<GenerationReport> kReportFields[] = {
    {"partial", &GenerationReport::partial},
    {"total_wall_s", &GenerationReport::total_wall_s},
    {"compute_wall_s", &GenerationReport::compute_wall_s},
    {"checkpoint_wall_s", &GenerationReport::checkpoint_wall_s},
    {"verify_wall_s", &GenerationReport::verify_wall_s},
    {"checkpoint_overhead",
     [](const GenerationReport& r, const KeyPath& at) {
       return Json(finite(r.checkpoint_overhead(), at));
     },
     nullptr},
    member_field<&GenerationReport::base_wall_s, kBaseWallFields>(
        "base_wall_s"),
    member_field<&GenerationReport::points, kPointOutcomeFields>("points"),
};

constexpr Field<JournalPoint> kJournalPointFields[] = {
    {"index", &JournalPoint::index},
    member_field<&JournalPoint::variant, model_variant_from_string>("variant"),
    {"rate_pct", &JournalPoint::rate_pct},
    {"retrain_seed", write_seed, read_seed},
    member_field<&JournalPoint::accelerators, kAcceleratorFields>(
        "accelerators"),
    member_field<&JournalPoint::entries, kLibraryEntryFields>("entries"),
    {"progress_msg", &JournalPoint::progress_msg},
};

}  // namespace

Json PointOutcome::to_json() const {
  return write_json(*this, "PointOutcome", kPointOutcomeFields);
}

std::size_t GenerationReport::count(PointStatus status) const {
  std::size_t n = 0;
  for (const auto& p : points) {
    if (p.status == status) ++n;
  }
  return n;
}

std::size_t GenerationReport::ok() const {
  return count(PointStatus::kComputed) + count(PointStatus::kReplayed) +
         count(PointStatus::kRetried);
}

double GenerationReport::checkpoint_overhead() const {
  if (compute_wall_s <= 0.0) return 0.0;
  return checkpoint_wall_s / compute_wall_s;
}

std::string GenerationReport::summary() const {
  std::string s = std::to_string(points.size()) + " points: " +
                  std::to_string(count(PointStatus::kComputed)) +
                  " computed, " + std::to_string(count(PointStatus::kReplayed)) +
                  " replayed, " + std::to_string(count(PointStatus::kRetried)) +
                  " retried, " + std::to_string(quarantined()) +
                  " quarantined";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "; checkpoint overhead %.2f%%",
                100.0 * checkpoint_overhead());
  s += buf;
  if (partial) s += " (PARTIAL library)";
  return s;
}

Json GenerationReport::to_json() const {
  return write_json(*this, "GenerationReport", kReportFields);
}

Json JournalPoint::to_json() const {
  return write_json(*this, "JournalPoint", kJournalPointFields);
}

JournalPoint JournalPoint::from_json(const Json& j) {
  return read_document(j, kJournalPointFields, "JournalPoint");
}

GenerationJournal::GenerationJournal(
    const std::string& root, const std::string& key,
    std::function<void(const std::string&)> log)
    : dir_(root + "/" + key), log_(std::move(log)) {
  std::filesystem::create_directories(dir_);
}

void GenerationJournal::note(const std::string& msg) const {
  if (log_) log_("journal: " + msg);
}

std::string GenerationJournal::point_path(std::size_t index) const {
  return dir_ + "/point_" + std::to_string(index) + ".json";
}

std::string GenerationJournal::failure_path(std::size_t index) const {
  return dir_ + "/point_" + std::to_string(index) + ".error.json";
}

std::string GenerationJournal::meta_path() const { return dir_ + "/meta.json"; }

bool GenerationJournal::load_point(std::size_t index, ModelVariant variant,
                                   int rate_pct, std::uint64_t retrain_seed,
                                   JournalPoint* out) const {
  if (!enabled()) return false;
  const std::string path = point_path(index);
  if (!std::filesystem::exists(path)) return false;
  try {
    JournalPoint p =
        JournalPoint::from_json(open_document_text(read_file(path), kPointKind));
    // The directory is keyed by the cache key, so a mismatch here means a
    // truncated key collision or manual tampering — never replay it.
    if (p.index != index || p.variant != variant || p.rate_pct != rate_pct ||
        p.retrain_seed != retrain_seed) {
      throw IntegrityError("checkpoint identity mismatch (expected " +
                           std::string(adapex::to_string(variant)) + " rate " +
                           std::to_string(rate_pct) + ")");
    }
    *out = std::move(p);
    return true;
  } catch (const Error& e) {
    const std::string moved = quarantine_file(path);
    note("discarding corrupt checkpoint " + path + " -> " + moved + " (" +
         e.what() + ")");
    return false;
  }
}

void GenerationJournal::record_point(const JournalPoint& point) const {
  if (!enabled()) return;
  atomic_write_file(point_path(point.index),
                    seal_document(kPointKind, point.to_json()));
  // A point that now succeeded (e.g. after a transient failure in an
  // earlier run) supersedes its stale quarantine record.
  std::error_code ec;
  std::filesystem::remove(failure_path(point.index), ec);
}

void GenerationJournal::record_failure(std::size_t index, ModelVariant variant,
                                       int rate_pct, int attempts,
                                       const std::string& error) const {
  if (!enabled()) return;
  Json j = Json::object();
  j["index"] = index;
  j["variant"] = adapex::to_string(variant);
  j["rate_pct"] = rate_pct;
  j["attempts"] = attempts;
  j["error"] = error;
  atomic_write_file(failure_path(index), seal_document(kFailureKind, j));
}

bool GenerationJournal::load_meta(double* reference_accuracy) const {
  if (!enabled()) return false;
  const std::string path = meta_path();
  if (!std::filesystem::exists(path)) return false;
  try {
    const Json j = open_document_text(read_file(path), kMetaKind);
    *reference_accuracy = j.at("reference_accuracy").as_number();
    return true;
  } catch (const Error& e) {
    const std::string moved = quarantine_file(path);
    note("discarding corrupt meta " + path + " -> " + moved + " (" + e.what() +
         ")");
    return false;
  }
}

void GenerationJournal::record_meta(double reference_accuracy) const {
  if (!enabled()) return;
  Json j = Json::object();
  j["reference_accuracy"] = reference_accuracy;
  atomic_write_file(meta_path(), seal_document(kMetaKind, j));
}

}  // namespace adapex
