#include "library/journal.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/integrity.hpp"

namespace adapex {

namespace {

constexpr const char* kPointKind = "journal-point";
constexpr const char* kFailureKind = "journal-failure";
constexpr const char* kMetaKind = "journal-meta";

std::string seed_to_hex(std::uint64_t seed) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, seed);
  return buf;
}

std::uint64_t seed_from_hex(const std::string& hex) {
  std::uint64_t seed = 0;
  if (hex.size() != 16 ||
      std::sscanf(hex.c_str(), "%16" SCNx64, &seed) != 1) {
    throw ParseError("journal: malformed retrain-seed hex '" + hex + "'");
  }
  return seed;
}

}  // namespace

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

Json PointOutcome::to_json() const {
  Json j = Json::object();
  j["index"] = index;
  j["variant"] = adapex::to_string(variant);
  j["rate_pct"] = rate_pct;
  j["status"] = adapex::to_string(status);
  j["attempts"] = attempts;
  j["wall_s"] = wall_s;
  j["checkpoint_s"] = checkpoint_s;
  j["verify_s"] = verify_s;
  j["cross_validations"] = cross_validations;
  if (!error.empty()) j["error"] = error;
  if (!eval_path.empty()) j["eval_path"] = eval_path;
  return j;
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
  Json j = Json::object();
  j["partial"] = partial;
  j["total_wall_s"] = total_wall_s;
  j["compute_wall_s"] = compute_wall_s;
  j["checkpoint_wall_s"] = checkpoint_wall_s;
  j["verify_wall_s"] = verify_wall_s;
  j["checkpoint_overhead"] = checkpoint_overhead();
  Json base = Json::object();
  base["plain"] = base_wall_s.plain;
  base["early_exit"] = base_wall_s.early_exit;
  j["base_wall_s"] = std::move(base);
  Json pts = Json::array();
  for (const auto& p : points) pts.push_back(p.to_json());
  j["points"] = std::move(pts);
  return j;
}

Json JournalPoint::to_json() const {
  Json j = Json::object();
  j["index"] = index;
  j["variant"] = adapex::to_string(variant);
  j["rate_pct"] = rate_pct;
  j["retrain_seed"] = seed_to_hex(retrain_seed);
  Json accs = Json::array();
  for (const auto& a : accelerators) accs.push_back(a.to_json());
  j["accelerators"] = std::move(accs);
  Json ents = Json::array();
  for (const auto& e : entries) ents.push_back(e.to_json());
  j["entries"] = std::move(ents);
  j["progress_msg"] = progress_msg;
  return j;
}

JournalPoint JournalPoint::from_json(const Json& j) {
  JournalPoint p;
  p.index = static_cast<std::size_t>(j.at("index").as_int());
  p.variant = model_variant_from_string(j.at("variant").as_string());
  p.rate_pct = static_cast<int>(j.at("rate_pct").as_int());
  p.retrain_seed = seed_from_hex(j.at("retrain_seed").as_string());
  for (const auto& a : j.at("accelerators").as_array()) {
    p.accelerators.push_back(AcceleratorRecord::from_json(a));
  }
  for (const auto& e : j.at("entries").as_array()) {
    p.entries.push_back(LibraryEntry::from_json(e));
  }
  p.progress_msg = j.at("progress_msg").as_string();
  return p;
}

GenerationJournal::GenerationJournal(
    const std::string& root, const std::string& key, std::string checksum_mode,
    std::function<void(const std::string&)> log)
    : dir_(root + "/" + key),
      checksum_mode_(std::move(checksum_mode)),
      log_(std::move(log)) {
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
                    seal_document(kPointKind, point.to_json(), checksum_mode_));
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
  atomic_write_file(failure_path(index),
                    seal_document(kFailureKind, j, checksum_mode_));
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
  atomic_write_file(meta_path(), seal_document(kMetaKind, j, checksum_mode_));
}

}  // namespace adapex
