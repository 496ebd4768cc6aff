#include "common/integrity.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/json.hpp"

namespace adapex {

namespace {

constexpr const char* kSealedFormat = "adapex-sealed-v1";

/// Checksum tag "fnv1a64:<16 hex>" of `bytes`.
std::string content_checksum(const std::string& bytes) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return std::string("fnv1a64:") + hex;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void atomic_write_file(const std::string& path, const std::string& contents) {
  const std::string tmp =
      path + "." + std::to_string(::getpid()) + ".tmp";
  try {
    write_file(tmp, contents);
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

std::string quarantine_file(const std::string& path) {
  const std::string target = path + ".corrupt";
  std::error_code ec;
  std::filesystem::rename(path, target, ec);
  if (ec && std::filesystem::exists(path)) {
    throw Error("cannot quarantine " + path + " to " + target + ": " +
                ec.message());
  }
  return target;
}

std::string seal_document(const std::string& kind, const Json& payload) {
  Json envelope = Json::object();
  envelope["format"] = kSealedFormat;
  envelope["kind"] = kind;
  envelope["checksum"] = content_checksum(payload.dump(1));
  envelope["payload"] = payload;
  return envelope.dump(1);
}

bool is_sealed_document(const Json& doc) {
  return doc.is_object() && doc.contains("format") &&
         doc.at("format").is_string() &&
         doc.at("format").as_string() == kSealedFormat &&
         doc.contains("payload");
}

Json open_document(const Json& doc, const std::string& kind) {
  if (!is_sealed_document(doc)) {
    throw IntegrityError("not a sealed adapex document (format '" +
                         std::string(kSealedFormat) + "' missing)");
  }
  if (!doc.contains("kind") || doc.at("kind").as_string() != kind) {
    throw IntegrityError(
        "sealed document kind mismatch: expected '" + kind + "', got '" +
        (doc.contains("kind") ? doc.at("kind").as_string() : "<none>") + "'");
  }
  if (!doc.contains("checksum")) {
    throw IntegrityError("sealed document is missing its checksum");
  }
  const Json& payload = doc.at("payload");
  const std::string tag = doc.at("checksum").as_string();
  if (content_checksum(payload.dump(1)) != tag) {
    throw IntegrityError("content checksum mismatch (stored " + tag +
                         "): the artifact is corrupt");
  }
  return payload;
}

Json open_document_text(const std::string& text, const std::string& kind) {
  return open_document(Json::parse(text), kind);
}

}  // namespace adapex
