// Artifact integrity primitives: content checksums, atomic file publishes,
// corruption quarantine, and sealed (checksummed) JSON documents.
//
// Library generation is this repo's long-running offline job; its outputs
// (the cached Library artifact and the per-design-point checkpoint journal,
// library/journal.hpp) must survive crashes, concurrent writers, and silent
// on-disk corruption. Three guarantees live here:
//
//   1. atomic_write_file(): a reader never observes a torn file. The
//      payload is written to a pid-salted temp name in the target
//      directory and rename()d into place, so concurrent writers of the
//      same path each publish a complete document and the last one wins.
//   2. Sealed documents: seal_document() wraps a JSON payload in an
//      envelope carrying a content checksum over the payload's canonical
//      serialization; open_document() recomputes and compares it, so a
//      bit-flipped-but-still-parseable artifact (the offline analog of an
//      SEU, see finn/mitigation.hpp) is *detected* instead of silently
//      served. The canonical form is payload.dump(1); the JSON writer
//      prints doubles with %.17g, so dump -> parse -> dump is idempotent
//      and the checksum is stable across a round trip.
//   3. quarantine_file(): corrupt artifacts are renamed to `<path>.corrupt`
//      (not deleted), preserving the evidence for postmortems while
//      clearing the path for regeneration.
//
// The content checksum is FNV-1a 64 (the same hash the artifact-cache key
// uses), tagged "fnv1a64:<16 hex>". A tag naming any other hash fails
// verification like a corrupt payload does, so the reader quarantines the
// file and regenerates it.

#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace adapex {

class Json;

/// Thrown when a stored artifact's content checksum does not match its
/// payload, or a sealed envelope is structurally broken. Derives from
/// ParseError so existing corrupt-artifact recovery paths (which catch
/// parse failures) also recover from integrity failures.
class IntegrityError : public ParseError {
 public:
  explicit IntegrityError(const std::string& what) : ParseError(what) {}
};

/// FNV-1a 64-bit over a byte string (also used by the library cache key).
std::uint64_t fnv1a64(const std::string& bytes);

/// Publishes `contents` at `path` atomically: writes `<path>.<pid>.tmp` in
/// the same directory, then rename()s it into place. Concurrent writers of
/// one path never interleave within a temp file, and readers observe either
/// the previous complete document or the new one. Throws adapex::Error on
/// I/O failure (the temp file is removed best-effort).
void atomic_write_file(const std::string& path, const std::string& contents);

/// Moves a corrupt artifact aside to `<path>.corrupt` (replacing any
/// earlier quarantined copy) and returns the quarantine path. The original
/// path is left clear for regeneration. Throws adapex::Error when the
/// rename fails for a reason other than the file already being gone.
std::string quarantine_file(const std::string& path);

/// Wraps a JSON payload in a sealed envelope:
///   {"format": "adapex-sealed-v1", "kind": <kind>,
///    "checksum": "fnv1a64:<16 hex over payload.dump(1)>", "payload": ...}
/// and returns the envelope's serialization (ready for atomic_write_file).
std::string seal_document(const std::string& kind, const Json& payload);

/// True when `doc` looks like a sealed envelope (format + payload fields).
bool is_sealed_document(const Json& doc);

/// Verifies a sealed envelope: format, expected `kind`, and the content
/// checksum over the payload's canonical re-serialization (a tag naming
/// another hash is a mismatch). Returns the payload. Throws IntegrityError
/// on any violation.
Json open_document(const Json& doc, const std::string& kind);

/// Parses `text` and opens it as a sealed document of `kind`.
Json open_document_text(const std::string& text, const std::string& kind);

}  // namespace adapex
