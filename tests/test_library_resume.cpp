// Crash-safety tests for the journaled library generator: kill-and-resume
// byte identity, checkpoint/artifact tamper detection and quarantine,
// per-point failure isolation (retry / quarantine / partial emission), and
// the RG1-RG3 and RG5 generation-spec lint rules.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "common/integrity.hpp"
#include "core/scale.hpp"
#include "library/cache.hpp"
#include "library/generator.hpp"
#include "library/journal.hpp"
#include "test_support.hpp"

namespace adapex {
namespace {

/// Same shape as the parallel tests' spec: all three families, three rates,
/// tiny training — 8 design points, a couple of seconds per full run.
LibraryGenSpec fast_spec() {
  auto spec = make_gen_spec(cifar10_like_spec(), ExperimentScale::tiny());
  spec.dataset.train_size = 120;
  spec.dataset.test_size = 60;
  spec.initial_train.epochs = 3;
  spec.retrain.epochs = 1;
  spec.prune_rates_pct = {0, 25, 50};
  spec.conf_thresholds_pct = {0, 50};
  return spec;
}

std::size_t count_checkpoints(const std::string& journal_root,
                              const std::string& key) {
  std::size_t n = 0;
  const std::string dir = journal_root + "/" + key;
  if (!std::filesystem::exists(dir)) return 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("point_", 0) == 0 &&
        e.path().extension() == ".json" &&
        name.find(".error.") == std::string::npos) {
      ++n;
    }
  }
  return n;
}

TEST(LibraryResume, KillAndResumeByteIdentical) {
  // The acceptance gate: a generation run SIGKILLed mid-sweep must resume
  // from its journal into a Library byte-identical to an uninterrupted run,
  // at a different thread count than the killed run no less.
  auto spec = fast_spec();
  const Library reference = generate_library(spec);
  const std::string ref_bytes = reference.to_json().dump(1);

  const std::string journal = scratch_dir("resume_kill");
  const std::string key = library_cache_key(spec);

  // Fork while single-threaded (every generator pool above has joined).
  // The child journals checkpoints as points finish; the parent SIGKILLs
  // it after at least two checkpoints landed — a mid-sweep crash with no
  // destructors, no flushes, no atexit.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto child_spec = fast_spec();
    child_spec.journal_dir = journal;
    child_spec.num_threads = 2;
    try {
      generate_library(child_spec);
    } catch (...) {
    }
    _exit(0);
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool child_exited = false;
  while (count_checkpoints(journal, key) < 2) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      child_exited = true;  // finished before we could kill it — still fine
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no checkpoints appeared under " << journal << "/" << key;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!child_exited) {
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
  }

  // Resume in this process, serially, and require byte identity.
  auto resume_spec = fast_spec();
  resume_spec.journal_dir = journal;
  resume_spec.num_threads = 1;
  GenerationReport report;
  resume_spec.report = &report;
  const Library resumed = generate_library(resume_spec);
  EXPECT_EQ(resumed.to_json().dump(1), ref_bytes);
  if (!child_exited) {
    // The kill landed mid-sweep: something replayed, something computed.
    EXPECT_GE(report.count(PointStatus::kReplayed), 1u);
  }
  EXPECT_EQ(report.ok(), report.points.size());

  // A second resume replays everything without touching a model.
  GenerationReport replay_report;
  resume_spec.report = &replay_report;
  const Library replayed = generate_library(resume_spec);
  EXPECT_EQ(replayed.to_json().dump(1), ref_bytes);
  EXPECT_EQ(replay_report.count(PointStatus::kReplayed),
            replay_report.points.size());
  EXPECT_EQ(replay_report.count(PointStatus::kComputed), 0u);

  std::filesystem::remove_all(journal);
}

TEST(LibraryResume, TamperedCheckpointQuarantinedAndRecomputed) {
  auto spec = fast_spec();
  spec.journal_dir = scratch_dir("resume_tamper");
  const std::string key = library_cache_key(spec);
  const Library reference = generate_library(spec);
  const std::string ref_bytes = reference.to_json().dump(1);
  ASSERT_GE(count_checkpoints(spec.journal_dir, key), 2u);

  // Flip payload bytes of one checkpoint while keeping it parseable JSON:
  // only the content checksum can catch this.
  const std::string victim = spec.journal_dir + "/" + key + "/point_1.json";
  std::string text = read_file(victim);
  const auto pos = text.find("\"accuracy\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 10, "\"accuxacy\"");
  write_file(victim, text);
  ASSERT_NO_THROW(Json::parse(read_file(victim)));  // parseable, yet wrong

  std::vector<std::string> msgs;
  spec.on_progress = [&](const std::string& s) { msgs.push_back(s); };
  GenerationReport report;
  spec.report = &report;
  const Library resumed = generate_library(spec);
  EXPECT_EQ(resumed.to_json().dump(1), ref_bytes);
  EXPECT_EQ(report.count(PointStatus::kComputed), 1u);
  EXPECT_EQ(report.count(PointStatus::kReplayed), report.points.size() - 1);

  // Evidence preserved, corruption reported.
  EXPECT_TRUE(std::filesystem::exists(victim + ".corrupt"));
  bool reported = false;
  for (const auto& m : msgs) {
    if (m.find("discarding corrupt checkpoint") != std::string::npos) {
      reported = true;
    }
  }
  EXPECT_TRUE(reported);

  std::filesystem::remove_all(spec.journal_dir);
}

TEST(LibraryResume, TamperedCacheArtifactQuarantinedAndRegenerated) {
  const std::string dir = scratch_dir("cache_tamper");
  auto spec = fast_spec();
  spec.variants = {ModelVariant::kNoExit};
  spec.prune_rates_pct = {0};
  spec.conf_thresholds_pct = {50};

  const Library first = generate_or_load_library(spec, dir);
  const std::string path =
      dir + "/library_" + library_cache_key(spec) + ".json";
  ASSERT_TRUE(std::filesystem::exists(path));

  // Bit-flip inside the sealed payload; the file still parses.
  std::string text = read_file(path);
  const auto pos = text.find("\"dataset\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "\"detaset\"");
  write_file(path, text);
  ASSERT_NO_THROW(Json::parse(read_file(path)));

  std::vector<std::string> msgs;
  spec.on_progress = [&](const std::string& s) { msgs.push_back(s); };
  const Library second = generate_or_load_library(spec, dir);
  EXPECT_EQ(second.to_json().dump(1), first.to_json().dump(1));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  bool reported = false;
  for (const auto& m : msgs) {
    if (m.rfind("cache: quarantining corrupt artifact", 0) == 0) {
      reported = true;
    }
  }
  EXPECT_TRUE(reported);
  // The regenerated artifact verifies clean.
  EXPECT_NO_THROW(Library::load(path));

  std::filesystem::remove_all(dir);
}

TEST(LibraryResume, QuarantinedPointFailsRunByDefault) {
  auto spec = fast_spec();
  spec.point_fault_hook = [](std::size_t i, int) {
    if (i == 2) throw ConfigError("induced fault at point 2");
  };
  GenerationReport report;
  spec.report = &report;
  try {
    generate_library(spec);
    FAIL() << "PartialPolicy::kFail must throw on a quarantined point";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 design point(s) quarantined"), std::string::npos);
    EXPECT_NE(what.find("induced fault at point 2"), std::string::npos);
  }
  // Every other point still ran to completion before the throw, and the
  // report survived it.
  EXPECT_EQ(report.quarantined(), 1u);
  EXPECT_EQ(report.ok(), report.points.size() - 1);
}

TEST(LibraryResume, EmitPartialOmitsQuarantinedPointExplicitly) {
  auto no_fault = fast_spec();
  const Library full = generate_library(no_fault);

  auto spec = fast_spec();
  spec.partial_policy = PartialPolicy::kEmitPartial;
  spec.journal_dir = scratch_dir("resume_partial");
  const std::string key = library_cache_key(spec);
  spec.point_fault_hook = [](std::size_t i, int) {
    if (i == 0) throw ConfigError("induced persistent fault");
  };
  GenerationReport report;
  spec.report = &report;
  const Library partial = generate_library(spec);

  EXPECT_TRUE(report.partial);
  EXPECT_EQ(report.quarantined(), 1u);
  EXPECT_EQ(report.points[0].status, PointStatus::kQuarantined);
  EXPECT_EQ(report.points[0].attempts, 1);
  EXPECT_LT(partial.entries.size(), full.entries.size());
  EXPECT_LT(partial.accelerators.size(), full.accelerators.size());
  // The journal carries the quarantine record for the next run's triage.
  EXPECT_TRUE(std::filesystem::exists(spec.journal_dir + "/" + key +
                                      "/point_0.error.json"));
  EXPECT_NE(report.summary().find("PARTIAL"), std::string::npos);

  // Resuming without the fault heals the library to full canonical bytes.
  spec.point_fault_hook = nullptr;
  GenerationReport healed_report;
  spec.report = &healed_report;
  const Library healed = generate_library(spec);
  EXPECT_EQ(healed.to_json().dump(1), full.to_json().dump(1));
  EXPECT_FALSE(healed_report.partial);
  // The healed point's success checkpoint superseded its quarantine record.
  EXPECT_FALSE(std::filesystem::exists(spec.journal_dir + "/" + key +
                                       "/point_0.error.json"));

  std::filesystem::remove_all(spec.journal_dir);
}

TEST(LibraryResume, RetryRecoversTransientFaultOnForkedSeed) {
  auto spec = fast_spec();
  spec.max_point_retries = 2;
  spec.journal_dir = scratch_dir("resume_retry");
  spec.point_fault_hook = [](std::size_t i, int attempt) {
    if (i == 1 && attempt == 0) throw ConfigError("transient fault");
  };
  GenerationReport report;
  spec.report = &report;
  const Library retried = generate_library(spec);
  EXPECT_EQ(report.count(PointStatus::kRetried), 1u);
  EXPECT_EQ(report.points[1].attempts, 2);
  EXPECT_EQ(report.points[1].error, "transient fault");
  EXPECT_FALSE(retried.entries.empty());

  // The retried point trained from a forked seed stream, so its rows are
  // legal but non-canonical. A later journaled run with no fault must
  // refuse to replay the forked checkpoint (identity mismatch) and
  // recompute from the canonical stream — converging back to the exact
  // bytes of a never-failed run.
  const Library canonical = generate_library(fast_spec());
  spec.point_fault_hook = nullptr;
  GenerationReport resume_report;
  spec.report = &resume_report;
  const Library resumed = generate_library(spec);
  EXPECT_EQ(resumed.to_json().dump(1), canonical.to_json().dump(1));
  EXPECT_EQ(resume_report.count(PointStatus::kComputed), 1u);
  EXPECT_EQ(resume_report.count(PointStatus::kReplayed),
            resume_report.points.size() - 1);

  std::filesystem::remove_all(spec.journal_dir);
}

TEST(LibraryResume, OneFamilyLeftResumesByteIdenticalInParallel) {
  // Under the parallel schedule each family's points are continuations of
  // that family's base training. A resume with only one family left trains
  // only that base (the reference accuracy replays from meta.json), and
  // must still land on the bytes of the uninterrupted run.
  auto spec = fast_spec();
  spec.num_threads = 4;
  spec.journal_dir = scratch_dir("resume_one_family");
  const std::string key = library_cache_key(spec);
  GenerationReport first;
  spec.report = &first;
  const std::string ref_bytes = generate_library(spec).to_json().dump(1);
  // The sweep is variant-major with kNoExit first: the plain points are
  // the first prune_rates_pct.size() indices.
  const std::size_t plain_points = spec.prune_rates_pct.size();

  for (const bool plain_left : {false, true}) {
    SCOPED_TRACE(plain_left ? "only plain points left"
                            : "only early-exit points left");
    // Drop one family's checkpoints, as if the run died before writing
    // them; the other family and meta.json stay journaled.
    GenerationReport report;
    spec.report = &report;
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < first.points.size(); ++i) {
      if ((i < plain_points) == plain_left) {
        ASSERT_TRUE(std::filesystem::remove(spec.journal_dir + "/" + key +
                                            "/point_" + std::to_string(i) +
                                            ".json"));
        ++dropped;
      }
    }
    const Library resumed = generate_library(spec);
    EXPECT_EQ(resumed.to_json().dump(1), ref_bytes);
    EXPECT_EQ(report.count(PointStatus::kComputed), dropped);
    EXPECT_EQ(report.count(PointStatus::kReplayed),
              report.points.size() - dropped);
    EXPECT_EQ(report.base_wall_s.plain > 0.0, plain_left);
    EXPECT_EQ(report.base_wall_s.early_exit > 0.0, !plain_left);
  }

  std::filesystem::remove_all(spec.journal_dir);
}

TEST(LibraryResume, PartialLibraryIsNeverCached) {
  const std::string dir = scratch_dir("cache_partial");
  auto spec = fast_spec();
  spec.partial_policy = PartialPolicy::kEmitPartial;
  spec.point_fault_hook = [](std::size_t i, int) {
    if (i == 0) throw ConfigError("induced persistent fault");
  };
  const std::string path =
      dir + "/library_" + library_cache_key(spec) + ".json";
  const Library partial = generate_or_load_library(spec, dir);
  EXPECT_FALSE(partial.entries.empty());
  EXPECT_FALSE(std::filesystem::exists(path))
      << "a partial library must not poison the artifact cache";
  std::filesystem::remove_all(dir);
}

TEST(GenSpecLint, CatchesBadKnobs) {
  // RG2: negative retry count is an error.
  {
    auto spec = fast_spec();
    spec.max_point_retries = -1;
    const auto report = lint_gen_spec(spec);
    ASSERT_TRUE(report.has_errors());
    EXPECT_EQ(report.diagnostics[0].rule_id, "RG2");
    EXPECT_THROW(generate_library(spec), ConfigError);
  }
  // RG2 (warning): excessive retries.
  {
    auto spec = fast_spec();
    spec.max_point_retries = 20;
    const auto report = lint_gen_spec(spec);
    EXPECT_FALSE(report.has_errors());
    EXPECT_EQ(report.count(analysis::Severity::kWarning), 1u);
  }
  // RG1: journal_dir exists as a regular file.
  {
    auto spec = fast_spec();
    const std::string dir = scratch_dir("lint_rg1");
    spec.journal_dir = dir + "/blocker";
    write_file(spec.journal_dir, "not a directory");
    const auto report = lint_gen_spec(spec);
    ASSERT_TRUE(report.has_errors());
    EXPECT_EQ(report.diagnostics[0].rule_id, "RG1");
    EXPECT_THROW(generate_library(spec), ConfigError);
    std::filesystem::remove_all(dir);
  }
  // RG3: emit_partial under verify_dataflow masks verifier rejections.
  {
    auto spec = fast_spec();
    spec.partial_policy = PartialPolicy::kEmitPartial;
    spec.verify_dataflow = true;
    const auto report = lint_gen_spec(spec);
    EXPECT_FALSE(report.has_errors());
    bool rg3 = false;
    for (const auto& d : report.diagnostics) rg3 |= d.rule_id == "RG3";
    EXPECT_TRUE(rg3);
  }
  // RG5: relative journal path warns, absolute path is clean.
  {
    auto spec = fast_spec();
    spec.journal_dir = "relative/journal";
    const auto report = lint_gen_spec(spec);
    bool rg5 = false;
    for (const auto& d : report.diagnostics) rg5 |= d.rule_id == "RG5";
    EXPECT_TRUE(rg5);
    std::filesystem::remove_all("relative");
  }
  {
    auto spec = fast_spec();
    spec.journal_dir = scratch_dir("lint_clean");
    spec.max_point_retries = 2;
    EXPECT_TRUE(lint_gen_spec(spec).empty());
    std::filesystem::remove_all(spec.journal_dir);
  }
}

TEST(Integrity, SealAndTamperRoundTrip) {
  Json payload = Json::object();
  payload["value"] = 42;
  payload["pi"] = 3.14159;
  const std::string sealed = seal_document("unit", payload);
  const Json reopened = open_document_text(sealed, "unit");
  EXPECT_EQ(reopened.dump(1), payload.dump(1));
  // Wrong kind is rejected even with an intact checksum.
  EXPECT_THROW(open_document_text(sealed, "other"), IntegrityError);
  // A payload flip that keeps the JSON parseable is caught.
  std::string tampered = sealed;
  const auto pos = tampered.find("42");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 2, "43");
  EXPECT_THROW(open_document_text(tampered, "unit"), IntegrityError);
  // An intact envelope sealed with CRC-32 (the tag is that hash of the
  // payload) fails like a corrupt payload: FNV-1a 64 is the only checksum,
  // so a stale journal or cache file takes the quarantine-and-regenerate
  // path.
  Json crc = Json::parse(sealed);
  crc["checksum"] = "crc32:b4f3ab82";
  EXPECT_THROW(open_document(crc, "unit"), IntegrityError);
  EXPECT_THROW(open_document_text("{\"format\": \"nope\"}", "unit"),
               IntegrityError);
}

TEST(Integrity, AtomicWriteAndQuarantine) {
  const std::string dir = scratch_dir("integrity_io");
  const std::string path = dir + "/doc.json";
  atomic_write_file(path, "first");
  EXPECT_EQ(read_file(path), "first");
  atomic_write_file(path, "second");
  EXPECT_EQ(read_file(path), "second");
  // No temp debris.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);

  const std::string moved = quarantine_file(path);
  EXPECT_EQ(moved, path + ".corrupt");
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(read_file(moved), "second");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace adapex
