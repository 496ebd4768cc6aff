// Tests for the Library data model, serialization, and the generator
// (run at tiny scale with reduced sweeps to stay fast).

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

#include "core/scale.hpp"
#include "library/cache.hpp"
#include "library/generator.hpp"
#include "test_support.hpp"

namespace adapex {
namespace {

LibraryGenSpec tiny_spec() {
  auto spec = make_gen_spec(cifar10_like_spec(), ExperimentScale::tiny());
  spec.prune_rates_pct = {0, 50};
  spec.conf_thresholds_pct = {0, 50, 100};
  return spec;
}

// Generation is expensive; share one library across tests in this file.
const Library& shared_library() {
  static const Library lib = generate_library(tiny_spec());
  return lib;
}

TEST(LibraryModel, VariantStringsRoundTrip) {
  for (ModelVariant v : {ModelVariant::kNoExit, ModelVariant::kPrunedExits,
                         ModelVariant::kNotPrunedExits}) {
    EXPECT_EQ(model_variant_from_string(to_string(v)), v);
  }
  EXPECT_THROW(model_variant_from_string("bogus"), ParseError);
}

TEST(LibraryGen, EntryInventory) {
  const Library& lib = shared_library();
  // no_exit: 2 rates x 1 entry. pruned_exits: rate 50 only (rate 0 deduped)
  // x 3 thresholds. not_pruned_exits: 2 rates x 3 thresholds.
  EXPECT_EQ(lib.entries.size(), 2u + 3u + 6u);
  EXPECT_EQ(lib.accelerators.size(), 2u + 1u + 2u);
  EXPECT_GT(lib.reference_accuracy, 0.2);  // well above 10% chance
  for (const auto& e : lib.entries) {
    EXPECT_GT(e.ips, 0.0);
    EXPECT_GT(e.latency_ms, 0.0);
    EXPECT_GT(e.peak_power_w, lib.static_power_w);
    EXPECT_GE(e.accuracy, 0.0);
    EXPECT_LE(e.accuracy, 1.0);
    // Exit fractions sum to 1.
    double sum = 0.0;
    for (double f : e.exit_fractions) sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    if (e.variant == ModelVariant::kNoExit) {
      EXPECT_EQ(e.conf_threshold_pct, -1);
      EXPECT_EQ(e.exit_fractions.size(), 1u);
    } else {
      EXPECT_EQ(e.exit_fractions.size(), 3u);
    }
  }
}

TEST(LibraryGen, PrunedAcceleratorIsFasterAndSmaller) {
  const Library& lib = shared_library();
  const LibraryEntry* full = nullptr;
  const LibraryEntry* pruned = nullptr;
  for (const auto& e : lib.entries) {
    if (e.variant != ModelVariant::kNoExit) continue;
    if (e.prune_rate_pct == 0) full = &e;
    if (e.prune_rate_pct == 50) pruned = &e;
  }
  ASSERT_NE(full, nullptr);
  ASSERT_NE(pruned, nullptr);
  EXPECT_GT(pruned->ips, full->ips);
  EXPECT_LT(pruned->latency_ms, full->latency_ms);
  EXPECT_LE(pruned->accuracy, full->accuracy + 0.1);  // usually lower
  const auto& rfull = lib.accelerator(full->accel_id).resources;
  const auto& rpruned = lib.accelerator(pruned->accel_id).resources;
  // Pruning can migrate shrunken weight memories from BRAM to LUTRAM, so
  // compare the aggregate footprint (1 BRAM18 ~ 288 LUT-equivalents).
  EXPECT_LT(rpruned.lut + 288 * rpruned.bram, rfull.lut + 288 * rfull.bram);
}

TEST(LibraryGen, LowerThresholdNeverLowersIps) {
  const Library& lib = shared_library();
  // For a fixed accelerator, IPS is non-increasing in the threshold
  // (higher threshold -> fewer early exits -> more backbone work).
  for (const auto& a : lib.accelerators) {
    if (a.variant == ModelVariant::kNoExit) continue;
    double prev_ips = -1.0;
    for (const auto& e : lib.entries) {
      if (e.accel_id != a.id) continue;
      if (prev_ips >= 0.0) {
        EXPECT_LE(e.ips, prev_ips + 1e-6);
      }
      prev_ips = e.ips;
    }
  }
}

TEST(LibraryModel, JsonRoundTrip) {
  const Library& lib = shared_library();
  const std::string text = lib.to_json().dump(1);
  Library parsed = Library::from_json(Json::parse(text));
  ASSERT_EQ(parsed.entries.size(), lib.entries.size());
  ASSERT_EQ(parsed.accelerators.size(), lib.accelerators.size());
  EXPECT_DOUBLE_EQ(parsed.reference_accuracy, lib.reference_accuracy);
  for (std::size_t i = 0; i < lib.entries.size(); ++i) {
    EXPECT_EQ(parsed.entries[i].variant, lib.entries[i].variant);
    EXPECT_EQ(parsed.entries[i].prune_rate_pct, lib.entries[i].prune_rate_pct);
    EXPECT_EQ(parsed.entries[i].conf_threshold_pct,
              lib.entries[i].conf_threshold_pct);
    EXPECT_DOUBLE_EQ(parsed.entries[i].ips, lib.entries[i].ips);
    EXPECT_DOUBLE_EQ(parsed.entries[i].accuracy, lib.entries[i].accuracy);
  }
  EXPECT_EQ(parsed.accelerator(0).resources.lut,
            lib.accelerator(0).resources.lut);
}

/// A hand-built one-accelerator, one-entry Library as JSON.
Json small_library_json() {
  Library lib;
  lib.dataset = "small";
  AcceleratorRecord a;
  a.id = 2;
  a.variant = ModelVariant::kPrunedExits;
  a.prune_rate_pct = 50;
  LibraryEntry e;
  e.accel_id = 2;
  e.variant = ModelVariant::kPrunedExits;
  e.prune_rate_pct = 50;
  e.conf_threshold_pct = 70;
  e.exit_fractions = {0.5, 0.5};
  lib.accelerators = {a};
  lib.entries = {e};
  return lib.to_json();
}

/// The what() of the ParseError Library::from_json raises on `j`.
std::string library_parse_error(const Json& j) {
  try {
    Library::from_json(j);
  } catch (const ParseError& e) {
    return e.what();
  }
  ADD_FAILURE() << "accepted " << j.dump();
  return "";
}

TEST(LibraryJson, IntegersOutsideIntAreRejectedNotNarrowed) {
  // A cast of the 64-bit value to int read these as 0, -1 (the no-exit
  // sentinel) and 50.
  const struct {
    const char* key;
    double value;
  } cases[] = {
      {"accel_id", 4294967296.0},
      {"conf_threshold_pct", 4294967295.0},
      {"prune_rate_pct", 4294967346.0},
  };
  for (const auto& c : cases) {
    Json j = small_library_json();
    j["entries"].as_array()[0][c.key] = c.value;
    const std::string what = library_parse_error(j);
    EXPECT_NE(what.find(std::string("entries[0].") + c.key),
              std::string::npos)
        << what;
  }
  Json j = small_library_json();
  j["accelerators"].as_array()[0]["id"] = 2.5;
  EXPECT_NE(library_parse_error(j).find("accelerators[0].id"),
            std::string::npos);
}

TEST(LibraryJson, WrongTypesRaiseParseErrorNamingTheKeyPath) {
  Json j = small_library_json();
  j["entries"].as_array()[0]["accuracy"] = "x";
  EXPECT_NE(library_parse_error(j).find("entries[0].accuracy"),
            std::string::npos);
  j = small_library_json();
  j["accelerators"].as_array()[0]["resources"] = Json::array();
  EXPECT_NE(library_parse_error(j).find("accelerators[0].resources"),
            std::string::npos);
  EXPECT_THROW(Json::parse("\"x\"").as_number(), ParseError);
}

/// `j` without `key`.
Json without(const Json& j, const std::string& key) {
  Json out = Json::object();
  for (const auto& [k, v] : j.as_object()) {
    if (k != key) out[k] = *v;
  }
  return out;
}

TEST(LibraryJson, MissingKeysRaiseParseErrorNamingTheKeyPath) {
  Json j = small_library_json();
  j["entries"].as_array()[0] = without(j.at("entries").as_array()[0], "ips");
  EXPECT_NE(library_parse_error(j).find("entries[0].ips"), std::string::npos);
  // A conditional key is required once the key it depends on is present.
  j = small_library_json();
  Json& accel = j["accelerators"].as_array()[0];
  accel["mitigation"] = Json::parse(
      R"({"ecc_weights":true,"scrubbing":false,"scrub_period_s":2,)"
      R"("scrub_time_ms":4,"tmr_exit_heads":false})");
  EXPECT_NE(library_parse_error(j).find("accelerators[0].mitigation_overhead"),
            std::string::npos);
}

TEST(LibraryJson, NonFiniteValuesAreNotWritten) {
  // They used to print as `nan`/`inf`, which Json::parse then rejected.
  LibraryEntry e;
  e.accuracy = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(e.to_json(), Error);
  AcceleratorRecord a;
  a.folding_mode = "reach";
  a.reach_regime = {0.5, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(a.to_json(), Error);
}

TEST(LibraryModel, SaveLoadFile) {
  const Library& lib = shared_library();
  const std::string dir = scratch_dir("library");
  const std::string path = dir + "/library.json";
  lib.save(path);
  Library loaded = Library::load(path);
  EXPECT_EQ(loaded.entries.size(), lib.entries.size());
  std::filesystem::remove_all(dir);
}

TEST(LibraryCache, GeneratesThenLoads) {
  const std::string dir = scratch_dir("cache");
  auto spec = tiny_spec();
  spec.prune_rates_pct = {0};
  spec.conf_thresholds_pct = {50};
  spec.variants = {ModelVariant::kNoExit};
  Library first = generate_or_load_library(spec, dir);
  // Second call must hit the cache (same content, no regeneration): verify
  // by checking file exists and contents match.
  const std::string key = library_cache_key(spec);
  EXPECT_TRUE(std::filesystem::exists(dir + "/library_" + key + ".json"));
  Library second = generate_or_load_library(spec, dir);
  EXPECT_EQ(first.entries.size(), second.entries.size());
  EXPECT_DOUBLE_EQ(first.reference_accuracy, second.reference_accuracy);
  std::filesystem::remove_all(dir);
}

TEST(LibraryCache, KeyDependsOnSpecKnobs) {
  auto a = tiny_spec();
  auto b = tiny_spec();
  EXPECT_EQ(library_cache_key(a), library_cache_key(b));
  b.seed += 1;
  EXPECT_NE(library_cache_key(a), library_cache_key(b));
  auto c = tiny_spec();
  c.prune_rates_pct.push_back(85);
  EXPECT_NE(library_cache_key(a), library_cache_key(c));
}

TEST(LibraryGen, RejectsClassMismatch) {
  auto spec = tiny_spec();
  spec.cnv.num_classes = 7;  // dataset has 10
  EXPECT_THROW(generate_library(spec), Error);
}

}  // namespace
}  // namespace adapex
