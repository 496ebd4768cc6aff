#include "library/cache.hpp"

#include <filesystem>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/env.hpp"
#include "common/integrity.hpp"

namespace adapex {

namespace {

/// Bump whenever the key layout below changes, a generation-relevant field
/// starts/stops being hashed, or the artifact file format changes: every
/// cached artifact written under an older schema is then ignored rather
/// than silently reused. v4: artifacts are sealed checksummed envelopes
/// (common/integrity.hpp) instead of plain Library JSON.
constexpr int kCacheKeySchema = 4;

/// Streams every generation-relevant *value* into a readable key string.
/// Schema v1 hashed only the sizes of the sweeps and the variant count and
/// omitted folding_style/accel/power/reconfig/exits entirely, so changing a
/// sweep value or the device model silently returned a stale Library.
class KeyBuilder {
 public:
  KeyBuilder() {
    // Full round-trip precision so distinct doubles always hash apart.
    os_ << std::setprecision(std::numeric_limits<double>::max_digits10);
  }

  template <typename T>
  KeyBuilder& field(const char* name, const T& value) {
    os_ << name << "=" << value << ";";
    return *this;
  }

  template <typename T>
  KeyBuilder& list(const char* name, const std::vector<T>& values) {
    os_ << name << "=[";
    for (const T& v : values) os_ << v << ",";
    os_ << "];";
    return *this;
  }

  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

void add_train_config(KeyBuilder& key, const char* prefix,
                      const TrainConfig& t) {
  std::string p(prefix);
  key.field((p + ".epochs").c_str(), t.epochs)
      .field((p + ".batch_size").c_str(), t.batch_size)
      .field((p + ".lr").c_str(), t.lr)
      .field((p + ".momentum").c_str(), t.momentum)
      .field((p + ".weight_decay").c_str(), t.weight_decay)
      .field((p + ".lr_decay").c_str(), t.lr_decay)
      .field((p + ".lr_decay_epochs").c_str(), t.lr_decay_epochs)
      .list((p + ".exit_weights").c_str(), t.exit_weights)
      .field((p + ".augment").c_str(), t.augment)
      .field((p + ".seed").c_str(), t.seed);
}

}  // namespace

std::string library_cache_key(const LibraryGenSpec& spec) {
  KeyBuilder key;
  key.field("schema", kCacheKeySchema);

  key.field("ds.name", spec.dataset.name)
      .field("ds.classes", spec.dataset.num_classes)
      .field("ds.train", spec.dataset.train_size)
      .field("ds.test", spec.dataset.test_size)
      .field("ds.chw", spec.dataset.channels)
      .field("ds.h", spec.dataset.height)
      .field("ds.w", spec.dataset.width)
      .field("ds.noise_min", spec.dataset.noise_min)
      .field("ds.noise_max", spec.dataset.noise_max)
      .field("ds.easy", spec.dataset.easy_fraction)
      .field("ds.shift", spec.dataset.max_shift)
      .field("ds.flip", spec.dataset.flip_symmetry)
      .field("ds.seed", spec.dataset.seed);

  key.field("cnv.in", spec.cnv.in_channels)
      .field("cnv.img", spec.cnv.image_size)
      .list("cnv.conv", spec.cnv.conv_channels)
      .list("cnv.fc", spec.cnv.fc_features)
      .field("cnv.classes", spec.cnv.num_classes)
      .field("cnv.wbits", spec.cnv.weight_bits)
      .field("cnv.abits", spec.cnv.act_bits);

  key.field("exits.pruned", spec.exits.prune_exits);
  {
    std::ostringstream ex;
    for (const ExitSpec& e : spec.exits.exits) {
      ex << e.after_block << ":" << to_string(e.ops) << ",";
    }
    key.field("exits.list", ex.str());
  }

  {
    std::ostringstream vs;
    for (ModelVariant v : spec.variants) vs << to_string(v) << ",";
    key.field("variants", vs.str());
  }

  key.list("rates", spec.prune_rates_pct)
      .list("thresholds", spec.conf_thresholds_pct);

  add_train_config(key, "train", spec.initial_train);
  add_train_config(key, "retrain", spec.retrain);

  {
    std::ostringstream fs;
    for (const auto& [pe, simd] : spec.folding_style.conv_caps_per_block) {
      fs << pe << "/" << simd << ",";
    }
    fs << "fc" << spec.folding_style.fc_caps.first << "/"
       << spec.folding_style.fc_caps.second << ",exitconv"
       << spec.folding_style.exit_conv_caps.first << "/"
       << spec.folding_style.exit_conv_caps.second << ",exitfc"
       << spec.folding_style.exit_fc_caps.first << "/"
       << spec.folding_style.exit_fc_caps.second;
    key.field("folding", fs.str());
  }

  key.field("accel.fclk", spec.accel.fclk_mhz)
      .field("accel.in", spec.accel.in_channels)
      .field("accel.img", spec.accel.image_size)
      .field("accel.lut_mac", spec.accel.cost.lut_per_mac_base)
      .field("accel.lut_bitbit", spec.accel.cost.lut_per_mac_per_bitbit)
      .field("accel.ff_lut", spec.accel.cost.ff_per_lut)
      .field("accel.lut_pe", spec.accel.cost.lut_per_pe)
      .field("accel.bram_bits", spec.accel.cost.bram_bits)
      .field("accel.fifo", spec.accel.cost.fifo_depth);

  key.field("power.static", spec.power.static_w)
      .field("power.klut", spec.power.w_per_klut)
      .field("power.kff", spec.power.w_per_kff)
      .field("power.bram", spec.power.w_per_bram)
      .field("power.dsp", spec.power.w_per_dsp);

  key.field("reconfig.base", spec.reconfig.base_ms)
      .field("reconfig.lut", spec.reconfig.ms_per_100klut);

  // Mitigation fields enter the key only when a mitigation is enabled, so
  // mitigation-free keys (and their cached artifacts) are unaffected by
  // mitigation knobs within a schema.
  if (spec.mitigation.any()) {
    key.field("mit.ecc", spec.mitigation.ecc_weights)
        .field("mit.scrub", spec.mitigation.scrubbing)
        .field("mit.scrub_period", spec.mitigation.scrub_period_s)
        .field("mit.scrub_time", spec.mitigation.scrub_time_ms)
        .field("mit.tmr", spec.mitigation.tmr_exit_heads)
        .field("mit.ecc_bram_factor", spec.mitigation_cost.ecc_bram_factor)
        .field("mit.ecc_lut", spec.mitigation_cost.ecc_lut_per_bram)
        .field("mit.ecc_ff", spec.mitigation_cost.ecc_ff_per_bram)
        .field("mit.ecc_tput", spec.mitigation_cost.ecc_throughput_factor)
        .field("mit.scrub_lut", spec.mitigation_cost.scrub_lut)
        .field("mit.scrub_ff", spec.mitigation_cost.scrub_ff)
        .field("mit.scrub_bram", spec.mitigation_cost.scrub_bram)
        .field("mit.tmr_lut", spec.mitigation_cost.tmr_voter_lut)
        .field("mit.tmr_ff", spec.mitigation_cost.tmr_voter_ff);
  }

  // Reach-aware fields enter the key only when regimes are configured:
  // reach-free specs generate reach-free Libraries, so future reach knobs
  // (device caps, extra regimes) can never perturb their keys. The schema
  // bump to 3 above still retires every v2 artifact once, because v3
  // records may carry folding_mode/reach_regime fields v2 readers ignore.
  if (!spec.reach_regimes.empty()) {
    key.field("reach.device", spec.reach_device.name)
        .field("reach.lut", spec.reach_device.caps.lut)
        .field("reach.ff", spec.reach_device.caps.ff)
        .field("reach.bram", spec.reach_device.caps.bram)
        .field("reach.dsp", spec.reach_device.caps.dsp);
    for (std::size_t i = 0; i < spec.reach_regimes.size(); ++i) {
      key.list(("reach.regime" + std::to_string(i)).c_str(),
               spec.reach_regimes[i]);
    }
  }

  // NOTE: spec.num_threads, spec.on_progress, and spec.eval_path are
  // deliberately excluded — none affects the generated bytes (see
  // generator.hpp; packed and float evaluation agree bitwise on every
  // argmax/exit decision, verified in test_packed).
  key.field("seed", spec.seed);

  std::ostringstream out;
  out << spec.dataset.name << "_v" << kCacheKeySchema << "_" << std::hex
      << fnv1a64(key.str());
  return out.str();
}

Library generate_or_load_library(const LibraryGenSpec& spec,
                                 const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/library_" + library_cache_key(spec) + ".json";
  if (std::filesystem::exists(path)) {
    try {
      // Library::load verifies the sealed envelope's content checksum, so
      // a bit-flipped-but-parseable artifact lands in the catch below.
      return Library::load(path);
    } catch (const Error& e) {
      // Torn, truncated, or checksum-mismatched artifacts are quarantined
      // (evidence preserved at <path>.corrupt) and regenerated — never
      // served, never silently deleted.
      const std::string moved = quarantine_file(path);
      if (spec.on_progress) {
        spec.on_progress(std::string("cache: quarantining corrupt artifact ") +
                         path + " -> " + moved + " (" + e.what() + ")");
      }
    }
  }
  // A report is always attached (the caller's, else a local one): a
  // PartialPolicy::kEmitPartial run that quarantined points must not be
  // cached, or the incomplete Library would poison every future lookup of
  // this key.
  GenerationReport local_report;
  LibraryGenSpec gen_spec = spec;
  if (gen_spec.report == nullptr) gen_spec.report = &local_report;
  Library lib = generate_library(gen_spec);
  if (gen_spec.report->partial) {
    if (spec.on_progress) {
      spec.on_progress("cache: not caching partial library (" +
                       std::to_string(gen_spec.report->quarantined()) +
                       " design points quarantined)");
    }
    return lib;
  }
  // Sealed + atomic publish: the artifact carries a content checksum that
  // the next load verifies, and concurrent benches racing on the same key
  // each publish a complete file — the last writer wins with identical
  // bytes (generation is deterministic).
  atomic_write_file(path, seal_document("library", lib.to_json()));
  return lib;
}

std::string default_artifact_dir() {
  return env::get("ADAPEX_ARTIFACTS").value_or("artifacts");
}

}  // namespace adapex
