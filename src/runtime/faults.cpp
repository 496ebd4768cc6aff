#include "runtime/faults.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace adapex {

namespace {

// Stream identifiers for derive_seed: one per fault category. Values are
// arbitrary but fixed — changing them changes every faulted episode.
constexpr std::uint64_t kReconfigStream = 0xFA01;
constexpr std::uint64_t kStallStream = 0xFA02;
constexpr std::uint64_t kDropStream = 0xFA03;
constexpr std::uint64_t kDelayStream = 0xFA04;
constexpr std::uint64_t kWeightStream = 0xFA05;
constexpr std::uint64_t kConfigStream = 0xFA06;

}  // namespace

analysis::LintReport lint_fault_spec(const FaultSpec& spec) {
  analysis::LintReport report;
  analysis::SpecCheck c(report, "faults");
  auto probability = [&](const char* rule, const char* field, double p) {
    c.within(rule, field, p, 0.0, 1.0, "use a value in [0, 1]");
  };
  probability("RF1", "reconfig_fail_prob", spec.reconfig_fail_prob);
  probability("RF1", "reconfig_slow_prob", spec.reconfig_slow_prob);
  probability("RF1", "stall_prob", spec.stall_prob);
  probability("RF1", "monitor_drop_prob", spec.monitor_drop_prob);
  probability("RF1", "monitor_delay_prob", spec.monitor_delay_prob);
  c.at_least("RF2", "reconfig_slow_factor", spec.reconfig_slow_factor, 1.0,
             "a slow load takes at least the nominal time");
  c.non_negative("RF3", "stall_duration_s", spec.stall_duration_s,
                 "use a non-negative window");
  // RF4: SEU rates and severities.
  probability("RF4", "seu_weight_prob", spec.seu_weight_prob);
  probability("RF4", "seu_config_prob", spec.seu_config_prob);
  probability("RF4", "seu_weight_accuracy_drop",
              spec.seu_weight_accuracy_drop);
  probability("RF4", "seu_config_accuracy_drop",
              spec.seu_config_accuracy_drop);
  probability("RF4", "seu_exit_rate_shift", spec.seu_exit_rate_shift);
  const char* fractions = "the remainder is the wrong-class fraction";
  (void)(c.non_negative("RF4", "seu_hang_frac", spec.seu_hang_frac,
                        fractions) &&
         c.non_negative("RF4", "seu_exit_corrupt_frac",
                        spec.seu_exit_corrupt_frac, fractions) &&
         c.within("RF4", "seu_hang_frac + seu_exit_corrupt_frac",
                  spec.seu_hang_frac + spec.seu_exit_corrupt_frac, 0.0, 1.0,
                  fractions));
  // RF5: scrubbing needs a usable schedule.
  if (spec.mitigation.scrubbing) {
    c.positive("RF5", "mitigation.scrub_period_s",
               spec.mitigation.scrub_period_s,
               "scrub passes need a positive period");
    c.non_negative("RF5", "mitigation.scrub_time_ms",
                   spec.mitigation.scrub_time_ms,
                   "a scrub pass cannot take negative time");
  }
  return report;
}

analysis::LintReport lint_fault_spec(const FaultSpec& spec,
                                     const Library& library) {
  analysis::LintReport report = lint_fault_spec(spec);
  // RF6: TMR triplicates the early-exit classifier heads — meaningless (and
  // a sign of a misconfigured experiment) when the library has none.
  if (spec.mitigation.tmr_exit_heads) {
    bool has_exit_heads = false;
    for (const LibraryEntry& e : library.entries) {
      if (e.variant != ModelVariant::kNoExit) {
        has_exit_heads = true;
        break;
      }
    }
    if (!has_exit_heads) {
      report.add("RF6", analysis::Severity::kError, "faults",
                 "mitigation.tmr_exit_heads is enabled but no library entry "
                 "has early-exit heads",
                 "disable TMR or include an early-exit variant");
    }
  }
  return report;
}

FaultInjector::FaultInjector(const FaultSpec& spec, std::uint64_t episode_seed)
    : spec_(spec),
      reconfig_rng_(derive_seed(episode_seed, kReconfigStream)),
      stall_rng_(derive_seed(episode_seed, kStallStream)),
      drop_rng_(derive_seed(episode_seed, kDropStream)),
      delay_rng_(derive_seed(episode_seed, kDelayStream)),
      weight_rng_(derive_seed(episode_seed, kWeightStream)),
      config_rng_(derive_seed(episode_seed, kConfigStream)) {
  lint_fault_spec(spec).throw_if_errors();
}

void FaultInjector::set_rate_scale(double transient, double seu) {
  ADAPEX_CHECK(transient >= 0.0 && seu >= 0.0,
               "fault rate scales must be non-negative");
  transient_scale_ = transient;
  seu_scale_ = seu;
}

ReconfigOutcome FaultInjector::attempt_reconfig(double nominal_ms) {
  ReconfigOutcome out;
  out.dead_ms = nominal_ms;
  // Exactly two draws per attempt, whatever the probabilities: attempt k's
  // failure decision depends only on (seed, k), never on which other knobs
  // are zero. min(1, p * scale) is exact at scale 1 (and for any p <= 1),
  // so scaling never perturbs the draw-to-outcome mapping at baseline.
  const bool failed = reconfig_rng_.uniform() <
                      std::min(1.0, spec_.reconfig_fail_prob * transient_scale_);
  const bool slowed = reconfig_rng_.uniform() < spec_.reconfig_slow_prob;
  out.success = !failed;
  out.slowed = slowed;
  if (slowed) out.dead_ms = nominal_ms * spec_.reconfig_slow_factor;
  return out;
}

bool FaultInjector::draw_stall() {
  return stall_rng_.uniform() <
         std::min(1.0, spec_.stall_prob * transient_scale_);
}

bool FaultInjector::draw_monitor_drop() {
  return drop_rng_.uniform() < spec_.monitor_drop_prob;
}

bool FaultInjector::draw_monitor_delay() {
  return delay_rng_.uniform() < spec_.monitor_delay_prob;
}

bool FaultInjector::draw_weight_upset() {
  return weight_rng_.uniform() <
         std::min(1.0, spec_.seu_weight_prob * seu_scale_);
}

ConfigUpset FaultInjector::draw_config_upset() {
  // Exactly two draws per period (occurrence, then manifestation), both
  // unconditional: period k's upset depends only on (seed, k), and changing
  // the manifestation split cannot shift when upsets land.
  const bool hit = config_rng_.uniform() <
                   std::min(1.0, spec_.seu_config_prob * seu_scale_);
  const double kind = config_rng_.uniform();
  if (!hit) return ConfigUpset::kNone;
  if (kind < spec_.seu_hang_frac) return ConfigUpset::kHang;
  if (kind < spec_.seu_hang_frac + spec_.seu_exit_corrupt_frac) {
    return ConfigUpset::kExitCorrupt;
  }
  return ConfigUpset::kWrongClass;
}

}  // namespace adapex
