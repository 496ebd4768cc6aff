// Tests for the fleet-scale serving simulator: device-seed uniqueness and
// stream independence, the merged arrival order, exact latency quantiles,
// the size-1 byte-identity guarantee against simulate_edge, golden episode
// metrics, correlated-failure determinism (including under different
// ADAPEX_THREADS settings), the capacity-safe stagger invariant, circuit
// breaker transitions, and the FS lint rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <vector>

#include "common/integrity.hpp"
#include "common/rng.hpp"
#include "edge/fleet.hpp"
#include "edge/simulation.hpp"
#include "test_support.hpp"

namespace adapex {
namespace {

LibraryEntry entry(int accel, ModelVariant v, int rate, int ct, double acc,
                   double ips, double lat_ms, double power_w, double e_j) {
  LibraryEntry e;
  e.accel_id = accel;
  e.variant = v;
  e.prune_rate_pct = rate;
  e.conf_threshold_pct = ct;
  e.accuracy = acc;
  e.exit_fractions = v == ModelVariant::kNoExit
                         ? std::vector<double>{1.0}
                         : std::vector<double>{0.5, 0.5};
  e.ips = ips;
  e.latency_ms = lat_ms;
  e.peak_power_w = power_w;
  e.energy_per_inf_j = e_j;
  return e;
}

/// Same controlled library as test_runtime_faults.cpp.
Library controlled_library() {
  Library lib;
  lib.dataset = "controlled";
  lib.reference_accuracy = 0.90;
  lib.static_power_w = 0.7;
  for (int id = 0; id < 4; ++id) {
    AcceleratorRecord a;
    a.id = id;
    a.variant = id < 2 ? ModelVariant::kNoExit : ModelVariant::kNotPrunedExits;
    a.prune_rate_pct = (id % 2) * 50;
    a.reconfig_ms = 145.0;
    lib.accelerators.push_back(a);
  }
  lib.entries = {
      entry(0, ModelVariant::kNoExit, 0, -1, 0.90, 100, 6.0, 1.16, 0.006),
      entry(1, ModelVariant::kNoExit, 50, -1, 0.70, 300, 2.0, 1.00, 0.002),
      entry(2, ModelVariant::kNotPrunedExits, 0, 50, 0.88, 120, 5.0, 1.35,
            0.005),
      entry(2, ModelVariant::kNotPrunedExits, 0, 5, 0.84, 200, 3.0, 1.30,
            0.004),
      entry(3, ModelVariant::kNotPrunedExits, 50, 50, 0.82, 350, 1.8, 1.20,
            0.002),
      entry(3, ModelVariant::kNotPrunedExits, 50, 5, 0.78, 500, 1.2, 1.18,
            0.0015),
  };
  return lib;
}

FaultSpec mixed_faults() {
  FaultSpec f;
  f.reconfig_fail_prob = 0.30;
  f.reconfig_slow_prob = 0.20;
  f.reconfig_slow_factor = 3.0;
  f.stall_prob = 0.05;
  f.stall_duration_s = 0.8;
  f.monitor_drop_prob = 0.10;
  f.monitor_delay_prob = 0.10;
  f.seu_weight_prob = 0.04;
  f.seu_config_prob = 0.03;
  return f;
}

/// Overloaded oscillating single-device scenario (as in the fault tests).
EdgeScenario oscillating_scenario(std::uint64_t seed) {
  EdgeScenario sc;
  sc.cameras = 20;
  sc.ips_per_camera = 12.0;
  sc.deviation = 0.6;
  sc.seed = seed;
  return sc;
}

/// A 4-device mixed-tenant fleet under the controlled library: total
/// offered load around the fleet's warm capacity so reconfigurations and
/// routing both matter.
FleetScenario small_fleet(std::uint64_t seed) {
  FleetScenario f;
  f.base = EdgeScenario{};
  f.base.seed = seed;
  f.base.duration_s = 25.0;
  for (int i = 0; i < 4; ++i) {
    FleetDeviceSpec d;
    d.name = "dev" + std::to_string(i);
    f.devices.push_back(std::move(d));
  }
  TenantSpec interactive;
  interactive.name = "interactive";
  interactive.workload.base_ips = 500.0;
  interactive.workload.deviation = 0.4;
  interactive.slo_latency_ms = 250.0;
  interactive.priority = 1;
  TenantSpec batch;
  batch.name = "batch";
  batch.workload.base_ips = 400.0;
  batch.workload.pattern = WorkloadPattern::kDiurnal;
  batch.priority = 0;
  f.tenants = {interactive, batch};
  return f;
}

/// The perfbench serve-fleet shape at 1/20 of its volume over the
/// controlled library: 8 devices in 2 failure domains, an interactive and a
/// batch tenant, staggered reconfiguration and circuit breakers, about 50k
/// requests. `variant` 1 adds batching, 2 adds admission control.
FleetScenario golden_fleet(int variant) {
  FleetScenario f;
  f.base.seed = 7;
  f.base.duration_s = 25.0;
  f.base.faults.stall_prob = 0.02;
  f.base.faults.stall_duration_s = 0.5;
  f.base.faults.reconfig_fail_prob = 0.02;
  f.base.faults.seu_weight_prob = 0.005;
  for (int i = 0; i < 8; ++i) {
    FleetDeviceSpec d;
    d.name = "dev" + std::to_string(i);
    d.domain = i % 2;
    f.devices.push_back(std::move(d));
  }
  for (const char* name : {"rack0", "rack1"}) {
    FailureDomain dom;
    dom.name = name;
    dom.spike_prob = 0.05;
    dom.spike_duration_s = 3.0;
    dom.transient_mult = 6.0;
    dom.seu_mult = 4.0;
    f.fleet_faults.domains.push_back(dom);
  }
  TenantSpec interactive;
  interactive.name = "interactive";
  interactive.workload.base_ips = 1200.0;
  interactive.workload.period_s = 0.25;
  interactive.workload.deviation = 0.4;
  interactive.slo_latency_ms = 250.0;
  interactive.priority = 1;
  TenantSpec batch;
  batch.name = "batch";
  batch.workload.base_ips = 800.0;
  batch.workload.period_s = 0.25;
  batch.workload.pattern = WorkloadPattern::kDiurnal;
  batch.priority = 0;
  f.tenants = {interactive, batch};
  f.breaker.open_after_failures = 3;
  f.stagger.enabled = true;
  f.stagger.min_capacity_fraction = 0.70;
  if (variant == 1) {
    f.batching.enabled = true;
    f.batching.max_batch = 8;
    f.batching.max_wait_ms = 10.0;
    f.batching.setup_ms = 0.5;
  } else if (variant == 2) {
    f.admission.enabled = true;
    f.admission.high_watermark = 0.5;
    f.admission.low_watermark = 0.2;
  }
  return f;
}

bool traces_equal(const std::vector<TracePoint>& a,
                  const std::vector<TracePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time_s != b[i].time_s || a[i].measured_ips != b[i].measured_ips ||
        a[i].prune_rate_pct != b[i].prune_rate_pct ||
        a[i].conf_threshold_pct != b[i].conf_threshold_pct ||
        a[i].entry_accuracy != b[i].entry_accuracy ||
        a[i].reconfigured != b[i].reconfigured ||
        a[i].health != b[i].health ||
        a[i].reconfig_failed != b[i].reconfig_failed ||
        a[i].degraded != b[i].degraded ||
        a[i].watchdog_fired != b[i].watchdog_fired ||
        a[i].seu_upset != b[i].seu_upset ||
        a[i].drift_detected != b[i].drift_detected ||
        a[i].scrubbed != b[i].scrubbed || a[i].reloaded != b[i].reloaded) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------------

TEST(FleetSeeds, LoneDeviceInheritsFleetSeed) {
  EXPECT_EQ(fleet_device_seed(1234, 0, 1), 1234u);
  EXPECT_EQ(tenant_stream_seed(1234, 0, 1), 1234u);
}

TEST(FleetSeeds, UniqueAcrossDevicesTenantsAndFaultStreams) {
  const std::uint64_t fleet_seed = 42;
  std::set<std::uint64_t> seen;
  seen.insert(fleet_seed);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(seen.insert(fleet_device_seed(fleet_seed, i, 64)).second)
        << "device seed " << i << " collided";
  }
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_TRUE(seen.insert(tenant_stream_seed(fleet_seed, k, 16)).second)
        << "tenant seed " << k << " collided";
  }
}

TEST(FleetSeeds, TenantStreamIndependentOfOtherTenants) {
  WorkloadSpec a;
  a.base_ips = 200.0;
  WorkloadSpec b = a;
  b.base_ips = 700.0;
  WorkloadSpec b2 = a;
  b2.base_ips = 50.0;
  const auto merged1 = generate_fleet_arrivals({a, b}, 7);
  const auto merged2 = generate_fleet_arrivals({a, b2}, 7);
  std::vector<double> a1, a2;
  for (const FleetRequest& r : merged1) {
    if (r.tenant == 0) a1.push_back(r.time_s);
  }
  for (const FleetRequest& r : merged2) {
    if (r.tenant == 0) a2.push_back(r.time_s);
  }
  EXPECT_EQ(a1, a2) << "changing tenant 1's rate perturbed tenant 0's stream";
}

// ---------------------------------------------------------------------------
// Merged arrivals & latency quantiles
// ---------------------------------------------------------------------------

/// The definition the merge cursor must reproduce: every tenant's stream,
/// concatenated, then sorted by (time, tenant).
std::vector<FleetRequest> sorted_arrivals(
    const std::vector<WorkloadSpec>& tenants, std::uint64_t fleet_seed) {
  std::vector<FleetRequest> all;
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    if (!(tenants[k].base_ips > 0.0)) continue;
    WorkloadModel model(tenants[k],
                        tenant_stream_seed(fleet_seed, k, tenants.size()));
    for (double t : model.generate_arrivals()) {
      all.push_back(FleetRequest{t, static_cast<int>(k)});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const FleetRequest& a, const FleetRequest& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              return a.tenant < b.tenant;
            });
  return all;
}

/// A random tenant over every pattern; about one in five is zero-rate, and
/// flash crowds and traces may go dead (zero rate) for whole periods.
WorkloadSpec random_tenant(Rng& rng) {
  WorkloadSpec w;
  w.pattern = static_cast<WorkloadPattern>(rng.uniform_index(4));
  w.base_ips = rng.uniform() < 0.2 ? 0.0 : rng.uniform(5.0, 400.0);
  w.duration_s = 6.0;
  w.period_s = rng.uniform(0.2, 1.5);
  w.deviation = rng.uniform(0.0, 1.5);  // above 1 clamps periods to zero
  w.spike_start_s = rng.uniform(0.0, 4.0);
  w.spike_duration_s = rng.uniform(0.5, 2.0);
  w.spike_multiplier = rng.uniform() < 0.5 ? 0.0 : rng.uniform(1.0, 4.0);
  w.trace.clear();
  const std::size_t periods = 1 + rng.uniform_index(5);
  for (std::size_t i = 0; i < periods; ++i) {
    w.trace.push_back(rng.uniform() < 0.4 ? 0.0 : rng.uniform(0.2, 3.0));
  }
  return w;
}

void expect_same_trace(const std::vector<FleetRequest>& got,
                       const std::vector<FleetRequest>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].time_s, want[i].time_s) << what << " at " << i;
    ASSERT_EQ(got[i].tenant, want[i].tenant) << what << " at " << i;
  }
}

TEST(FleetArrivals, MergeMatchesConcatenateThenSort) {
  Rng rng(20);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<WorkloadSpec> tenants(1 + rng.uniform_index(5));
    for (WorkloadSpec& w : tenants) w = random_tenant(rng);
    // Two tenants with identical specs still draw independent streams.
    if (tenants.size() > 1 && trial % 3 == 0) tenants[1] = tenants[0];
    const std::uint64_t seed = rng.next_u64() >> 12;
    expect_same_trace(generate_fleet_arrivals(tenants, seed),
                      sorted_arrivals(tenants, seed),
                      "trial " + std::to_string(trial));
  }
}

TEST(FleetArrivals, DeadPeriodsAndZeroRateTenants) {
  WorkloadSpec flash;
  flash.pattern = WorkloadPattern::kFlashCrowd;
  flash.base_ips = 300.0;
  flash.duration_s = 10.0;
  flash.period_s = 1.0;
  flash.spike_start_s = 2.0;
  flash.spike_duration_s = 3.0;
  flash.spike_multiplier = 0.0;  // the "spike" is an outage
  WorkloadSpec trace;
  trace.pattern = WorkloadPattern::kTrace;
  trace.base_ips = 200.0;
  trace.duration_s = 10.0;
  trace.period_s = 1.0;
  trace.trace = {1.0, 0.0, 0.0, 2.0};
  WorkloadSpec idle = trace;
  idle.base_ips = 0.0;
  const std::vector<WorkloadSpec> tenants = {idle, flash, trace, flash};
  const std::vector<FleetRequest> merged = generate_fleet_arrivals(tenants, 3);
  expect_same_trace(merged, sorted_arrivals(tenants, 3), "dead periods");
  // The gap drawn before a dead period may land just inside it (the
  // generator's one-gap rate error); nothing arrives after that.
  long per_tenant[4] = {0, 0, 0, 0};
  for (const FleetRequest& r : merged) {
    ++per_tenant[r.tenant];
    if (r.tenant == 1 || r.tenant == 3) {
      EXPECT_FALSE(r.time_s >= 2.5 && r.time_s < 5.0) << "flash outage";
    } else {
      const double phase = std::fmod(r.time_s, 4.0);
      EXPECT_FALSE(phase >= 1.5 && phase < 3.0) << "trace dead period";
    }
  }
  EXPECT_EQ(per_tenant[0], 0);
  EXPECT_GT(per_tenant[1], 0);
  EXPECT_GT(per_tenant[2], 0);
  EXPECT_GT(per_tenant[3], 0);
  EXPECT_TRUE(generate_fleet_arrivals({idle}, 3).empty());
}

TEST(FleetArrivals, DeadPeriodEndingOnARoundedBoundaryTerminates) {
  // Period 2 ends at 3 * 0.7, and 3 * 0.7 / 0.7 rounds to just below 3: the
  // jump out of the dead period must not land back in it.
  WorkloadSpec w;
  w.pattern = WorkloadPattern::kTrace;
  w.base_ips = 100.0;
  w.duration_s = 5.0;
  w.period_s = 0.7;
  w.trace = {1.0, 1.0, 0.0, 1.0};
  const std::vector<double> times = WorkloadModel(w, 9).generate_arrivals();
  ASSERT_FALSE(times.empty());
  EXPECT_GT(times.back(), 2.1);
  EXPECT_EQ(std::count_if(times.begin(), times.end(),
                          [](double t) { return t >= 1.5 && t < 2.1; }),
            0);
}

/// The picks a full ascending sort makes.
LatencyQuantiles sorted_quantiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto pick = [&](double q) {
    return v[std::min(v.size() - 1,
                      static_cast<std::size_t>(q * static_cast<double>(
                                                       v.size())))];
  };
  return {pick(0.50), pick(0.99), pick(0.999)};
}

TEST(FleetQuantiles, SelectionEqualsSortedPicks) {
  Rng rng(31);
  std::vector<std::size_t> sizes = {1, 2, 3, 999, 1000, 1001};
  sizes.push_back(1 + rng.uniform_index(20000));
  for (std::size_t n : sizes) {
    for (int dup = 0; dup < 2; ++dup) {
      std::vector<double> v(n);
      for (double& x : v) {
        // dup = 1: a handful of distinct values, so every pick sits inside
        // a long run of duplicates.
        x = dup == 1 ? static_cast<double>(rng.uniform_index(4))
                     : rng.uniform(0.0, 500.0);
      }
      const LatencyQuantiles want = sorted_quantiles(v);
      const LatencyQuantiles got = latency_quantiles(v);
      EXPECT_EQ(got.p50_ms, want.p50_ms) << "n=" << n << " dup=" << dup;
      EXPECT_EQ(got.p99_ms, want.p99_ms) << "n=" << n << " dup=" << dup;
      EXPECT_EQ(got.p999_ms, want.p999_ms) << "n=" << n << " dup=" << dup;
    }
  }
  std::vector<double> empty;
  const LatencyQuantiles none = latency_quantiles(empty);
  EXPECT_EQ(none.p50_ms, 0.0);
  EXPECT_EQ(none.p999_ms, 0.0);
}

// ---------------------------------------------------------------------------
// Size-1 identity
// ---------------------------------------------------------------------------

TEST(FleetIdentity, Size1FaultFreeReproducesSimulateEdge) {
  const Library lib = controlled_library();
  const RuntimePolicy pol;
  const EdgeScenario sc = oscillating_scenario(5);
  const EdgeMetrics em = simulate_edge(lib, pol, sc);
  const FleetMetrics fm = simulate_fleet(lib, pol, fleet_from_edge(sc));
  ASSERT_EQ(fm.devices.size(), 1u);
  EXPECT_EQ(em.csv_row(), fm.devices[0].csv_row());
  EXPECT_TRUE(traces_equal(em.trace, fm.devices[0].trace));
  EXPECT_EQ(fm.offered, em.offered);
  EXPECT_EQ(fm.served, em.served);
  EXPECT_EQ(fm.dropped, em.dropped);
  EXPECT_EQ(fm.shed, 0);
}

TEST(FleetIdentity, Size1FaultedReproducesSimulateEdgeByteForByte) {
  const Library lib = controlled_library();
  const RuntimePolicy pol;
  EdgeScenario sc = oscillating_scenario(11);
  sc.faults = mixed_faults();
  sc.faults.mitigation.scrubbing = true;
  const EdgeMetrics em = simulate_edge(lib, pol, sc);
  const FleetMetrics fm = simulate_fleet(lib, pol, fleet_from_edge(sc));
  ASSERT_EQ(fm.devices.size(), 1u);
  EXPECT_EQ(em.csv_row(), fm.devices[0].csv_row());
  EXPECT_TRUE(traces_equal(em.trace, fm.devices[0].trace));
}

// ---------------------------------------------------------------------------
// Golden episodes
// ---------------------------------------------------------------------------

// Captured before the arrival merge and the quantile selection replaced
// their full sorts: the episode must not move by a single bit. The JSON
// (about 8 kB with the per-device rows) is pinned by size and FNV-1a 64;
// on a mismatch the test prints it for diffing.
struct GoldenEpisode {
  const char* csv_row;
  std::size_t json_size;
  std::uint64_t json_fnv;
};

void expect_golden(int variant, const GoldenEpisode& want) {
  const FleetMetrics fm =
      simulate_fleet(controlled_library(), RuntimePolicy{},
                     golden_fleet(variant));
  EXPECT_EQ(fm.csv_row(), want.csv_row);
  const std::string json = fm.to_json().dump();
  EXPECT_EQ(json.size(), want.json_size);
  EXPECT_EQ(fnv1a64(json), want.json_fnv) << json;
}

TEST(FleetGolden, StaggeredBreakersEpisode) {
  expect_golden(0, {"50243,45476,4767,0,11.016436015190862,495.81157110760063,"
                    "504.85713997531832,93.947500000000005,3.8732084102730449,"
                    "25382,39,0,0,0.29239395931846923,5,4,0,0,50659,25",
                    8150, 0x66b767a5fbeb5283ULL});
}

TEST(FleetGolden, BatchedEpisode) {
  expect_golden(1, {"50243,44536,5707,0,41.180771672420065,482.9556229030344,"
                    "508.04047269575005,92.424999999999997,4.599367884898272,"
                    "8474,32,0,0,0.3340665500648724,5,5,0,0,57027,25",
                    8137, 0xf65ae13e44af81c1ULL});
}

TEST(FleetGolden, SheddingEpisode) {
  expect_golden(2, {"50243,36877,1939,11427,22.20536353018041,467.56272095553499,"
                    "504.67862181156164,92.0625,5.5630760697411628,19505,20,0,0,"
                    "0.33453276931514853,5,5,0,0,50659,25",
                    8144, 0x2b3f160a311b7b79ULL});
}

// ---------------------------------------------------------------------------
// Determinism & stream independence
// ---------------------------------------------------------------------------

FleetScenario correlated_fleet(std::uint64_t seed, double transient_mult,
                               double seu_mult, double spike_prob) {
  FleetScenario f = small_fleet(seed);
  f.base.faults = mixed_faults();
  FailureDomain rack;
  rack.name = "rack0";
  rack.spike_prob = spike_prob;
  rack.spike_duration_s = 3.0;
  rack.transient_mult = transient_mult;
  rack.seu_mult = seu_mult;
  f.fleet_faults.domains.push_back(rack);
  f.devices[0].domain = 0;
  f.devices[1].domain = 0;
  f.breaker.open_after_failures = 3;
  f.stagger.enabled = true;
  return f;
}

TEST(FleetDeterminism, ByteIdenticalAcrossRunsAndThreadsEnv) {
  const Library lib = controlled_library();
  const RuntimePolicy pol;
  const FleetScenario sc = correlated_fleet(9, 8.0, 6.0, 0.25);

  const ScopedEnv restore("ADAPEX_THREADS", "1");
  const FleetMetrics a = simulate_fleet(lib, pol, sc);
  setenv("ADAPEX_THREADS", "8", 1);
  const FleetMetrics b = simulate_fleet(lib, pol, sc);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_GT(a.domain_spikes, 0);
}

TEST(FleetDeterminism, UnityScaleSpikesLeaveDeviceStreamsUntouched) {
  const Library lib = controlled_library();
  const RuntimePolicy pol;
  // Domains spike constantly but multiply rates by exactly 1.0: every
  // device episode must be byte-identical to the domain-free fleet,
  // because domain draws come from their own stream and set_rate_scale at
  // 1.0 is floating-point exact.
  FleetScenario with = correlated_fleet(13, 1.0, 1.0, 1.0);
  FleetScenario without = with;
  without.fleet_faults.domains.clear();
  without.devices[0].domain = -1;
  without.devices[1].domain = -1;
  const FleetMetrics a = simulate_fleet(lib, pol, with);
  const FleetMetrics c = simulate_fleet(lib, pol, without);
  EXPECT_GT(a.domain_spikes, 0);
  ASSERT_EQ(a.devices.size(), c.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].csv_row(), c.devices[i].csv_row())
        << "device " << i;
  }
}

TEST(FleetDeterminism, CorrelatedSpikesChangeOutcomesDeterministically) {
  const Library lib = controlled_library();
  const RuntimePolicy pol;
  const FleetScenario hot = correlated_fleet(21, 10.0, 8.0, 0.5);
  const FleetScenario calm = correlated_fleet(21, 1.0, 1.0, 0.5);
  const FleetMetrics h1 = simulate_fleet(lib, pol, hot);
  const FleetMetrics h2 = simulate_fleet(lib, pol, hot);
  const FleetMetrics c = simulate_fleet(lib, pol, calm);
  EXPECT_EQ(h1.to_json().dump(), h2.to_json().dump());
  long hot_failures = 0, calm_failures = 0;
  for (const EdgeMetrics& d : h1.devices) hot_failures += d.reconfig_failures;
  for (const EdgeMetrics& d : c.devices) calm_failures += d.reconfig_failures;
  EXPECT_GT(hot_failures, calm_failures)
      << "a 10x transient spike should surface extra reconfig failures";
}

// ---------------------------------------------------------------------------
// Capacity-safe staggering
// ---------------------------------------------------------------------------

TEST(FleetStagger, InvariantHoldsStaggeredAndBreaksUnstaggered) {
  const Library lib = controlled_library();
  const RuntimePolicy pol;
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    FleetScenario sc = small_fleet(seed);
    sc.base.faults.stall_prob = 0.05;
    sc.base.faults.stall_duration_s = 0.8;
    sc.stagger.enabled = true;
    sc.stagger.min_capacity_fraction = 0.70;
    sc.stagger.max_defer_s = 1e9;  // no starvation override: pure invariant
    const FleetMetrics staggered = simulate_fleet(lib, pol, sc);
    sc.stagger.enabled = false;
    const FleetMetrics loose = simulate_fleet(lib, pol, sc);

    EXPECT_EQ(staggered.capacity_violations, 0)
        << "seed " << seed << ": the gate admitted below the floor";
    EXPECT_EQ(staggered.forced_reconfigs, 0) << "seed " << seed;
    EXPECT_GT(loose.capacity_violations, 0)
        << "seed " << seed
        << ": unstaggered never violated — scenario too easy to "
           "discriminate";
    EXPECT_GT(staggered.stagger_deferrals, 0) << "seed " << seed;
    // The fleet must still make progress while staggered.
    EXPECT_GT(staggered.served, 0) << "seed " << seed;
  }
}

TEST(FleetStagger, StarvationOverrideForcesAdmission) {
  const Library lib = controlled_library();
  const RuntimePolicy pol;
  FleetScenario sc = small_fleet(31);
  sc.stagger.enabled = true;
  // An impossible floor: nothing short of the override ever admits.
  sc.stagger.min_capacity_fraction = 1.0;
  sc.stagger.max_defer_s = 2.0;
  const FleetMetrics fm = simulate_fleet(lib, pol, sc);
  EXPECT_GT(fm.forced_reconfigs, 0)
      << "deferred proposals must eventually force through";
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

TEST(FleetBreaker, TransitionsClosedOpenHalfOpen) {
  CircuitBreakerPolicy p;
  p.open_after_failures = 2;
  p.open_duration_s = 5.0;
  p.half_open_probes = 2;
  CircuitBreaker cb(p);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.admit(0.0));

  cb.observe(true, 1.0);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  cb.observe(true, 2.0);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.opens(), 1);
  EXPECT_FALSE(cb.would_admit(3.0));
  EXPECT_FALSE(cb.admit(3.0));

  // Hold time elapses: the next admission probes HalfOpen.
  EXPECT_TRUE(cb.would_admit(7.5));
  EXPECT_TRUE(cb.admit(7.5));
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(cb.admit(7.6));   // second (last) probe
  EXPECT_FALSE(cb.admit(7.7));  // probe budget exhausted

  // A failing observation mid-probe reopens; a clean one closes.
  cb.observe(true, 8.0);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.opens(), 2);
  EXPECT_TRUE(cb.admit(13.5));
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
  cb.observe(false, 14.0);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
}

TEST(FleetBreaker, DisabledPolicyNeverOpens) {
  CircuitBreakerPolicy p;
  p.open_after_failures = 0;
  CircuitBreaker cb(p);
  for (int i = 0; i < 10; ++i) cb.observe(true, i);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.admit(100.0));
  EXPECT_EQ(cb.opens(), 0);
}

// ---------------------------------------------------------------------------
// Request conservation & batching
// ---------------------------------------------------------------------------

TEST(FleetAccounting, RequestsConservedWithBatchingAndAdmission) {
  const Library lib = controlled_library();
  const RuntimePolicy pol;
  FleetScenario sc = small_fleet(41);
  sc.batching.enabled = true;
  sc.batching.max_batch = 8;
  sc.batching.max_wait_ms = 10.0;
  sc.batching.setup_ms = 0.5;
  sc.admission.enabled = true;
  sc.admission.high_watermark = 0.5;
  sc.admission.low_watermark = 0.2;
  const FleetMetrics fm = simulate_fleet(lib, pol, sc);
  EXPECT_EQ(fm.offered, fm.served + fm.dropped + fm.shed);
  long t_off = 0, t_srv = 0, t_drop = 0, t_shed = 0;
  for (const TenantMetrics& t : fm.tenants) {
    EXPECT_EQ(t.offered, t.served + t.dropped + t.shed) << t.name;
    t_off += t.offered;
    t_srv += t.served;
    t_drop += t.dropped;
    t_shed += t.shed;
  }
  EXPECT_EQ(t_off, fm.offered);
  EXPECT_EQ(t_srv, fm.served);
  EXPECT_EQ(t_drop, fm.dropped);
  EXPECT_EQ(t_shed, fm.shed);
  // Low watermarks under an overloaded trace must actually shed the
  // low-priority tenant first.
  EXPECT_GT(fm.shed, 0);
  EXPECT_GE(fm.tenants[1].shed, fm.tenants[0].shed);
  EXPECT_GT(fm.served, 0);
  EXPECT_GT(fm.p99_latency_ms, 0.0);
  EXPECT_GE(fm.p999_latency_ms, fm.p99_latency_ms);
  EXPECT_GE(fm.p99_latency_ms, fm.p50_latency_ms);
}

// ---------------------------------------------------------------------------
// Lint & JSON
// ---------------------------------------------------------------------------

TEST(FleetLint, CleanScenarioPasses) {
  const analysis::LintReport r = lint_fleet_scenario(small_fleet(1));
  EXPECT_FALSE(r.has_errors()) << r.error_message();
}

TEST(FleetLint, AggregatesEveryViolation) {
  FleetScenario sc = small_fleet(1);
  sc.devices[0].speed_factor = 0.0;          // FS1
  sc.devices[1].domain = 5;                  // FS1
  sc.tenants[0].workload.period_s = -1.0;    // FS2
  sc.tenants[1].min_accuracy = 2.0;          // FS3
  FailureDomain dom;
  dom.spike_prob = 1.5;                      // FS4
  sc.fleet_faults.domains.push_back(dom);
  sc.stagger.min_capacity_fraction = 3.0;    // FS5
  sc.admission.low_watermark = 0.9;          // FS6 (low > high)
  sc.batching.max_batch = 0;                 // FS7
  sc.breaker.half_open_probes = 0;           // FS8
  sc.orchestrator_period_s = 0.0;            // FS8
  const analysis::LintReport r = lint_fleet_scenario(sc);
  EXPECT_TRUE(r.has_errors());
  const std::set<std::string> want = {"FS1", "FS2", "FS3", "FS4",
                                      "FS5", "FS6", "FS7", "FS8"};
  std::set<std::string> got;
  for (const auto& d : r.diagnostics) {
    if (d.severity == analysis::Severity::kError) got.insert(d.rule_id);
  }
  for (const std::string& rule : want) {
    EXPECT_TRUE(got.count(rule)) << "missing rule " << rule;
  }
  EXPECT_THROW(lint_fleet_scenario(sc).throw_if_errors(), ConfigError);
}

TEST(FleetLint, SingleDeviceStaggerWarns) {
  FleetScenario sc = fleet_from_edge(EdgeScenario{});
  sc.stagger.enabled = true;
  const analysis::LintReport r = lint_fleet_scenario(sc);
  EXPECT_FALSE(r.has_errors());
  bool warned = false;
  for (const auto& d : r.diagnostics) {
    if (d.rule_id == "FS5" && d.severity == analysis::Severity::kWarning) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
}

TEST(FleetJson, ScenarioRoundTrips) {
  FleetScenario sc = correlated_fleet(77, 4.0, 2.0, 0.1);
  sc.batching.enabled = true;
  sc.admission.enabled = true;
  sc.eject_after_watchdog = 3;
  const FleetScenario back = FleetScenario::from_json(sc.to_json());
  EXPECT_EQ(sc.to_json().dump(), back.to_json().dump());
  EXPECT_EQ(back.devices.size(), sc.devices.size());
  EXPECT_EQ(back.tenants.size(), sc.tenants.size());
  EXPECT_EQ(back.base.seed, sc.base.seed);
  EXPECT_EQ(back.stagger.enabled, sc.stagger.enabled);
}

TEST(FleetJson, IntegerFieldsRejectFractionsOverflowAndBadSeeds) {
  const struct {
    const char* key;
    const char* value;
  } cases[] = {
      {"queue_capacity", "2.5"},
      {"queue_capacity", "1e20"},
      {"seed", "-1"},
      {"seed", "1152921504606846977"},  // 2^60 + 1
  };
  for (const auto& c : cases) {
    Json j = small_fleet(3).to_json();
    j["base"][c.key] = Json::parse(c.value);
    try {
      FleetScenario::from_json(j);
      ADD_FAILURE() << c.key << " = " << c.value << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
          << e.what();
    }
  }
}

TEST(FleetJson, WrongTypesRaiseConfigErrorNamingTheKeyPath) {
  const struct {
    const char* path;
    void (*mutate)(Json&);
  } cases[] = {
      {"base.duration_s", [](Json& j) { j["base"]["duration_s"] = "25"; }},
      {"batching.enabled", [](Json& j) { j["batching"]["enabled"] = 1; }},
      {"devices", [](Json& j) { j["devices"] = Json::object(); }},
      {"tenants[1].workload.base_ips",
       [](Json& j) {
         j["tenants"].as_array()[1]["workload"]["base_ips"] = "400";
       }},
      {"base.faults.mitigation.scrubbing",
       [](Json& j) { j["base"]["faults"]["mitigation"]["scrubbing"] = 0.5; }},
  };
  for (const auto& c : cases) {
    Json j = small_fleet(3).to_json();
    c.mutate(j);
    try {
      FleetScenario::from_json(j);
      ADD_FAILURE() << c.path << " of the wrong type was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(c.path), std::string::npos)
          << e.what();
    }
  }
}

TEST(FleetJson, MissingKeysKeepTheirDefaults) {
  Json j = Json::object();
  j["devices"] = Json::array();
  j["devices"].push_back(Json::object());
  j["tenants"] = Json::array();
  j["tenants"].push_back(Json::object());
  j["fleet_faults"]["domains"] = Json::array();
  j["fleet_faults"]["domains"].push_back(Json::object());
  const FleetScenario s = FleetScenario::from_json(j);
  FleetScenario defaults;
  defaults.devices.resize(1);
  defaults.tenants.resize(1);
  defaults.fleet_faults.domains.resize(1);
  EXPECT_EQ(s.to_json().dump(), defaults.to_json().dump());
}

TEST(FleetJson, NonFiniteValuesAreNotWritten) {
  FleetScenario sc = small_fleet(3);
  sc.balance_hysteresis = std::numeric_limits<double>::infinity();
  EXPECT_THROW(sc.to_json(), Error);
  sc = small_fleet(3);
  sc.tenants[0].workload.trace = {1.0, std::nan("")};
  EXPECT_THROW(sc.to_json(), Error);
}

TEST(FleetJson, SeedsBeyondExactJsonRangeAreNotWritten) {
  FleetScenario sc = small_fleet(3);
  sc.base.seed = (std::uint64_t{1} << 60) + 1;
  EXPECT_THROW(sc.to_json(), ConfigError);
  sc.base.seed = (std::uint64_t{1} << 53) - 1;  // the largest exact seed
  EXPECT_EQ(FleetScenario::from_json(sc.to_json()).base.seed, sc.base.seed);
}

TEST(FleetJson, TenantMetricsRefuseNonFiniteValues) {
  TenantMetrics t;
  t.name = "t";
  EXPECT_NO_THROW(t.to_json());
  t.accuracy = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(t.to_json(), Error);
}

TEST(FleetJson, MetricsSerializeFinite) {
  const Library lib = controlled_library();
  const FleetMetrics fm =
      simulate_fleet(lib, RuntimePolicy{}, small_fleet(51));
  const Json j = fm.to_json();
  EXPECT_TRUE(j.contains("p999_latency_ms"));
  EXPECT_TRUE(j.contains("devices"));
  EXPECT_EQ(j.at("devices").as_array().size(), 4u);
  EXPECT_FALSE(FleetMetrics::csv_header().empty());
  EXPECT_EQ(fm.csv_row().find("nan"), std::string::npos);
}

}  // namespace
}  // namespace adapex
