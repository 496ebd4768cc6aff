// Tests for the fleet-scale serving simulator: device-seed uniqueness and
// stream independence, the size-1 byte-identity guarantee against
// simulate_edge, correlated-failure determinism (including under different
// ADAPEX_THREADS settings), the capacity-safe stagger invariant, circuit
// breaker transitions, and the FS lint rules.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <vector>

#include "edge/fleet.hpp"
#include "edge/simulation.hpp"

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

  setenv("ADAPEX_THREADS", "1", 1);
  const FleetMetrics a = simulate_fleet(lib, pol, sc);
  setenv("ADAPEX_THREADS", "8", 1);
  const FleetMetrics b = simulate_fleet(lib, pol, sc);
  unsetenv("ADAPEX_THREADS");
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
