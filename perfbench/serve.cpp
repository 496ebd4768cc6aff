// serve-fleet: the fleet serving simulator over a committed Library.
//
// 8 devices in 2 failure domains serve an interactive tenant (250 ms SLO)
// and a batch tenant, with staggered reconfiguration and circuit breakers
// on. Arrivals are open-loop Poisson; latencies are simulated time. The
// Library is the committed tiny-preset fixture, so this workload times
// serving code only and does not move when training numerics change. The
// offered load follows a fixed ladder of multiples of the fixture's FINN
// throughput per device; 1.3x is nominal (the paper's Table I regime) and
// its duration is sized to offer about 1M requests.

#include "common/integrity.hpp"
#include "core/adapex.hpp"
#include "edge/fleet.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace adapex;

constexpr double kLadder[] = {1.0, 1.3, 1.6, 2.0, 2.5};
constexpr double kNominal = 1.3;
constexpr int kDevices = 8;
constexpr double kNominalRequests = 1e6;
constexpr double kGoodputLimitPct = 99.0;

const RuntimePolicy kPolicy{AdaptPolicy::kAdaPEx, 0.10};

struct ServeInputs {
  Library lib;
  double finn_ips = 0.0;
};

ServeInputs load_fixture(const Options& opt, Tracer* tr) {
  const std::string text = read_file(opt.fixture);
  Json doc, payload;
  {
    Tracer::Scope s(tr, "library.json_parse");
    doc = Json::parse(text);
  }
  {
    Tracer::Scope s(tr, "library.unseal");
    payload = open_document(doc, "library");
  }
  ServeInputs in;
  {
    Tracer::Scope s(tr, "library.from_json");
    in.lib = Library::from_json(payload);
  }
  for (const LibraryEntry& e : in.lib.entries) {
    if (e.variant == ModelVariant::kNoExit && e.prune_rate_pct == 0) {
      in.finn_ips = e.ips;
      break;
    }
  }
  ADAPEX_CHECK(in.finn_ips > 0.0, "fixture lacks the FINN entry");
  return in;
}

/// bench_fleet's drill fleet at `load` x FINN IPS per device.
FleetScenario fleet_scenario(double load, double finn_ips,
                             std::uint64_t seed) {
  const double offered = load * finn_ips * kDevices;
  const double duration = kNominalRequests / (kNominal * finn_ips * kDevices);
  FleetScenario f;
  f.base.seed = seed;
  f.base.duration_s = duration;
  f.base.faults.stall_prob = 0.02;
  f.base.faults.stall_duration_s = 0.5;
  f.base.faults.reconfig_fail_prob = 0.02;
  f.base.faults.seu_weight_prob = 0.005;
  for (int i = 0; i < kDevices; ++i) {
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
  // Rates change every 0.25 s, so an episode spans ~40 rate periods and
  // its offered volume barely depends on the seed.
  TenantSpec interactive;
  interactive.name = "interactive";
  interactive.workload.base_ips = offered * 0.6;
  interactive.workload.duration_s = duration;
  interactive.workload.period_s = 0.25;
  interactive.workload.deviation = 0.4;
  interactive.slo_latency_ms = 250.0;
  interactive.priority = 1;
  TenantSpec batch;
  batch.name = "batch";
  batch.workload.base_ips = offered * 0.4;
  batch.workload.duration_s = duration;
  batch.workload.period_s = 0.25;
  batch.workload.pattern = WorkloadPattern::kDiurnal;
  batch.priority = 0;
  f.tenants = {interactive, batch};
  f.breaker.open_after_failures = 3;
  f.stagger.enabled = true;
  f.stagger.min_capacity_fraction = 0.70;
  return f;
}

/// Requests served within their tenant's SLOs over requests offered;
/// dropped and shed requests count as misses.
double goodput_pct(const FleetMetrics& m) {
  long good = 0;
  long offered = 0;
  for (const TenantMetrics& t : m.tenants) {
    good += t.served - t.slo_latency_violations - t.slo_accuracy_violations;
    offered += t.offered;
  }
  return offered > 0 ? 100.0 * static_cast<double>(good) /
                           static_cast<double>(offered)
                     : 0.0;
}

void check_conservation(const FleetMetrics& m, const std::string& what,
                        Outcome& out) {
  bool ok = true;
  for (const TenantMetrics& t : m.tenants) {
    ok = ok && t.offered == t.served + t.dropped + t.shed;
  }
  out.check(ok, what + ": offered != served + dropped + shed for a tenant");
}

/// A size-1 fleet built by fleet_from_edge must reproduce simulate_edge.
void check_size1_identity(const ServeInputs& in, std::uint64_t seed,
                          Tracer* tr, Outcome& out) {
  EdgeScenario scenario;
  scenario.seed = seed;
  scenario = scale_to_library(scenario, in.lib, kNominal);
  EdgeMetrics edge;
  FleetMetrics fleet;
  {
    Tracer::Scope s(tr, "edge.simulate_edge");
    edge = simulate_edge(in.lib, kPolicy, scenario);
  }
  {
    Tracer::Scope s(tr, "edge.simulate_fleet");
    fleet = simulate_fleet(in.lib, kPolicy, fleet_from_edge(scenario));
  }
  out.check(fleet.devices.size() == 1 &&
                fleet.devices[0].to_json().dump() == edge.to_json().dump() &&
                fleet.devices[0].trace.size() == edge.trace.size(),
            "size-1 fleet differs from simulate_edge");
}

std::map<std::string, double> fleet_counts(const FleetMetrics& m) {
  double reconfigs = 0.0;
  for (const EdgeMetrics& d : m.devices) reconfigs += d.reconfigurations;
  return {{"edge.events", double(m.events)},
          {"fleet.reconfigurations", reconfigs},
          {"fleet.stagger_deferrals", double(m.stagger_deferrals)},
          {"fleet.failovers", double(m.failovers)},
          {"fleet.breaker_opens", double(m.breaker_opens)},
          {"fleet.dropped", double(m.dropped)},
          {"fleet.shed", double(m.shed)}};
}

/// RuntimeManager::select over the fixture for 2000 measured workloads
/// spread over 0.2x..3x the FINN throughput (deterministic per seed).
void select_probe(const ServeInputs& in, std::uint64_t seed, Tracer& tr,
                  Outcome& out) {
  RuntimeManager manager(in.lib, kPolicy, seed);
  Rng rng(seed);
  Samples us;
  for (int i = 0; i < 2000; ++i) {
    const double ips = in.finn_ips * rng.uniform(0.2, 3.0);
    us.add(1e6 * time_call([&] {
      auto s = tr.span("runtime.select");
      manager.select(ips, 0.5 * i);
    }));
  }
  out.detail("runtime.select_us_p50", us.quantile(0.5), "us");
  out.detail("runtime.select_us_p99", us.quantile(0.99), "us");
}

}  // namespace

Outcome run_serve_fleet(const Options& opt) {
  Outcome out;
  out.config["devices"] = kDevices;
  if (opt.trace) {
    Tracer tr;
    const ServeInputs in = load_fixture(opt, &tr);
    const FleetScenario nominal =
        fleet_scenario(kNominal, in.finn_ips, opt.seed);
    Samples plain, traced;
    FleetMetrics m;
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 6 || seconds_since(start) < opt.seconds; ++rep) {
      Tracer* t = rep % 2 == 1 ? &tr : nullptr;
      (t != nullptr ? traced : plain).add(time_call([&] {
        Tracer::Scope s(t, "edge.simulate_fleet");
        m = simulate_fleet(in.lib, kPolicy, nominal);
      }));
    }
    out.detail("trace.overhead_pct",
               100.0 * (traced.median() / plain.median() - 1.0), "%");
    out.detail("edge.events_per_request",
               double(m.events) / double(std::max(m.offered, 1L)), "count");
    select_probe(in, opt.seed, tr, out);
    check_size1_identity(in, opt.seed, &tr, out);
    finish_trace(out, tr, fleet_counts(m), opt, "serve-fleet");
    return out;
  }

  Samples setup;
  const auto [in, nominal] = repeated_setup(
      [&] {
        ServeInputs loaded = load_fixture(opt, nullptr);
        FleetScenario sc = fleet_scenario(kNominal, loaded.finn_ips, opt.seed);
        return std::make_pair(std::move(loaded), std::move(sc));
      },
      setup);
  out.metric(setup.summary("setup_s", "s"));

  // Warm-up episode: untimed; its CSV row is the identity reference.
  const FleetMetrics ref = simulate_fleet(in.lib, kPolicy, nominal);
  check_conservation(ref, "nominal", out);
  const std::string ref_row = ref.csv_row();
  Samples events_per_s;
  const Samples walls = time_loop(opt.seconds, 10, [&](int rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const FleetMetrics m = simulate_fleet(in.lib, kPolicy, nominal);
    events_per_s.add(double(m.events) / seconds_since(t0));
    out.check(m.csv_row() == ref_row,
              "nominal repetition " + std::to_string(rep) + " differs");
  });
  out.metric(events_per_s.summary("work_per_s", "1/s"));
  out.detail(walls.summary("episode_ms", "ms", 1e3));
  out.detail(events_per_s.summary("sim_events_per_s", "events/s"));
  out.detail("serve_p99_ms", ref.p99_latency_ms, "ms (simulated)");
  out.detail("serve_goodput_pct", goodput_pct(ref), "% (simulated)");
  out.detail("serve.requests", double(ref.offered), "count");
  for (const auto& [name, v] : fleet_counts(ref)) out.detail(name, v, "count");

  double max_load = 0.0;
  for (double load : kLadder) {
    const FleetMetrics m = simulate_fleet(
        in.lib, kPolicy, fleet_scenario(load, in.finn_ips, opt.seed));
    check_conservation(m, "ladder", out);
    const double g = goodput_pct(m);
    char name[64];
    std::snprintf(name, sizeof name, "serve.goodput_pct_at_%.1fx", load);
    out.detail(name, g, "% (simulated)");
    if (g >= kGoodputLimitPct) max_load = load;
  }
  out.detail("serve_max_load", max_load, "x FINN IPS (simulated)");
  check_size1_identity(in, opt.seed, nullptr, out);
  return out;
}

}  // namespace perfbench
