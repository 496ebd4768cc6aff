#include "edge/workload.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace adapex {

namespace {

// Stream identifier for per-tenant arrival streams (derive_seed).
constexpr std::uint64_t kTenantStream = 0x7E2A;

}  // namespace

std::uint64_t tenant_stream_seed(std::uint64_t fleet_seed, std::size_t index,
                                 std::size_t tenant_count) {
  ADAPEX_CHECK(index < tenant_count, "tenant index out of range");
  // The identity mapping for a lone tenant keeps the fleet's arrival stream
  // byte-identical to the single-device WorkloadModel stream.
  if (tenant_count == 1) return fleet_seed;
  return derive_seed(fleet_seed, kTenantStream, index);
}

std::vector<FleetRequest> generate_fleet_arrivals(
    const std::vector<WorkloadSpec>& tenants, std::uint64_t fleet_seed) {
  std::vector<FleetRequest> merged;
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    // A zero-rate tenant is a valid degenerate stream: nothing arrives.
    if (!(tenants[k].base_ips > 0.0)) continue;
    WorkloadModel model(tenants[k],
                        tenant_stream_seed(fleet_seed, k, tenants.size()));
    for (double t : model.generate_arrivals()) {
      merged.push_back(FleetRequest{t, static_cast<int>(k)});
    }
  }
  // Each per-tenant stream is strictly increasing, so (time, tenant) is a
  // deterministic total order.
  std::sort(merged.begin(), merged.end(),
            [](const FleetRequest& a, const FleetRequest& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              return a.tenant < b.tenant;
            });
  return merged;
}

const char* to_string(WorkloadPattern p) {
  switch (p) {
    case WorkloadPattern::kRandomDeviation: return "random_deviation";
    case WorkloadPattern::kDiurnal: return "diurnal";
    case WorkloadPattern::kFlashCrowd: return "flash_crowd";
    case WorkloadPattern::kTrace: return "trace";
  }
  return "?";
}

WorkloadModel::WorkloadModel(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  ADAPEX_CHECK(spec.base_ips > 0 && spec.duration_s > 0 && spec.period_s > 0,
               "degenerate workload spec");
  if (spec.pattern == WorkloadPattern::kTrace) {
    ADAPEX_CHECK(!spec.trace.empty(), "trace pattern needs rate multipliers");
  }
}

double WorkloadModel::period_rate(int index) {
  ADAPEX_CHECK(index >= 0, "negative period index");
  // Random rates are drawn sequentially and cached so repeated queries are
  // consistent.
  while (static_cast<int>(cached_rates_.size()) <= index) {
    const int i = static_cast<int>(cached_rates_.size());
    const double t0 = i * spec_.period_s;
    double mult = 1.0;
    switch (spec_.pattern) {
      case WorkloadPattern::kRandomDeviation:
        mult = 1.0 + rng_.uniform(-spec_.deviation, spec_.deviation);
        break;
      case WorkloadPattern::kDiurnal:
        mult = 1.0 + spec_.deviation *
                         std::sin(2.0 * 3.14159265358979323846 * t0 /
                                  spec_.duration_s);
        break;
      case WorkloadPattern::kFlashCrowd:
        mult = (t0 >= spec_.spike_start_s &&
                t0 < spec_.spike_start_s + spec_.spike_duration_s)
                   ? spec_.spike_multiplier
                   : 1.0;
        break;
      case WorkloadPattern::kTrace:
        mult = spec_.trace[static_cast<std::size_t>(i) % spec_.trace.size()];
        break;
    }
    cached_rates_.push_back(std::max(spec_.base_ips * mult, 0.0));
  }
  return cached_rates_[static_cast<std::size_t>(index)];
}

std::vector<double> WorkloadModel::generate_arrivals() {
  std::vector<double> arrivals;
  arrivals.reserve(
      static_cast<std::size_t>(spec_.base_ips * spec_.duration_s * 1.5) + 16);
  double t = 0.0;
  for (;;) {
    const int period = static_cast<int>(t / spec_.period_s);
    const double rate = period_rate(period);
    if (rate <= 1e-12) {
      // Dead period: jump to its end.
      t = (period + 1) * spec_.period_s;
      if (t >= spec_.duration_s) break;
      continue;
    }
    const double u = std::max(rng_.uniform(), 1e-12);
    t += -std::log(u) / rate;
    if (t >= spec_.duration_s) break;
    // If the step crossed a period boundary the rate error is one
    // inter-arrival gap — negligible at bench rates.
    arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace adapex
