#include "edge/workload.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace adapex {

namespace {

// Stream identifier for per-tenant arrival streams (derive_seed).
constexpr std::uint64_t kTenantStream = 0x7E2A;

// next_arrival's end-of-stream marker.
constexpr double kNever = std::numeric_limits<double>::infinity();

}  // namespace

std::uint64_t tenant_stream_seed(std::uint64_t fleet_seed, std::size_t index,
                                 std::size_t tenant_count) {
  ADAPEX_CHECK(index < tenant_count, "tenant index out of range");
  // The identity mapping for a lone tenant keeps the fleet's arrival stream
  // byte-identical to the single-device WorkloadModel stream.
  if (tenant_count == 1) return fleet_seed;
  return derive_seed(fleet_seed, kTenantStream, index);
}

FleetArrivalStream::FleetArrivalStream(const std::vector<WorkloadSpec>& tenants,
                                       std::uint64_t fleet_seed) {
  lanes_.reserve(tenants.size());
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    // A zero-rate tenant is a valid degenerate stream: nothing arrives.
    if (!(tenants[k].base_ips > 0.0)) continue;
    Lane lane{WorkloadModel(tenants[k],
                            tenant_stream_seed(fleet_seed, k, tenants.size())),
              0.0, static_cast<int>(k)};
    lane.next_s = lane.model.next_arrival();
    if (lane.next_s != kNever) lanes_.push_back(std::move(lane));
  }
  find_head();
}

void FleetArrivalStream::pop() {
  Lane& lane = lanes_[head_];
  lane.next_s = lane.model.next_arrival();
  if (lane.next_s == kNever) {
    lanes_.erase(lanes_.begin() + static_cast<std::ptrdiff_t>(head_));
  }
  find_head();
}

void FleetArrivalStream::find_head() {
  // Lanes are in tenant-index order, so the strict comparison hands a tie
  // to the lower tenant index.
  head_ = 0;
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    if (lanes_[i].next_s < lanes_[head_].next_s) head_ = i;
  }
}

std::vector<FleetRequest> generate_fleet_arrivals(
    const std::vector<WorkloadSpec>& tenants, std::uint64_t fleet_seed) {
  std::vector<FleetRequest> merged;
  for (FleetArrivalStream s(tenants, fleet_seed); !s.empty(); s.pop()) {
    merged.push_back(s.front());
  }
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

double WorkloadModel::next_arrival() {
  while (clock_s_ < spec_.duration_s) {
    // min_period_ carries a dead-period jump forward: the jump lands on the
    // next period's start, and the division can round that back into the
    // dead period (3 * 0.7 / 0.7 < 3), which would repeat the jump forever.
    const int period = std::max(
        static_cast<int>(clock_s_ / spec_.period_s), min_period_);
    const double rate = period_rate(period);
    if (rate <= 1e-12) {
      // Dead period: jump to its end.
      clock_s_ = (period + 1) * spec_.period_s;
      min_period_ = period + 1;
      continue;
    }
    const double u = std::max(rng_.uniform(), 1e-12);
    clock_s_ += -std::log(u) / rate;
    // If the step crossed a period boundary the rate error is one
    // inter-arrival gap — negligible at bench rates.
    if (clock_s_ < spec_.duration_s) return clock_s_;
  }
  return kNever;
}

std::vector<double> WorkloadModel::generate_arrivals() {
  std::vector<double> arrivals;
  arrivals.reserve(
      static_cast<std::size_t>(spec_.base_ips * spec_.duration_s * 1.5) + 16);
  for (double t = next_arrival(); t != kNever; t = next_arrival()) {
    arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace adapex
