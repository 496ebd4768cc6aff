// Workload models for the edge simulation.
//
// The paper's methodology uses a fixed camera fleet with 30% random
// deviation every 5 seconds (citing MLPerf Inference [17] for workload
// variability). Real deployments also see slower diurnal swings and flash
// crowds; those patterns are provided for the examples and the robustness
// ablations. All models emit a Poisson arrival stream whose rate is a
// piecewise-constant function of time.

#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace adapex {

/// Rate pattern kinds.
enum class WorkloadPattern {
  kRandomDeviation,  ///< Paper: base * (1 +- U(deviation)) per period.
  kDiurnal,          ///< Sinusoidal swing between (1-deviation) and (1+deviation).
  kFlashCrowd,       ///< Base rate with a spike window at a multiplier.
  kTrace,            ///< Explicit per-period rate multipliers.
};

const char* to_string(WorkloadPattern p);

/// Workload description (rate in requests/second).
struct WorkloadSpec {
  WorkloadPattern pattern = WorkloadPattern::kRandomDeviation;
  double base_ips = 600.0;
  double duration_s = 25.0;
  double period_s = 5.0;     ///< Rate re-evaluation period.
  double deviation = 0.30;   ///< Random/diurnal amplitude.
  // Flash crowd parameters.
  double spike_start_s = 10.0;
  double spike_duration_s = 5.0;
  double spike_multiplier = 2.0;
  /// kTrace: multiplier per period (wraps around if shorter than needed).
  std::vector<double> trace;
};

/// One request in a mixed-tenant fleet arrival trace (edge/fleet.hpp).
struct FleetRequest {
  double time_s = 0.0;
  int tenant = 0;  ///< Index into the tenant list that generated it.
};

/// Seed of tenant `index`'s arrival stream in an `tenant_count`-tenant
/// fleet. A single-tenant fleet consumes `fleet_seed` directly — its stream
/// is byte-identical to WorkloadModel(spec, fleet_seed), which is what makes
/// a size-1 fleet reproduce simulate_edge — while multi-tenant fleets draw
/// from independent splitmix64-derived streams, one per tenant.
std::uint64_t tenant_stream_seed(std::uint64_t fleet_seed, std::size_t index,
                                 std::size_t tenant_count);

/// Piecewise-constant rate at time t (uses `rng` for the random pattern;
/// call sequentially per period to stay deterministic).
class WorkloadModel {
 public:
  WorkloadModel(const WorkloadSpec& spec, std::uint64_t seed);

  /// Rate of period `index` (periods are [i*period_s, (i+1)*period_s)).
  double period_rate(int index);

  /// Next arrival of the Poisson stream over [0, duration), or +infinity
  /// once the stream is exhausted. Successive calls walk one stream.
  double next_arrival();

  /// Drains the rest of the stream: on a fresh model, the full Poisson
  /// arrival time list over [0, duration).
  std::vector<double> generate_arrivals();

 private:
  WorkloadSpec spec_;
  Rng rng_;
  std::vector<double> cached_rates_;
  double clock_s_ = 0.0;  ///< Time of the last arrival drawn.
  int min_period_ = 0;    ///< No earlier period can be current.
};

/// Merge cursor over a fleet's tenant streams: yields every tenant's Poisson
/// arrivals (seeded via tenant_stream_seed; zero-rate tenants contribute
/// nothing) in one nondecreasing timeline with (time, tenant-index) as the
/// total order — the earliest head wins, and a tie goes to the lower tenant
/// index. Each stream is drawn lazily, one arrival ahead, so no trace is
/// ever materialized; a pop costs one comparison per live tenant.
class FleetArrivalStream {
 public:
  FleetArrivalStream(const std::vector<WorkloadSpec>& tenants,
                     std::uint64_t fleet_seed);

  bool empty() const { return lanes_.empty(); }
  /// Earliest pending arrival; the stream must not be empty.
  FleetRequest front() const {
    const Lane& l = lanes_[head_];
    return FleetRequest{l.next_s, l.tenant};
  }
  /// Consumes front().
  void pop();

 private:
  struct Lane {
    WorkloadModel model;
    double next_s;
    int tenant;
  };
  void find_head();

  std::vector<Lane> lanes_;  ///< Live streams, in tenant-index order.
  std::size_t head_ = 0;
};

/// The whole merged trace of a FleetArrivalStream, drained into a vector.
std::vector<FleetRequest> generate_fleet_arrivals(
    const std::vector<WorkloadSpec>& tenants, std::uint64_t fleet_seed);

}  // namespace adapex
