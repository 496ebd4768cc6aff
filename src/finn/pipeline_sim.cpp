#include "finn/pipeline_sim.hpp"

#include <algorithm>
#include <limits>

namespace adapex {

namespace {

/// Modules in an order where every module follows its predecessor. The
/// smallest-index ready module goes first, so a tree whose indices are
/// already topological keeps index order.
std::vector<int> topological_order(const std::vector<int>& pred) {
  const std::size_t n = pred.size();
  std::vector<int> order;
  order.reserve(n);
  std::vector<char> placed(n, 0);
  while (order.size() < n) {
    std::size_t m = 0;
    while (m < n &&
           (placed[m] != 0 ||
            (pred[m] >= 0 && placed[static_cast<std::size_t>(pred[m])] == 0))) {
      ++m;
    }
    ADAPEX_CHECK(m < n, "module graph has a cycle");
    placed[m] = 1;
    order.push_back(static_cast<int>(m));
  }
  return order;
}

/// Online occupancy of one producer -> consumer link. Arrivals (producer
/// data-ready instants) and departures (consumer begin instants) are both
/// non-decreasing, since modules process images in order. An image is
/// resident at time t when it arrived at or before t and the consumer had
/// not begun it strictly before t, so image k's arrival sees
/// k + 1 - #{j < k : depart_j < arrive_k} residents; the maximum is always
/// attained at an arrival instant. Only the departures no arrival has yet
/// passed are kept, in a ring indexed by image number.
class LinkMeter {
 public:
  /// Records images first .. first + len - 1 (every image, in order):
  /// image first + j arrives at arrive[j] and the consumer begins it at
  /// depart[j] >= arrive[j].
  void record(std::size_t first, const double* arrive, const double* depart,
              std::size_t len) {
    while (first + len - passed_ > departs_.size()) grow(first);
    double* ring = departs_.data();
    const std::size_t mask = departs_.size() - 1;
    std::size_t passed = passed_;
    double last = last_depart_;
    int high_water = high_water_;
    double peak = peak_time_;
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t k = first + j;
      ring[k & mask] = depart[j];
      int resident = 1;
      if (last < arrive[j]) {
        // Departures are sorted: image k - 1 left before this arrival, so
        // every earlier image did too.
        passed = k;
      } else {
        // depart >= arrive, so image k's own slot stops the scan.
        while (ring[passed & mask] < arrive[j]) ++passed;
        resident = static_cast<int>(k + 1 - passed);
      }
      last = depart[j];
      if (resident > high_water) {
        high_water = resident;
        peak = arrive[j];
      }
    }
    passed_ = passed;
    last_depart_ = last;
    high_water_ = high_water;
    peak_time_ = peak;
  }

  LinkOccupancy occupancy(int producer, int consumer) const {
    LinkOccupancy occ;
    occ.producer = producer;
    occ.consumer = consumer;
    occ.high_water_images = high_water_;
    occ.peak_time_cycles = peak_time_;
    return occ;
  }

 private:
  /// Doubles the ring, keeping the pending images passed_ .. k - 1.
  void grow(std::size_t k) {
    std::vector<double> next(2 * departs_.size());
    for (std::size_t j = passed_; j < k; ++j) {
      next[j & (next.size() - 1)] = departs_[j & (departs_.size() - 1)];
    }
    departs_.swap(next);
  }

  /// Departure of image j at j & (size - 1); the size is a power of two.
  std::vector<double> departs_ = std::vector<double>(16, 0.0);
  std::size_t passed_ = 0;  ///< Images whose departure an arrival passed.
  double last_depart_ = -std::numeric_limits<double>::infinity();
  int high_water_ = 0;
  double peak_time_ = 0.0;
};

/// Pace of a non-decreasing event sequence over the second half of the run
/// (the same steady-state window steady_ii_cycles uses), from the events
/// at index n / 2 and n - 1.
double second_half_pace(double at_half, double last, std::size_t n) {
  const std::size_t half = n / 2;
  if (n >= 4 && half + 1 < n) {
    return (last - at_half) / static_cast<double>(n - 1 - half);
  }
  return last / static_cast<double>(n);
}

/// Images per simulation block (fewer with bounded FIFOs shallower than
/// this).
constexpr std::size_t kMaxBlock = 32;

}  // namespace

PipelineSimResult simulate_pipeline(const Accelerator& acc,
                                    const std::vector<int>& exit_of_image,
                                    const PipelineSimOptions& options) {
  const std::size_t num_modules = acc.modules.size();
  const std::size_t num_images = exit_of_image.size();
  ADAPEX_CHECK(num_modules > 0, "no modules to simulate");
  ADAPEX_CHECK(num_images > 0, "no images to simulate");
  ADAPEX_CHECK(options.injection_interval_cycles >= 0.0,
               "injection interval must be non-negative");
  for (int e : exit_of_image) {
    ADAPEX_CHECK(e >= 0 && e <= acc.num_exits, "exit index out of range");
  }

  // Modules are simulated in topological order; everything below is
  // indexed by stage (position in that order), not by module index.
  const std::vector<int> pred = module_predecessors(acc);
  const std::vector<int> order = topological_order(pred);
  std::vector<std::size_t> stage_of(num_modules);
  for (std::size_t k = 0; k < num_modules; ++k) {
    stage_of[static_cast<std::size_t>(order[k])] = k;
  }
  std::vector<long> pred_stage(num_modules, -1);
  std::vector<std::vector<std::size_t>> consumers(num_modules);
  for (std::size_t k = 0; k < num_modules; ++k) {
    const int p = pred[static_cast<std::size_t>(order[k])];
    if (p < 0) continue;
    const std::size_t ps = stage_of[static_cast<std::size_t>(p)];
    pred_stage[k] = static_cast<long>(ps);
    consumers[ps].push_back(k);
  }

  // Service cycles per (stage, exit) under stream gating, and the stage
  // whose data-ready instant completes an image of each exit.
  const std::size_t num_outputs = static_cast<std::size_t>(acc.num_exits) + 1;
  std::vector<double> service(num_modules * num_outputs, 0.0);
  std::vector<long> tail_stage(num_outputs, -1);
  for (std::size_t k = 0; k < num_modules; ++k) {
    const HlsModule& mod = acc.modules[static_cast<std::size_t>(order[k])];
    for (std::size_t e = 0; e < num_outputs; ++e) {
      if (module_touches(mod, static_cast<int>(e))) {
        service[k * num_outputs + e] = static_cast<double>(mod.cycles);
      }
    }
  }
  for (std::size_t e = 0; e < num_outputs && e < acc.paths.size(); ++e) {
    if (!acc.paths[e].empty()) {
      tail_stage[e] = static_cast<long>(
          stage_of[static_cast<std::size_t>(acc.paths[e].back())]);
    }
  }

  const bool paced = options.injection_interval_cycles > 0.0;
  const bool bounded = options.fifo_depth > 0;
  const std::size_t depth =
      bounded ? static_cast<std::size_t>(options.fifo_depth) : 0;
  // With bounded FIFOs a module, after computing image i, stays blocked
  // until every consumer has begun image i - depth; that backpressure is
  // what makes the closed-loop injection rate the *sustainable* rate.
  const bool backpressure = bounded && depth < num_images;

  // Images are simulated in blocks, each block stage by stage in
  // topological order: within a stage the only serial dependency is the
  // instant its output slot freed, so consecutive stages' chains overlap.
  // A block never exceeds the FIFO depth, so backpressure only reads the
  // consumers' begins of earlier blocks, from a window of `depth` images
  // per stage.
  const std::size_t block =
      backpressure ? std::min(depth, kMaxBlock) : kMaxBlock;
  std::vector<double> window(backpressure ? num_modules * depth : 0, 0.0);
  std::vector<double> begin(num_modules * block, 0.0);
  std::vector<double> ready(num_modules * block, 0.0);
  std::vector<double> injected(block, 0.0);
  std::vector<std::size_t> block_exits(block, 0);
  std::vector<double> freed_prev(num_modules, 0.0);
  std::vector<double> begin_at_half(num_modules, 0.0);
  std::vector<double> begin_last(num_modules, 0.0);
  std::vector<LinkMeter> meters(options.record_link_occupancy ? num_modules
                                                              : 0);
  const std::size_t half = num_images / 2;
  const std::size_t source_stage = stage_of[0];

  PipelineSimResult result;
  result.completion_cycles.resize(num_images);
  double latency_sum = 0.0;

  for (std::size_t first = 0; first < num_images; first += block) {
    const std::size_t len = std::min(block, num_images - first);
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t i = first + j;
      block_exits[j] = static_cast<std::size_t>(exit_of_image[i]);
      if (paced) {
        injected[j] =
            static_cast<double>(i) * options.injection_interval_cycles;
      }
    }
    // Window slot of the block's first image: image i and image i - depth
    // share slot i % depth.
    const std::size_t slot0 = backpressure ? first % depth : 0;
    for (std::size_t k = 0; k < num_modules; ++k) {
      const long p = pred_stage[k];
      const double* arrive =
          p >= 0 ? &ready[static_cast<std::size_t>(p) * block]
                 : injected.data();
      const double* svc = &service[k * num_outputs];
      double* b = &begin[k * block];
      double* r = &ready[k * block];
      double freed = freed_prev[k];
      for (std::size_t j = 0; j < len; ++j) {
        const double begun = std::max(arrive[j], freed);
        const double done = begun + svc[block_exits[j]];
        b[j] = begun;
        r[j] = done;
        freed = done;
        if (backpressure) {
          const std::size_t slot =
              slot0 + j < depth ? slot0 + j : slot0 + j - depth;
          if (first + j >= depth) {
            for (std::size_t c : consumers[k]) {
              freed = std::max(freed, window[c * depth + slot]);
            }
          }
          window[k * depth + slot] = begun;
        }
      }
      freed_prev[k] = freed;
      if (p >= 0 && !meters.empty()) {
        meters[k].record(first, arrive, b, len);
      }
      if (half >= first && half < first + len) {
        begin_at_half[k] = b[half - first];
      }
      if (first + len == num_images) begin_last[k] = b[len - 1];
    }
    for (std::size_t j = 0; j < len; ++j) {
      const long tail = tail_stage[block_exits[j]];
      ADAPEX_ASSERT(tail >= 0);
      const double done = ready[static_cast<std::size_t>(tail) * block + j];
      result.completion_cycles[first + j] = done;
      latency_sum += done - begin[source_stage * block + j];
    }
  }

  result.first_latency_cycles = result.completion_cycles.front();
  result.avg_latency_cycles = latency_sum / static_cast<double>(num_images);

  // Steady-state II: pace of *injections* (module 0 begins) over the second
  // half of the run, plus the per-module begin pace the dataflow verifier
  // reads the bottleneck's realized II from.
  if (num_images >= 4 && half + 1 < num_images) {
    result.steady_ii_cycles = second_half_pace(
        begin_at_half[source_stage], begin_last[source_stage], num_images);
  } else {
    result.steady_ii_cycles = result.completion_cycles.back() /
                              static_cast<double>(num_images);
  }
  result.module_begin_ii_cycles.resize(num_modules);
  for (std::size_t m = 0; m < num_modules; ++m) {
    const std::size_t k = stage_of[m];
    result.module_begin_ii_cycles[m] =
        second_half_pace(begin_at_half[k], begin_last[k], num_images);
  }

  for (std::size_t c = 0; c < num_modules && !meters.empty(); ++c) {
    if (pred[c] < 0) continue;
    result.links.push_back(
        meters[stage_of[c]].occupancy(pred[c], static_cast<int>(c)));
  }
  return result;
}

}  // namespace adapex
