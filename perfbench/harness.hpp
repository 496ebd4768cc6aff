// Shared plumbing of bench_adapex: run options, reported metrics, sample
// statistics, the timed loop, and the fixed per-layer metric list.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "trace.hpp"

namespace perfbench {

/// Settings of one workload run.
struct Options {
  std::uint64_t seed = 7;
  /// Length of the timed window (and of the alternating traced/untraced
  /// window of a traced run).
  double seconds = 15.0;
  bool trace = false;
  /// Worker threads every parallel call gets: min(4, nproc).
  int threads = 1;
  /// Scratch, trace and result files go here (inside the checkout).
  std::string out_dir = "perfbench/out";
  std::string fixture = "perfbench/fixtures/library_cifar10_tiny_seed7.json";
};

/// One reported number. `n` > 0 marks a median over n samples, with the
/// sample quartiles in q1/q3.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  double q1 = 0.0;
  double q3 = 0.0;
  long n = 0;
};

/// What a workload reports: the metrics named in BENCHMARK.json (end-to-end
/// when untraced, per-layer when traced), the workload-specific detail
/// metrics, the correctness ledger, and a free-text report.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  adapex::Json config = adapex::Json::object();
  std::string report;

  /// Counts one operation or correctness check; records it when it failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void metric(Metric m) { metrics.push_back(std::move(m)); }
  void detail(Metric m) { details.push_back(std::move(m)); }
  void detail(const std::string& name, double value, const std::string& unit) {
    details.push_back(Metric{name, value, unit});
  }

  adapex::Json to_json() const;
  static Outcome from_json(const adapex::Json& j);
};

/// A growing set of timing (or other) samples.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  double sum() const {
    double s = 0.0;
    for (double v : v_) s += v;
    return s;
  }
  /// Quantile q in [0, 1] by linear interpolation between order statistics
  /// (q = 0.5 is the median).
  double quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  double median() const { return quantile(0.5); }

  /// Median with quartiles and n, scaled by `scale` (e.g. 1e3 for s -> ms).
  Metric summary(const std::string& name, const std::string& unit,
                 double scale = 1.0) const {
    return Metric{name, median() * scale, unit, quantile(0.25) * scale,
                  quantile(0.75) * scale, static_cast<long>(v_.size())};
  }
  /// Per-sample rate `work / sample`, summarized (e.g. images per second).
  Samples rates(double work) const {
    Samples r;
    for (double v : v_) r.add(work / v);
    return r;
  }

 private:
  std::vector<double> v_;
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Wall time of one call of `fn`, in seconds.
template <typename Fn>
double time_call(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return seconds_since(t0);
}

/// Runs `op(rep)` until `seconds` have elapsed and at least `min_reps`
/// repetitions ran; returns the wall time of every repetition.
template <typename Op>
Samples time_loop(double seconds, int min_reps, Op&& op) {
  Samples s;
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < min_reps || seconds_since(start) < seconds; ++rep) {
    s.add(time_call([&] { op(rep); }));
  }
  return s;
}

/// Set-up is repeated so its median is steady: at least 3 times and until
/// 1 s has been spent, at most 200 times. `setup()` returns the state the
/// workload continues with; the last repetition's state is kept.
template <typename Setup>
auto repeated_setup(Setup&& setup, Samples& times) {
  auto t0 = std::chrono::steady_clock::now();
  auto state = setup();
  times.add(seconds_since(t0));
  double spent = times.sum();
  while (times.size() < 200 && (times.size() < 3 || spent < 1.0)) {
    t0 = std::chrono::steady_clock::now();
    state = setup();
    times.add(seconds_since(t0));
    spent = times.sum();
  }
  return state;
}

/// Spans whose share of traced busy time is a per-layer metric, named
/// after the src/ module whose public function they wrap. Every traced run
/// reports every one of them (0 where the workload never calls it).
inline const std::vector<std::string>& layer_spans() {
  static const std::vector<std::string> names = {
      "data.make_synthetic",       "nn.build_cnv",
      "nn.train_base",             "nn.train_retrain",
      "nn.clone",                  "nn.evaluate_exits",
      "nn.freeze_packed",          "nn.packed_forward",
      "nn.float_forward",          "nn.train_step",
      "nn.conv.fwd",               "nn.conv.bwd",
      "nn.linear.fwd",             "nn.linear.bwd",
      "nn.bn.fwd",                 "nn.bn.bwd",
      "nn.actquant.fwd",           "nn.actquant.bwd",
      "nn.pool.fwd",               "nn.pool.bwd",
      "nn.optim.step",             "pruning.prune_model",
      "finn.compile_accelerator",  "finn.estimate_performance",
      "hls.reach_aware_folding",   "analysis.lint_design",
      "analysis.analyze_dataflow", "analysis.lint_entry_reach",
      "analysis.cross_validate",   "library.design_point",
      "library.json_parse",        "library.unseal",
      "library.from_json",         "runtime.select",
      "edge.simulate_fleet",       "edge.simulate_edge",
  };
  return names;
}

/// Work counts reported by traced runs (0 where a workload has none).
inline const std::vector<std::string>& layer_counts() {
  static const std::vector<std::string> names = {
      "nn.train.images",        "edge.events",
      "fleet.reconfigurations", "fleet.stagger_deferrals",
      "fleet.failovers",        "fleet.breaker_opens",
      "fleet.dropped",          "fleet.shed",
  };
  return names;
}

/// Ends a traced run: fills `out.metrics` with the per-layer list (total
/// traced busy time, each listed span's self-time share and call count,
/// each listed work count), appends the self-time table to `out.report`,
/// and writes the Chrome trace to `<out_dir>/trace_<workload>.json`. A
/// recorded span missing from the list is a benchmark bug and fails the
/// run.
void finish_trace(Outcome& out, const Tracer& tracer,
                  const std::map<std::string, double>& counts,
                  const Options& opt, const std::string& workload);

// Workloads (each returns its Outcome; exceptions escape to the caller).
Outcome run_gen_train(const Options& opt);
Outcome run_gen_verify(const Options& opt);
Outcome run_eval_packed(const Options& opt);
Outcome run_serve_fleet(const Options& opt);

/// Generates the committed serve-fleet fixture (the tiny-preset Library at
/// seed 7) and writes it, sealed, to `path`.
void write_fixture(const std::string& path, int threads);

}  // namespace perfbench
