// Bench-side span recorder for the traced run of bench_adapex.
//
// Spans wrap calls into the adapex modules from the benchmark's own code
// (nothing inside src/ is instrumented). Each span records name, start,
// duration, thread, id and parent id; spans are kept in memory and written
// out when the run ends, as a Chrome trace-event file (open it in Perfetto
// or chrome://tracing) and as a per-name self-time table. A span's self
// time is its duration minus the time its child spans on the same thread
// cover.

#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    int tid = 0;
    int id = 0;
    int parent = -1;
  };

  /// Self time, total time and call count of every span with one name.
  struct Stat {
    double self_s = 0.0;
    double total_s = 0.0;
    long calls = 0;
  };

  /// RAII span: opened on construction, closed on destruction. Inert for a
  /// null tracer (no clock reads, nothing recorded), which is how untraced
  /// code paths share the traced ones.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ == nullptr) return;
      name_ = name;
      id_ = tracer_->open();
      parent_ = stack().empty() ? -1 : stack().back();
      stack().push_back(id_);
      start_ = std::chrono::steady_clock::now();
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      const auto end = std::chrono::steady_clock::now();
      stack().pop_back();
      tracer_->close(name_, start_, end, id_, parent_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_ = nullptr;
    int id_ = 0;
    int parent_ = -1;
    std::chrono::steady_clock::time_point start_;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  Scope span(const char* name) { return Scope(this, name); }

  /// Per-name self/total/calls over every recorded span.
  std::map<std::string, Stat> stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<int, double> child_us;
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[s.parent] += s.dur_us;
    }
    std::map<std::string, Stat> out;
    for (const Span& s : spans_) {
      Stat& st = out[s.name];
      const auto it = child_us.find(s.id);
      const double covered = it == child_us.end() ? 0.0 : it->second;
      st.self_s += (s.dur_us - covered) * 1e-6;
      st.total_s += s.dur_us * 1e-6;
      ++st.calls;
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond clock).
  std::string chrome_json() const {
    std::lock_guard<std::mutex> lock(mutex_);
    adapex::Json events = adapex::Json::array();
    for (const Span& s : spans_) {
      adapex::Json e = adapex::Json::object();
      e["name"] = s.name;
      e["cat"] = s.name.substr(0, s.name.find('.'));
      e["ph"] = "X";
      e["ts"] = s.start_us;
      e["dur"] = s.dur_us;
      e["pid"] = 1;
      e["tid"] = s.tid;
      adapex::Json args = adapex::Json::object();
      args["id"] = s.id;
      args["parent"] = s.parent;
      e["args"] = std::move(args);
      events.push_back(std::move(e));
    }
    adapex::Json doc = adapex::Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    return doc.dump();
  }

 private:
  static std::vector<int>& stack() {
    thread_local std::vector<int> open_spans;
    return open_spans;
  }

  int open() {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
  }

  void close(const char* name, std::chrono::steady_clock::time_point start,
             std::chrono::steady_clock::time_point end, int id, int parent) {
    using us = std::chrono::duration<double, std::micro>;
    Span s;
    s.name = name;
    s.start_us = us(start - origin_).count();
    s.dur_us = us(end - start).count();
    s.id = id;
    s.parent = parent;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = tids_.try_emplace(
        std::this_thread::get_id(), static_cast<int>(tids_.size()) + 1);
    s.tid = it->second;
    spans_.push_back(std::move(s));
  }

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> tids_;
  int next_id_ = 0;
};

}  // namespace perfbench
