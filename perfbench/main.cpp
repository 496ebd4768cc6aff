// bench_adapex: the AdaPEx end-to-end benchmark (see README.md).
//
//   bench_adapex [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//                [--out DIR] [--fixture PATH] [--results PATH]
//                [--commit SHA]
//   bench_adapex --write-fixture PATH
//
// Runs each selected workload (default: all four) in its own forked child,
// prints every metric by name with its unit, writes the run to the results
// file, and prints one JSON summary as the last line of standard output.
// Exits 1 when any correctness check fails, 2 on a usage error.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "common/integrity.hpp"
#include "harness.hpp"
#include "tensor/kernels.hpp"
#include "tensor/packed.hpp"

extern char** environ;

namespace perfbench {

using adapex::Json;

Json Outcome::to_json() const {
  auto list = [](const std::vector<Metric>& ms) {
    Json a = Json::array();
    for (const Metric& m : ms) {
      Json j = Json::object();
      j["name"] = m.name;
      j["value"] = m.value;
      j["unit"] = m.unit;
      if (m.n > 0) {
        j["q1"] = m.q1;
        j["q3"] = m.q3;
        j["n"] = static_cast<double>(m.n);
      }
      a.push_back(std::move(j));
    }
    return a;
  };
  Json j = Json::object();
  j["metrics"] = list(metrics);
  j["details"] = list(details);
  j["attempted"] = static_cast<double>(attempted);
  j["failed"] = static_cast<double>(failed);
  Json f = Json::array();
  for (const std::string& s : failures) f.push_back(s);
  j["failures"] = std::move(f);
  j["config"] = config;
  j["report"] = report;
  return j;
}

Outcome Outcome::from_json(const Json& j) {
  auto list = [](const Json& a) {
    std::vector<Metric> ms;
    for (const Json& m : a.as_array()) {
      Metric x{m.at("name").as_string(), m.at("value").as_number(),
               m.at("unit").as_string()};
      if (m.contains("n")) {
        x.q1 = m.at("q1").as_number();
        x.q3 = m.at("q3").as_number();
        x.n = static_cast<long>(m.at("n").as_number());
      }
      ms.push_back(std::move(x));
    }
    return ms;
  };
  Outcome o;
  o.metrics = list(j.at("metrics"));
  o.details = list(j.at("details"));
  o.attempted = static_cast<long>(j.at("attempted").as_number());
  o.failed = static_cast<long>(j.at("failed").as_number());
  for (const Json& f : j.at("failures").as_array()) {
    o.failures.push_back(f.as_string());
  }
  o.config = j.at("config");
  o.report = j.at("report").as_string();
  return o;
}

void finish_trace(Outcome& out, const Tracer& tracer,
                  const std::map<std::string, double>& counts,
                  const Options& opt, const std::string& workload) {
  const auto stats = tracer.stats();
  double busy = 0.0;
  for (const auto& [name, st] : stats) busy += st.self_s;
  const std::set<std::string> listed(layer_spans().begin(),
                                     layer_spans().end());
  for (const auto& [name, st] : stats) {
    out.check(listed.count(name) == 1, "span " + name + " is not listed");
  }
  out.metric(Metric{"trace.busy_s", busy, "s"});
  for (const std::string& name : layer_spans()) {
    const auto it = stats.find(name);
    const bool seen = it != stats.end();
    out.metric(Metric{name + ".self_pct",
                      seen && busy > 0.0 ? 100.0 * it->second.self_s / busy
                                         : 0.0,
                      "%"});
    out.metric(Metric{name + ".calls",
                      seen ? static_cast<double>(it->second.calls) : 0.0,
                      "count"});
  }
  for (const std::string& name : layer_counts()) {
    const auto it = counts.find(name);
    out.metric(Metric{name, it == counts.end() ? 0.0 : it->second, "count"});
  }

  std::ostringstream table;
  table << "self time (traced busy " << busy << " s):\n";
  std::vector<std::pair<std::string, Tracer::Stat>> rows(stats.begin(),
                                                          stats.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  char line[160];
  std::snprintf(line, sizeof line, "  %-28s %10s %10s %7s %8s\n", "span",
                "self_s", "total_s", "self%", "calls");
  table << line;
  for (const auto& [name, st] : rows) {
    std::snprintf(line, sizeof line, "  %-28s %10.4f %10.4f %7.2f %8ld\n",
                  name.c_str(), st.self_s, st.total_s,
                  busy > 0.0 ? 100.0 * st.self_s / busy : 0.0, st.calls);
    table << line;
  }
  out.report += table.str();

  const std::string path = opt.out_dir + "/trace_" + workload + ".json";
  adapex::atomic_write_file(path, tracer.chrome_json());
  out.report += "chrome trace: " + path + "\n";
}

namespace {

struct Workload {
  const char* name;
  Outcome (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"gen-train", run_gen_train},
    {"gen-verify", run_gen_verify},
    {"eval-packed", run_eval_packed},
    {"serve-fleet", run_serve_fleet},
};

/// Runs one workload in a forked child and collects its Outcome through a
/// pipe. A child that dies, or whose workload throws, yields a failed
/// Outcome.
Outcome run_in_child(const Workload& w, const Options& opt) {
  int fds[2];
  if (pipe(fds) != 0) throw adapex::Error("pipe() failed");
  std::cout.flush();
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw adapex::Error("fork() failed");
  if (pid == 0) {
    // The child must not outlive a killed parent.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    Outcome out;
    try {
      out = w.run(opt);
    } catch (const std::exception& e) {
      out.check(false, std::string("workload threw: ") + e.what());
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const Metric rss{"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                     "MB"};
    if (opt.trace) {
      out.detail(rss);
    } else {
      out.metric(rss);
    }
    for (std::vector<Metric>* list : {&out.metrics, &out.details}) {
      for (Metric& m : *list) {
        if (!std::isfinite(m.value)) {
          out.check(false, "metric " + m.name + " is not finite");
          m.value = 0.0;
        }
      }
    }
    const std::string text = out.to_json().dump();
    std::size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[65536];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  Outcome out;
  try {
    out = Outcome::from_json(Json::parse(text));
  } catch (const std::exception&) {
    out.check(false, "child produced no result");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.check(false, "child exited abnormally (status " +
                         std::to_string(status) + ")");
  }
  return out;
}

void print_metric(const Metric& m) {
  char line[256];
  if (m.n > 0) {
    std::snprintf(line, sizeof line,
                  "  %-36s %16.6g %-22s (q1 %.6g, q3 %.6g, n %ld)\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.q1, m.q3, m.n);
  } else {
    std::snprintf(line, sizeof line, "  %-36s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
  }
  std::cout << line;
}

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "bench_adapex: " << msg
            << "\nusage: bench_adapex [--workload NAME]... [--seed N]"
               " [--seconds S] [--trace 0|1] [--out DIR] [--fixture PATH]"
               " [--results PATH] [--commit SHA]\n"
               "       bench_adapex --write-fixture PATH\n"
               "workloads: gen-train gen-verify eval-packed serve-fleet\n";
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  opt.threads = static_cast<int>(std::min(4u, nproc));
  std::vector<const Workload*> selected;
  std::string results;
  std::string commit = "unknown";
  std::string fixture_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        const std::string name = value();
        const auto* it = std::find_if(
            std::begin(kWorkloads), std::end(kWorkloads),
            [&](const Workload& w) { return name == w.name; });
        if (it == std::end(kWorkloads)) usage("unknown workload " + name);
        if (std::find(selected.begin(), selected.end(), it) == selected.end()) {
          selected.push_back(it);
        }
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--out") {
        opt.out_dir = value();
      } else if (arg == "--fixture") {
        opt.fixture = value();
      } else if (arg == "--results") {
        results = value();
      } else if (arg == "--commit") {
        commit = value();
      } else if (arg == "--write-fixture") {
        fixture_out = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }

  // Hermetic configuration: every size and thread count is set in code.
  // ADAPEX_THREADS is pinned to the workload thread count because the
  // generator's reference evaluation reads it; ADAPEX_PACKED and
  // ADAPEX_SCALE are cleared. Every ADAPEX_* variable found is recorded.
  Json env = Json::object();
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("ADAPEX_", 0) == 0) {
      const auto eq = kv.find('=');
      env[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
  }
  setenv("ADAPEX_THREADS", std::to_string(opt.threads).c_str(), 1);
  unsetenv("ADAPEX_PACKED");
  unsetenv("ADAPEX_SCALE");

  if (!fixture_out.empty()) {
    write_fixture(fixture_out, opt.threads);
    std::cout << "wrote " << fixture_out << "\n";
    return 0;
  }
  if (selected.empty()) {
    for (const Workload& w : kWorkloads) selected.push_back(&w);
  }
  std::filesystem::create_directories(opt.out_dir);
  if (results.empty()) results = opt.out_dir + "/benchmark.json";

  Json config = Json::object();
  config["nproc"] = static_cast<double>(nproc);
  config["threads"] = opt.threads;
  config["kernel_isa"] = adapex::kernels::active_isa();
  config["packed_isa"] = adapex::packed::active_isa();
  config["seed"] = static_cast<double>(opt.seed);
  config["seconds"] = opt.seconds;
  config["trace"] = opt.trace;
  config["commit"] = commit;
  config["adapex_env"] = env;
  std::cout << "bench_adapex config: " << config.dump() << "\n";

  Json doc = Json::object();
  doc["config"] = config;
  Json workloads = Json::object();
  Json summary_metrics = Json::object();
  long attempted = 0;
  long failed = 0;
  for (const Workload* w : selected) {
    std::cout << "\n== " << w->name << (opt.trace ? " (traced)" : "")
              << " ==\n";
    std::cout.flush();
    const Outcome out = run_in_child(*w, opt);
    std::cout << "workload config: " << out.config.dump() << "\n";
    std::cout << (opt.trace ? "per-layer metrics:\n" : "end-to-end metrics:\n");
    for (const Metric& m : out.metrics) print_metric(m);
    std::cout << "details:\n";
    for (const Metric& m : out.details) print_metric(m);
    std::cout << out.report;
    std::cout << "checks: " << out.attempted - out.failed << "/"
              << out.attempted << " passed; ops_failed_pct "
              << 100.0 * static_cast<double>(out.failed) /
                     static_cast<double>(std::max(out.attempted, 1L))
              << " % of " << out.attempted << " operations\n";
    for (const std::string& f : out.failures) {
      std::cout << "  FAILED: " << f << "\n";
    }
    attempted += out.attempted;
    failed += out.failed;
    for (const Metric& m : out.metrics) {
      Json v = Json::object();
      v["value"] = m.value;
      v["unit"] = m.unit;
      const std::string key = selected.size() == 1
                                  ? m.name
                                  : std::string(w->name) + "/" + m.name;
      summary_metrics[key] = std::move(v);
    }
    workloads[w->name] = out.to_json();
  }
  doc["workloads"] = workloads;
  adapex::atomic_write_file(results, doc.dump(1));
  std::cout << "\nresults: " << results << "\n";

  const bool correct = failed == 0 && attempted > 0;
  Json line = Json::object();
  line["correct"] = correct;
  line["attempted"] = static_cast<double>(std::max(attempted, 1L));
  line["failed"] = static_cast<double>(correct ? 0 : std::max(failed, 1L));
  line["metrics"] = summary_metrics;
  std::cout << line.dump() << std::endl;
  return correct ? 0 : 1;
}
