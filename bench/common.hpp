// Shared helpers for the experiment benches.
//
// Every bench regenerates one of the paper's tables/figures from the same
// pair of cached libraries (one per dataset). The first bench to run pays
// the generation cost (bench_00_generate_libraries exists to do exactly
// that, and bench binaries sort alphabetically); later benches load the
// cached JSON. Results are printed as aligned tables and also written as
// CSV under results/.

#pragma once

#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/integrity.hpp"
#include "common/table.hpp"
#include "core/adapex.hpp"

namespace adapex::bench {

inline std::string results_dir() {
  const std::string dir = "results";
  std::filesystem::create_directories(dir);
  return dir;
}

/// The generation spec for one of the two evaluation datasets at the
/// environment-selected scale (ADAPEX_SCALE).
inline LibraryGenSpec bench_spec(const SyntheticSpec& dataset) {
  auto spec = make_gen_spec(dataset, ExperimentScale::from_env());
  spec.on_progress = [](const std::string& s) {
    std::cerr << "    [gen] " << s << "\n";
  };
  return spec;
}

/// Loads (or generates) the library for a dataset.
inline Library bench_library(const SyntheticSpec& dataset) {
  return generate_or_load_library(bench_spec(dataset), default_artifact_dir());
}

/// Prints a header naming the paper artifact being regenerated.
inline void print_header(const std::string& id, const std::string& what) {
  std::cout << "\n=== " << id << ": " << what << " ===\n";
  std::cout << "(scale preset: " << ExperimentScale::from_env().name
            << "; shapes reproduce the paper, absolute numbers are at reduced"
               " scale — see EXPERIMENTS.md)\n\n";
}

/// Writes a table to results/<name>.csv (atomic publish: a reader — or a
/// bench killed mid-write — never leaves a torn CSV behind) and prints it.
inline void emit(const TextTable& table, const std::string& name) {
  table.print(std::cout);
  const std::string path = results_dir() + "/" + name + ".csv";
  atomic_write_file(path, table.csv());
  std::cout << "[csv] " << path << "\n";
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace adapex::bench
