// Shared plumbing of the repository benchmark: command-line arguments,
// host timing, sample statistics, seed derivation, and the result report
// whose last line is the one-object JSON summary.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using SteadyTime = std::chrono::steady_clock::time_point;

inline SteadyTime now() { return std::chrono::steady_clock::now(); }

inline double ms_between(SteadyTime a, SteadyTime b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double ns_between(SteadyTime a, SteadyTime b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the daemon socket and replay checkpoints,
  /// relative to the working directory (AF_UNIX paths are short).
  std::string work_dir = ".";
};

/// splitmix64 finalizer: decorrelated per-operation seeds from (seed, k).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t k);

/// Threads every workload uses: the core count, capped at 4 so figures
/// from larger hosts stay comparable.
int bench_threads();

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Nearest-rank percentile (pct in (0, 100]); 0 for an empty sample.
double percentile(std::vector<double> samples, double pct);
double mean(const std::vector<double>& samples);

/// Keeps `value` observable so the computation producing it is not
/// optimized away.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Per-call cost of one steady_clock reading pair, ns — subtracted from
/// per-call timings so cheap calls are not dominated by the clock.
double clock_overhead_ns();

/// Metrics, operation counts, and output checks of one run.
class Report {
 public:
  /// A metric that goes into the final JSON object.
  void metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line (workload-specific names, per-step tables).
  void note(const std::string& line);
  /// Records an output check; a failing check marks the run incorrect.
  bool check(bool ok, const std::string& what);
  /// Counts one operation, failed unless `ok`.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;

  /// Human table, then the JSON object as the very last line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  int reported_failures_ = 0;
};

std::string format_double(double v);

}  // namespace perfbench
