// Shared helpers of the pipeline benchmark: clocks, process statistics,
// order statistics, and the result record every workload fills in.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for run artefacts (the span file); created on demand.
  std::string out_dir = ".bench_build/perfbench/out";
};

/// Whole rounds run, and are checked, for this long before the measured
/// rounds start. After the host had idled for a minute, the first rounds
/// of a run scanned at half speed for about four seconds.
constexpr std::uint64_t kWarmupNs = 5'000'000'000;

/// CLOCK_MONOTONIC in ns.
[[nodiscard]] std::uint64_t now_ns() noexcept;
/// CPU time of the calling thread / the whole process, in ns.
[[nodiscard]] std::uint64_t thread_cpu_ns() noexcept;
[[nodiscard]] std::uint64_t process_cpu_ns() noexcept;
/// Current resident set size of this process, in MB (/proc/self/statm).
[[nodiscard]] double rss_mb() noexcept;

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty input.
/// Sorts `v` in place.
[[nodiscard]] double quantile(std::vector<double>& v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(v, 0.5);
}

/// 64-bit mixer (splitmix64 finaliser) used by the order-independent
/// fingerprints the output checks compare.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. `attempted`/`failed` count operations (datagrams
/// on the wire workloads, slices on report-slices); `errors` holds every
/// failed output check.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable accounting lines printed before the JSON result.
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Peak of rss_mb() sampled by the workload's own loops while the program
/// runs: the program's memory plus the corpus it is fed (fixed in size).
/// start() first hands the corpus preparation's freed memory back to the
/// system, so that garbage does not count.
class RssWatch {
 public:
  void start();
  void sample() {
    const double r = rss_mb();
    if (r > peak_) peak_ = r;
  }
  [[nodiscard]] double peak() const { return peak_; }

 private:
  double peak_ = 0;
};

}  // namespace perfbench
