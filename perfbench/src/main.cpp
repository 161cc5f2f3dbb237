// pipeline_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics; traced runs
// record spans around every call into the program and report the
// per-layer metrics, writing the spans to <out-dir>/spans-<workload>.tsv.
#include <malloc.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {
std::uint64_t clock_ns(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

std::uint64_t thread_cpu_ns() noexcept { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() noexcept { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double rss_mb() noexcept {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) * 4096.0 / (1024.0 * 1024.0);
}

void RssWatch::start() {
  malloc_trim(0);
  peak_ = 0;
  sample();
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

struct Spec {
  const char* name;
  const char* unit;
};

// The order and units BENCHMARK.json lists.
const Spec kEndToEnd[] = {
    {"setup_s", "s"},          {"rec_per_s", "records/s"},
    {"rec_per_cpu_s", "records/CPU-s"}, {"lag_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

const Spec kPerLayer[] = {
    {"net.datagrams_per_syscall", "datagrams"},
    {"net.kernel_drops", "count"},
    {"runtime.ring_high_water", "datagrams"},
    {"runtime.ring_drops", "count"},
    {"runtime.shard_skew", "ratio"},
    {"runtime.arena_reuse", "ratio"},
    {"runtime.flush_ms", "ms"},
    {"flow.decode_ns_per_rec", "ns"},
    {"flow.anonymize_ns_per_rec", "ns"},
    {"flow.spool_ns_per_rec", "ns"},
    {"flow.slice_bytes_per_rec", "bytes"},
    {"flow.trace_read_ns_per_rec", "ns"},
    {"flow.sequence_lost", "count"},
    {"flow.malformed", "count"},
    {"filter.route_ns_per_rec", "ns"},
    {"filter.match_ns_per_rec", "ns"},
    {"filter.rec_per_route_call", "records"},
    {"stream.accumulate_ns_per_rec", "ns"},
    {"stream.poll_ms", "ms"},
    {"stream.windows_emitted", "count"},
    {"stream.rows_per_window", "rows"},
    {"analysis.kernel_ns_per_rec", "ns"},
    {"analysis.feed_ms", "ms"},
    {"analysis.finish_ms", "ms"},
    {"analysis.render_ms", "ms"},
    {"analysis.lane_efficiency", "ratio"},
    {"obs.route_stage_ms_p50", "ms"},
    {"obs.spool_stage_ms_p50", "ms"},
    {"gen.lateness_ms_p99", "ms"},
    {"gen.send_ns_per_datagram", "ns"},
    {"layers.sum_over_total", "ratio"},
    {"process.cpu_s", "s"},
    {"self_ms.gen", "ms"},
    {"self_ms.net", "ms"},
    {"self_ms.runtime", "ms"},
    {"self_ms.flow", "ms"},
    {"self_ms.filter", "ms"},
    {"self_ms.stream", "ms"},
    {"self_ms.analysis", "ms"},
    {"self_ms.cb", "ms"},
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a.workload.empty();
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <std::size_t N>
std::string metrics_json(const Spec (&specs)[N], const std::vector<Metric>& got) {
  std::string out;
  for (const Spec& s : specs) {
    double v = 0;
    for (const Metric& m : got) {
      if (m.name == s.name) v = m.value;
    }
    if (!out.empty()) out += ", ";
    out.append("\"").append(s.name).append("\": {\"value\": ").append(number(v));
    out.append(", \"unit\": \"").append(s.unit).append("\"}");
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: pipeline_bench --workload wire-ipfix|wire-v9-paced|"
                 "report-slices --seed N --seconds S --trace 0|1 [--out-dir D]\n";
    return 2;
  }
  if (args.trace) Spans::enable();
  Result result;
  try {
    if (args.workload == "wire-ipfix") {
      run_wire_ipfix(args, result);
    } else if (args.workload == "wire-v9-paced") {
      run_wire_v9_paced(args, result);
    } else if (args.workload == "report-slices") {
      run_report_slices(args, result);
    } else {
      std::cerr << "unknown workload '" << args.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (args.trace) {
    // The end-to-end figures under tracing, for the tracing overhead.
    std::string e2e = "end-to-end under tracing:";
    for (const Metric& m : result.end_to_end) {
      e2e += " " + m.name + "=" + number(m.value);
    }
    result.notes.push_back(e2e);
    for (const auto& [layer, ms] : Spans::self_ms_by_layer()) {
      result.layer("self_ms." + layer, ms, "ms");
    }
    ::mkdir(args.out_dir.c_str(), 0755);
    const std::string path = args.out_dir + "/spans-" + args.workload + ".tsv";
    const long long n = Spans::write(path);
    result.notes.push_back(n < 0 ? "spans: cannot write " + path
                                 : "spans: " + std::to_string(n) + " -> " + path);
  }
  for (const auto& line : result.notes) std::cout << line << "\n";
  for (const auto& e : result.errors) std::cerr << "CHECK FAILED: " << e << "\n";
  const bool correct = result.errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << (args.trace ? metrics_json(kPerLayer, result.per_layer)
                           : metrics_json(kEndToEnd, result.end_to_end))
            << "}}" << std::endl;
  return correct ? 0 : 1;
}
