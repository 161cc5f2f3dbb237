// report-slices: the analyst path. Set-up writes hourly trace slice images
// for two vantage points; each round builds a report per vantage (Table 1
// classifier, compiled monitor filters, a 2-lane ScanEngine), reads every
// slice with flow::read_trace, feeds the engine, finishes and renders the
// figure tables. A slice's lag runs from the start of its read until a scan
// lane has aggregated its last record.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "analysis/scan.hpp"
#include "bundle.hpp"
#include "flow/collector_daemon.hpp"
#include "flow/trace_file.hpp"
#include "spans.hpp"
#include "synth/synthesizer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace flow = lockdown::flow;
namespace net = lockdown::net;
namespace synth = lockdown::synth;
using lockdown::analysis::ScanEngine;

namespace {

// Two lanes plus the reader leave one of four cores to the rest of the
// host: with three lanes every core is busy, and any other load on the
// host stalls a lane for a scheduler slice and shows in the lag.
constexpr unsigned kScanLanes = 2;

struct ReportSpec {
  const char* label;
  synth::VantagePointId vantage;
  std::vector<net::TimeRange> ranges;  ///< what the slices cover
  std::vector<net::TimeRange> weeks;   ///< the analysis weeks
  double connections_per_hour;
};

std::vector<ReportSpec> report_specs() {
  using net::Date;
  using net::TimeRange;
  const TimeRange feb = TimeRange::week_of(Date(2020, 2, 20));
  const TimeRange mar = TimeRange::week_of(Date(2020, 3, 19));
  const TimeRange apr = TimeRange::week_of(Date(2020, 4, 23));
  return {
      {"IXP-CE", synth::VantagePointId::kIxpCe, {feb, mar}, {feb, mar}, 2000},
      {"ISP-CE",
       synth::VantagePointId::kIspCe,
       {TimeRange{net::Timestamp::from_date(Date(2020, 2, 1)),
                  net::Timestamp::from_date(Date(2020, 5, 1))}},
       {feb, mar, apr},
       180},
  };
}

struct SliceSet {
  ReportSpec spec;
  std::vector<std::vector<std::uint8_t>> slices;
  std::vector<std::int64_t> slice_hours;     ///< each slice's aligned start
  std::vector<std::uint64_t> slice_records;  ///< records in each slice
  std::uint64_t records = 0;
  /// Bytes per hour, summed here from the synthesized records.
  std::map<std::int64_t, std::uint64_t> hourly_bytes;
  std::vector<flow::FlowRecord> sample;  ///< records kept for the layer walk
};

SliceSet make_slices(const ReportSpec& spec, std::uint64_t seed, bool keep) {
  SliceSet s{spec, {}, {}, {}, 0, {}, {}};
  const auto vp = synth::build_vantage(spec.vantage, registry(), scenario());
  const synth::FlowSynthesizer gen(
      vp.model, registry(),
      {.connections_per_hour = spec.connections_per_hour,
       .seed_salt = synthesis_salt(seed)});
  std::vector<flow::FlowRecord> records;
  for (const auto& r : spec.ranges) {
    const auto part = gen.collect(r);
    records.insert(records.end(), part.begin(), part.end());
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const flow::FlowRecord& a, const flow::FlowRecord& b) {
                     return a.first < b.first;
                   });
  for (const auto& r : records) {
    const std::int64_t t = r.first.seconds();
    s.hourly_bytes[t - (((t % 3600) + 3600) % 3600)] += r.bytes;
  }
  s.records = records.size();
  flow::SliceSpooler spooler(3600, [&](flow::TraceSlice&& slice) {
    s.slices.push_back(std::move(slice.image));
    s.slice_hours.push_back(slice.begin.seconds());
    s.slice_records.push_back(slice.records);
  });
  for (const auto& r : records) spooler.append(r);
  spooler.flush();
  if (keep) s.sample = std::move(records);
  return s;
}

struct ReportTimes {
  /// Per slice: read start -> its last record aggregated by a lane, ms.
  std::vector<double> slice_ms;
  double read_ns = 0;
  double feed_ns = 0;
  double finish_ns = 0;
  double render_ns = 0;
  std::uint64_t records = 0;
  std::uint64_t slices = 0;
  std::uint64_t truncated = 0;
};

/// Read every slice and scan it on `engine`; returns the rendered tables.
/// `volume_out` receives the hourly series for the check. `clock`, when
/// set, is the one the engine's bundles stamp; the slice lags go to `t`.
std::string run_report(const SliceSet& set, const BundleContext& ctx,
                       ReportTimes& t,
                       std::optional<ScanEngine<FigureBundle>>& engine,
                       lockdown::stats::TimeSeries* volume_out,
                       SliceClock* clock) {
  for (std::size_t i = 0; i < set.slices.size(); ++i) {
    const auto& image = set.slices[i];
    if (clock != nullptr) clock->read_started(i);
    std::uint64_t t0 = now_ns();
    std::optional<flow::TraceReadResult> read;
    {
      Span span("flow.read_trace");
      read = flow::read_trace(image);
    }
    std::uint64_t t1 = now_ns();
    t.read_ns += static_cast<double>(t1 - t0);
    ++t.slices;
    if (!read || read->truncated) {
      ++t.truncated;
      continue;
    }
    t.records += read->records.size();
    {
      Span span("analysis.feed");
      engine->feed(read->records);
    }
    t.feed_ns += static_cast<double>(now_ns() - t1);
  }
  std::uint64_t t0 = now_ns();
  FigureBundle* merged = nullptr;
  {
    Span span("analysis.finish");
    merged = &engine->finish();
  }
  std::uint64_t t1 = now_ns();
  std::string out;
  {
    Span span("analysis.render");
    out = ctx.render(*merged);
  }
  t.finish_ns += static_cast<double>(t1 - t0);
  t.render_ns += static_cast<double>(now_ns() - t1);
  if (volume_out != nullptr) *volume_out = merged->volume.series();
  if (clock != nullptr) clock->lags_ms(t.slice_ms);
  return out;
}

}  // namespace

void run_report_slices(const Args& args, Result& result) {
  std::vector<SliceSet> sets;
  for (const auto& spec : report_specs()) {
    sets.push_back(make_slices(spec, args.seed, args.trace && sets.empty()));
  }
  // One clock per report, built outside the timed set-up: it is the
  // benchmark's instrument, not the program's.
  std::vector<std::unique_ptr<SliceClock>> clocks;
  for (const auto& s : sets) {
    clocks.push_back(std::make_unique<SliceClock>(s.slice_hours, s.slice_records));
  }
  RssWatch rss;
  rss.start();

  std::vector<double> setup_s, rate, cpu_rate, lag_p50, lag_p95;
  ReportTimes total;
  std::uint64_t slices_read = 0, truncated = 0;
  std::vector<std::string> renders(sets.size());
  std::vector<bool> volume_ok(sets.size(), true);
  const auto budget = static_cast<std::uint64_t>(args.seconds * 1e9);
  const std::uint64_t warm_end = now_ns() + kWarmupNs;
  std::uint64_t cpu_start = 0, start = 0;
  std::size_t rounds = 0;
  bool measuring = false;
  while (!measuring || rounds < 3 || now_ns() - start < budget) {
    if (!measuring && now_ns() >= warm_end) {
      measuring = true;
      cpu_start = process_cpu_ns();
      start = now_ns();
    }
    for (auto& c : clocks) c->reset();
    // Set-up: classifier, compiled filters and scan engines for both reports.
    const std::uint64_t s0 = now_ns();
    std::vector<std::unique_ptr<BundleContext>> ctx;
    std::vector<std::optional<ScanEngine<FigureBundle>>> engines(sets.size());
    {
      Span span("analysis.setup");
      for (std::size_t i = 0; i < sets.size(); ++i) {
        ctx.push_back(std::make_unique<BundleContext>(sets[i].spec.weeks));
        const BundleContext* c = ctx.back().get();
        SliceClock* clock = clocks[i].get();
        engines[i].emplace(
            kScanLanes,
            [c, clock] {
              FigureBundle b = c->make();
              b.clock = clock;
              return b;
            },
            c->trie());
      }
    }
    const double setup = static_cast<double>(now_ns() - s0) / 1e9;

    ReportTimes t;
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t t0 = now_ns();
    std::vector<std::string> out(sets.size());
    std::vector<lockdown::stats::TimeSeries> volumes(
        sets.size(), lockdown::stats::TimeSeries(lockdown::stats::Bucket::kHour));
    for (std::size_t i = 0; i < sets.size(); ++i) {
      out[i] = run_report(sets[i], *ctx[i], t, engines[i], &volumes[i], clocks[i].get());
      rss.sample();
    }
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    const double cpu = static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
    if (measuring) {
      ++rounds;
      setup_s.push_back(setup);
      rate.push_back(static_cast<double>(t.records) / wall);
      cpu_rate.push_back(static_cast<double>(t.records) / cpu);
      lag_p50.push_back(quantile(t.slice_ms, 0.5));
      lag_p95.push_back(quantile(t.slice_ms, 0.95));
      total.read_ns += t.read_ns;
      total.feed_ns += t.feed_ns;
      total.finish_ns += t.finish_ns;
      total.render_ns += t.render_ns;
      total.records += t.records;
      slices_read += t.slices;
      truncated += t.truncated;
    }

    // Checks: the hourly series against the per-hour byte sums made at
    // set-up, and every round's tables against the first round's (the
    // 1-lane comparison follows the loop).
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const auto points = volumes[i].points();
      bool ok = points.size() == sets[i].hourly_bytes.size();
      for (const auto& [ts, v] : points) {
        const auto it = sets[i].hourly_bytes.find(ts.seconds());
        ok = ok && it != sets[i].hourly_bytes.end() &&
             v == static_cast<double>(it->second);
      }
      if (!ok) volume_ok[i] = false;
      result.check(clocks[i]->complete(), std::string("report-slices: ") +
                                              sets[i].spec.label +
                                              " lanes did not aggregate every slice in full");
      if (renders[i].empty()) renders[i] = out[i];
      result.check(out[i] == renders[i], std::string("report-slices: ") +
                                             sets[i].spec.label +
                                             " tables differ between rounds");
    }
    if (!result.errors.empty()) break;
  }
  const double run_cpu = static_cast<double>(process_cpu_ns() - cpu_start) / 1e9;

  // 1-lane reference scan of the same slices: tables must be byte-identical.
  double kernel_ns = 0;
  std::uint64_t kernel_records = 0;
  // The scan's wall time runs from the first read to the merged result:
  // the lanes keep working while the reader reads the next slice.
  const double scan_wall_ns = total.read_ns + total.feed_ns + total.finish_ns;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    result.check(volume_ok[i], std::string("report-slices: ") + sets[i].spec.label +
                                   " hourly series differs from the per-hour byte sums");
    BundleContext c(sets[i].spec.weeks);
    std::optional<ScanEngine<FigureBundle>> one;
    one.emplace(1u, [&c] { return c.make(); }, c.trie());
    ReportTimes t;
    const std::string ref = run_report(sets[i], c, t, one, nullptr, nullptr);
    result.check(ref == renders[i], std::string("report-slices: ") + sets[i].spec.label +
                                        " 2-lane tables differ from the 1-lane scan");
    kernel_ns += t.feed_ns + t.finish_ns;
    kernel_records += t.records;
  }

  result.attempted += slices_read;
  result.failed += truncated;
  std::uint64_t records_total = 0;
  for (const auto& s : sets) records_total += s.records;
  result.notes.push_back("report-slices: " + std::to_string(rounds) + " rounds, slices read " +
                         std::to_string(slices_read) + ", truncated " +
                         std::to_string(truncated) + ", records per round " +
                         std::to_string(records_total));

  result.e2e("setup_s", median(setup_s), "s");
  result.e2e("rec_per_s", median(rate), "records/s");
  result.e2e("rec_per_cpu_s", median(cpu_rate), "records/CPU-s");
  // Per-slice latency quantiles per round, then the median round.
  result.e2e("lag_ms_p50", median(lag_p50), "ms");
  // The tail is printed but not a metric: host CPU stalls set it.
  result.notes.push_back("report-slices: slice lag p95 " +
                         std::to_string(median(lag_p95)) + " ms (median round)");
  result.e2e("peak_rss_mb", rss.peak(), "MB");

  if (!args.trace) return;
  const double per_round = 1e6 * static_cast<double>(rounds);
  result.layer("flow.trace_read_ns_per_rec",
               total.records ? total.read_ns / static_cast<double>(total.records) : 0, "ns");
  std::uint64_t image_bytes = 0;
  for (const auto& s : sets) {
    for (const auto& img : s.slices) image_bytes += img.size();
  }
  result.layer("flow.slice_bytes_per_rec",
               static_cast<double>(image_bytes) / static_cast<double>(records_total), "bytes");
  result.layer("analysis.kernel_ns_per_rec",
               kernel_records ? kernel_ns / static_cast<double>(kernel_records) : 0, "ns");
  result.layer("analysis.feed_ms", total.feed_ns / per_round, "ms");
  result.layer("analysis.finish_ms", total.finish_ns / per_round, "ms");
  result.layer("analysis.render_ms", total.render_ns / per_round, "ms");
  result.layer("analysis.lane_efficiency",
               scan_wall_ns > 0 ? kernel_ns * static_cast<double>(rounds) /
                                      (kScanLanes * scan_wall_ns)
                                : 0,
               "ratio");
  result.layer("process.cpu_s", run_cpu, "s");

  // The layer walk replays the first vantage's records as IPFIX export.
  WireCorpusSpec spec{.vantage = sets[0].spec.vantage,
                      .protocol = flow::ExportProtocol::kIpfix,
                      .range = sets[0].spec.ranges.front()};
  const WireCorpus corpus = encode_wire_corpus(spec, std::move(sets[0].sample));
  layer_walk(corpus, result);
}

}  // namespace perfbench
