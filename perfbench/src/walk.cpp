// The traced run's layer walk: one thread replays a corpus prefix through
// each layer's public entry point in turn, so every layer's cost per record
// is measured alone, and the sum is compared with a single-threaded
// CollectorDaemon doing all of it at once.
#include <algorithm>
#include <optional>

#include "analysis/scan.hpp"
#include "analysis/table1_dsl.hpp"
#include "bundle.hpp"
#include "filter/monitor.hpp"
#include "flow/collector_daemon.hpp"
#include "flow/trace_file.hpp"
#include "spans.hpp"
#include "stream/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace flow = lockdown::flow;
namespace filter = lockdown::filter;
namespace stream = lockdown::stream;
namespace analysis = lockdown::analysis;

namespace {

void add_table1(filter::MonitorSet& set) {
  analysis::add_monitor_definitions(
      set, analysis::dsl_monitor_definitions(analysis::AppClassifier::table1()));
}

stream::StreamConfig scalar_windows() {
  stream::StreamConfig c;
  c.window.window_seconds = 300;
  return c;
}

/// Datagrams the walk replays: a prefix of the corpus, enough to measure
/// each layer without the walk dominating the traced run.
constexpr std::size_t kWalkDatagrams = 8192;
/// Each step runs this many times; the fastest pass counts.
constexpr int kPasses = 3;

/// Fastest of kPasses runs of `pass`, which returns its own timed ns.
template <typename Pass>
std::uint64_t fastest(Pass&& pass) {
  std::uint64_t best = UINT64_MAX;
  for (int i = 0; i < kPasses; ++i) best = std::min<std::uint64_t>(best, pass());
  return best;
}

bool has_layer(const Result& r, const std::string& name) {
  return std::any_of(r.per_layer.begin(), r.per_layer.end(),
                     [&](const Metric& m) { return m.name == name; });
}

}  // namespace

void layer_walk(const WireCorpus& c, Result& result) {
  const std::size_t n = std::min(c.datagrams.size(), kWalkDatagrams);
  const auto per_rec = [](std::uint64_t ns, std::size_t records) {
    return records ? static_cast<double>(ns) / static_cast<double>(records) : 0.0;
  };

  // Decode: time a pass with a counting sink, then keep the batches.
  std::size_t decoded = 0;
  const std::uint64_t decode_ns = fastest([&] {
    Span span("walk.decode");
    decoded = 0;
    flow::Collector counting(
        c.spec.protocol,
        flow::Collector::BatchSink(
            [&](std::span<const flow::FlowRecord> b) { decoded += b.size(); }));
    const std::uint64_t t0 = now_ns();
    for (std::size_t d = 0; d < n; ++d) counting.ingest(c.datagrams.packet(d));
    return now_ns() - t0;
  });
  std::vector<flow::FlowRecord> records;
  std::vector<std::size_t> ends;  // batch boundaries, one per datagram
  {
    flow::Collector keep(
        c.spec.protocol,
        flow::Collector::BatchSink([&](std::span<const flow::FlowRecord> b) {
          records.insert(records.end(), b.begin(), b.end());
        }));
    for (std::size_t d = 0; d < n; ++d) {
      keep.ingest(c.datagrams.packet(d));
      ends.push_back(records.size());
    }
  }
  const auto for_each_batch = [&](auto&& fn) {
    std::size_t begin = 0;
    for (const std::size_t end : ends) {
      if (end > begin) {
        fn(std::span<const flow::FlowRecord>(records.data() + begin, end - begin));
      }
      begin = end;
    }
  };

  const std::uint64_t anon_ns = fastest([&] {
    Span span("walk.anonymize");
    std::vector<flow::FlowRecord> copy = records;
    const std::uint64_t t0 = now_ns();
    for (auto& r : copy) collector_anonymizer().anonymize(r);
    return now_ns() - t0;
  });

  const std::uint64_t match_ns = fastest([&] {
    Span span("walk.route");
    filter::MonitorSet set(&registry().trie());
    add_table1(set);
    const std::uint64_t t0 = now_ns();
    for_each_batch([&](std::span<const flow::FlowRecord> b) { set.route_batch(b); });
    return now_ns() - t0;
  });

  const std::uint64_t route_stream_ns = fastest([&] {
    Span span("walk.route_stream");
    filter::MonitorSet set(&registry().trie());
    add_table1(set);
    stream::StreamMonitor streamer(set, scalar_windows());
    const std::uint64_t t0 = now_ns();
    for_each_batch([&](std::span<const flow::FlowRecord> b) { set.route_batch(b); });
    const std::uint64_t ns = now_ns() - t0;
    streamer.flush();
    (void)streamer.poll();
    return ns;
  });

  std::vector<std::vector<std::uint8_t>> slices;
  std::uint64_t slice_bytes = 0;
  const std::uint64_t spool_ns = fastest([&] {
    Span span("walk.spool");
    slices.clear();
    slice_bytes = 0;
    flow::SliceSpooler spooler(300, [&](flow::TraceSlice&& s) {
      slice_bytes += s.image.size();
      slices.push_back(std::move(s.image));
    });
    const std::uint64_t t0 = now_ns();
    for (const auto& r : records) spooler.append(r);
    spooler.flush();
    return now_ns() - t0;
  });

  std::size_t read_records = 0;
  const std::uint64_t read_ns = fastest([&] {
    Span span("walk.read_trace");
    read_records = 0;
    const std::uint64_t t0 = now_ns();
    for (const auto& s : slices) {
      const auto r = flow::read_trace(s);
      if (r) read_records += r->records.size();
    }
    return now_ns() - t0;
  });
  result.check(read_records == records.size(),
               "layer walk: slices read back " + std::to_string(read_records) +
                   " of " + std::to_string(records.size()) + " records");

  // The heatmap needs a base week plus one stage: the corpus's week and
  // the week after it.
  const auto begin = c.spec.range.begin;
  const BundleContext ctx({lockdown::net::TimeRange::week_of(begin.date()),
                           lockdown::net::TimeRange::week_of(begin.plus(7 * 86400).date())});
  const std::uint64_t kernel_ns = fastest([&] {
    Span span("walk.scan");
    std::optional<analysis::ScanEngine<FigureBundle>> engine;
    engine.emplace(1u, [&ctx] { return ctx.make(); }, ctx.trie());
    const std::uint64_t t0 = now_ns();
    engine->feed(records);
    (void)engine->finish();
    return now_ns() - t0;
  });

  // All of it at once: a single-threaded daemon with the anonymizer and
  // the streamed Table 1 monitors as its batch observer.
  std::size_t spooled = 0;
  const std::uint64_t total_ns = fastest([&] {
    Span span("walk.daemon");
    filter::MonitorSet set(&registry().trie());
    add_table1(set);
    stream::StreamMonitor streamer(set, scalar_windows());
    flow::CollectorDaemon daemon(
        {.protocol = c.spec.protocol,
         .rotation_seconds = 300,
         .anonymizer = &collector_anonymizer(),
         .batch_observer = set.batch_sink()},
        [](flow::TraceSlice&&) {});
    const std::uint64_t t0 = now_ns();
    for (std::size_t d = 0; d < n; ++d) daemon.ingest(c.datagrams.packet(d));
    daemon.flush();
    const std::uint64_t ns = now_ns() - t0;
    spooled = daemon.records_spooled();
    return ns;
  });

  const std::size_t rec = records.size();
  const double sum = per_rec(decode_ns, decoded) + per_rec(anon_ns, rec) +
                     per_rec(route_stream_ns, rec) + per_rec(spool_ns, rec);
  const std::vector<Metric> walk = {
      {"flow.decode_ns_per_rec", per_rec(decode_ns, decoded), "ns"},
      {"flow.anonymize_ns_per_rec", per_rec(anon_ns, rec), "ns"},
      {"flow.spool_ns_per_rec", per_rec(spool_ns, rec), "ns"},
      {"flow.slice_bytes_per_rec",
       rec ? static_cast<double>(slice_bytes) / static_cast<double>(rec) : 0, "bytes"},
      {"flow.trace_read_ns_per_rec", per_rec(read_ns, read_records), "ns"},
      {"filter.match_ns_per_rec", per_rec(match_ns, rec), "ns"},
      {"stream.accumulate_ns_per_rec",
       std::max(0.0, per_rec(route_stream_ns, rec) - per_rec(match_ns, rec)), "ns"},
      {"analysis.kernel_ns_per_rec", per_rec(kernel_ns, rec), "ns"},
      {"layers.sum_over_total", spooled ? sum / per_rec(total_ns, spooled) : 0,
       "ratio"},
  };
  // A workload that measured a metric on its own path keeps its figure.
  for (const auto& m : walk) {
    if (!has_layer(result, m.name)) result.per_layer.push_back(m);
  }
}

}  // namespace perfbench
