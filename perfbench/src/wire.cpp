// The two wire workloads. Each round builds the whole deployed pipeline
// (registry, Table 1 monitors, stream windows, sharded daemon, wire plane),
// replays the corpus over loopback UDP, flushes, checks the outputs and
// tears everything down; rounds repeat until --seconds have passed.
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "analysis/app_filter.hpp"
#include "analysis/table1_dsl.hpp"
#include "filter/monitor.hpp"
#include "filter/plan.hpp"
#include "flow/trace_file.hpp"
#include "obs/metrics.hpp"
#include "runtime/sharded_daemon.hpp"
#include "runtime/wire_plane.hpp"
#include "spans.hpp"
#include "stream/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace flow = lockdown::flow;
namespace filter = lockdown::filter;
namespace stream = lockdown::stream;
namespace runtime = lockdown::runtime;
namespace analysis = lockdown::analysis;
namespace obs = lockdown::obs;
namespace net = lockdown::net;

namespace {

// --- workload definitions -------------------------------------------------

struct WireWorkload {
  const char* name;
  WireCorpusSpec corpus;
  std::size_t lanes;
  std::size_t shards;
  bool anonymize;
  /// Monitoring objects routed next to the nine Table 1 classes.
  std::vector<std::pair<std::string, std::string>> extra_monitors;
  std::int64_t window_seconds;
  stream::KeyTuple window_key;
  std::optional<stream::MavgConfig> mavg;
  /// Closed loop: datagrams sent but not yet decoded, at most.
  std::size_t in_flight_window;
  /// Open loop: constant offered rate in datagrams/s (0 = closed loop).
  double offered_datagrams_per_s;
};

const net::Date kWireDay(2020, 3, 25);

WireWorkload ipfix_workload() {
  return {
      .name = "wire-ipfix",
      .corpus = {.vantage = lockdown::synth::VantagePointId::kIxpCe,
                 .protocol = flow::ExportProtocol::kIpfix,
                 .range = net::TimeRange::day_of(kWireDay),
                 .connections_per_hour = 6000,
                 .exporters = 8,
                 .sockets = 4},
      .lanes = 1,
      .shards = 2,
      .anonymize = true,
      .extra_monitors = {},
      .window_seconds = 300,
      .window_key = {},
      .mavg = std::nullopt,
      .in_flight_window = 1024,
      .offered_datagrams_per_s = 0,
  };
}

WireWorkload v9_workload() {
  return {
      .name = "wire-v9-paced",
      .corpus = {.vantage = lockdown::synth::VantagePointId::kMobileCe,
                 .protocol = flow::ExportProtocol::kNetflowV9,
                 .range = net::TimeRange::day_of(kWireDay),
                 .connections_per_hour = 6000,
                 .exporters = 8,
                 .sockets = 4},
      .lanes = 2,
      .shards = 1,
      .anonymize = false,
      .extra_monitors = {{"dns", "proto udp and port 53"},
                         {"web_any", "proto tcp and port 443,80 or proto udp and port 443"},
                         {"hypergiant", "asn 15169,20940,2906,32934,13335"}},
      .window_seconds = 300,
      .window_key = {stream::KeyField::kDstAs, stream::KeyField::kService},
      .mavg = stream::MavgConfig{.k = 4, .metric = stream::MavgMetric::kBytes,
                                 .overlimit = 1.5, .underlimit = 0.5},
      .in_flight_window = 0,
      .offered_datagrams_per_s = 10000,
  };
}

std::vector<std::pair<std::string, std::string>> monitor_definitions(
    const WireWorkload& w) {
  std::vector<std::pair<std::string, std::string>> defs;
  const auto classifier = analysis::AppClassifier::table1();
  for (const auto& d : analysis::dsl_monitor_definitions(classifier)) {
    defs.emplace_back(d.name, d.expression);
  }
  defs.insert(defs.end(), w.extra_monitors.begin(), w.extra_monitors.end());
  return defs;
}

// --- expected outputs, computed apart from the pipeline -------------------

struct Totals {
  std::uint64_t flows = 0, bytes = 0, packets = 0;
  friend bool operator==(const Totals&, const Totals&) = default;
};

struct Expected {
  std::vector<flow::FlowRecord> fed;  ///< the records routing should see
  MultisetPrint print;
  std::vector<std::string> names;
  std::vector<Totals> per_object;
};

/// Common-prefix length of two equal-family addresses, in bits.
int common_prefix(const net::IpAddress& a, const net::IpAddress& b) {
  if (a.is_v4()) {
    const std::uint32_t x = a.v4().value() ^ b.v4().value();
    return x == 0 ? 32 : __builtin_clz(x);
  }
  const std::uint64_t hi = a.v6().high() ^ b.v6().high();
  if (hi != 0) return __builtin_clzll(hi);
  const std::uint64_t lo = a.v6().low() ^ b.v6().low();
  return lo == 0 ? 128 : 64 + __builtin_clzll(lo);
}

/// Build the address map the anonymizer applies to the corpus and check
/// its defining properties: one-to-one, and common prefix lengths kept
/// (adjacent pairs in address order plus a seeded sample of random pairs).
std::unordered_map<net::IpAddress, net::IpAddress, net::IpAddressHash>
checked_address_map(const std::vector<flow::FlowRecord>& records,
                    std::uint64_t seed, Result& result) {
  std::set<net::IpAddress> raw;
  for (const auto& r : records) {
    raw.insert(r.src_addr);
    raw.insert(r.dst_addr);
  }
  std::unordered_map<net::IpAddress, net::IpAddress, net::IpAddressHash> map;
  std::set<net::IpAddress> images;
  for (const auto& a : raw) {
    const net::IpAddress b = collector_anonymizer().anonymize(a);
    map.emplace(a, b);
    images.insert(b);
    result.check(b.is_v4() == a.is_v4(), "anonymizer changed address family");
  }
  result.check(images.size() == raw.size(), "anonymizer is not one-to-one");
  const std::vector<net::IpAddress> sorted(raw.begin(), raw.end());
  std::size_t bad = 0;
  auto check_pair = [&](const net::IpAddress& x, const net::IpAddress& y) {
    if (x.is_v4() != y.is_v4()) return;
    if (common_prefix(x, y) != common_prefix(map.at(x), map.at(y))) ++bad;
  };
  for (std::size_t i = 1; i < sorted.size(); ++i) check_pair(sorted[i - 1], sorted[i]);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < 100000 && !sorted.empty(); ++i) {
    s = mix64(s);
    const auto& x = sorted[s % sorted.size()];
    s = mix64(s);
    check_pair(x, sorted[s % sorted.size()]);
  }
  result.check(bad == 0, "anonymizer breaks common prefix length on " +
                             std::to_string(bad) + " address pairs");
  return map;
}

Expected expected_outputs(const WireWorkload& w, const WireCorpus& corpus,
                          std::uint64_t seed, Result& result) {
  Expected e;
  e.fed = corpus.records;
  if (w.anonymize) {
    const auto map = checked_address_map(corpus.records, seed, result);
    for (auto& r : e.fed) {
      r.src_addr = map.at(r.src_addr);
      r.dst_addr = map.at(r.dst_addr);
    }
  }
  for (const auto& r : e.fed) e.print.add(r);
  for (const auto& [name, expr] : monitor_definitions(w)) {
    const auto f = filter::CompiledFilter::compile(expr, &registry().trie());
    Totals t;
    for (const auto& r : e.fed) {
      if (!f.match_reference(r)) continue;
      ++t.flows;
      t.bytes += r.bytes;
      t.packets += r.packets;
    }
    e.names.push_back(name);
    e.per_object.push_back(t);
  }
  return e;
}

// --- datagram identity for the routing lag ---------------------------------

/// Maps a routed batch back to its datagram via the first record's key.
/// Datagrams whose first records share a key are taken in send order.
class DatagramIndex {
 public:
  explicit DatagramIndex(const WireCorpus& c) {
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> groups;
    for (std::uint32_t d = 0; d < c.first_key.size(); ++d) {
      if (c.first_key[d] != 0) groups[c.first_key[d]].push_back(d);
    }
    ids_.reserve(c.first_key.size());
    for (auto& [key, list] : groups) {
      slots_.emplace(key, Slot{static_cast<std::uint32_t>(ids_.size()),
                               static_cast<std::uint32_t>(list.size())});
      ids_.insert(ids_.end(), list.begin(), list.end());
    }
    cursor_ = std::make_unique<std::atomic<std::uint32_t>[]>(ids_.size() + 1);
  }

  void reset() {
    for (std::size_t i = 0; i <= ids_.size(); ++i) cursor_[i].store(0);
  }

  /// Datagram index of a routed batch, or -1 when unknown.
  [[nodiscard]] long long find(const flow::FlowRecord& first) {
    const auto it = slots_.find(record_key(first) | 1);
    if (it == slots_.end()) return -1;
    const std::uint32_t k =
        cursor_[it->second.begin].fetch_add(1, std::memory_order_relaxed);
    if (k >= it->second.size) return -1;
    return ids_[it->second.begin + k];
  }

 private:
  struct Slot {
    std::uint32_t begin;
    std::uint32_t size;
  };
  std::unordered_map<std::uint64_t, Slot> slots_;
  std::vector<std::uint32_t> ids_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> cursor_;
};

// --- the sender ------------------------------------------------------------

class Sender {
 public:
  Sender(std::uint16_t port, std::size_t sockets) {
    sockaddr_in to{};
    to.sin_family = AF_INET;
    to.sin_port = htons(port);
    to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (std::size_t i = 0; i < sockets; ++i) {
      const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
      if (fd < 0 ||
          ::connect(fd, reinterpret_cast<const sockaddr*>(&to), sizeof(to)) != 0) {
        if (fd >= 0) ::close(fd);
        throw std::runtime_error("cannot open a sender socket");
      }
      const int sndbuf = 4 << 20;
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
      fds_.push_back(fd);
    }
  }
  ~Sender() {
    for (const int fd : fds_) ::close(fd);
  }
  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  /// Send datagrams [begin, end) of `c`, grouping runs that share a
  /// socket into one sendmmsg. Returns how many the kernel accepted.
  std::size_t send(const WireCorpus& c, std::size_t begin, std::size_t end) {
    Span span("gen.send");
    std::size_t sent = 0;
    std::size_t i = begin;
    while (i < end) {
      const std::uint8_t sock = c.socket_of[i];
      std::size_t n = 0;
      while (i + n < end && n < kBatch && c.socket_of[i + n] == sock) {
        const auto p = c.datagrams.packet(i + n);
        iov_[n] = {const_cast<std::uint8_t*>(p.data()), p.size()};
        std::memset(&msgs_[n], 0, sizeof(mmsghdr));
        msgs_[n].msg_hdr.msg_iov = &iov_[n];
        msgs_[n].msg_hdr.msg_iovlen = 1;
        ++n;
      }
      std::size_t done = 0;
      const std::uint64_t t0 = now_ns();
      while (done < n) {
        const int r = ::sendmmsg(fds_[sock], msgs_ + done,
                                 static_cast<unsigned>(n - done), 0);
        if (r <= 0) break;
        done += static_cast<std::size_t>(r);
      }
      send_ns_ += now_ns() - t0;
      sent += done;
      if (done < n) break;
      i += n;
    }
    return sent;
  }

  /// Wall time spent inside sendmmsg.
  [[nodiscard]] std::uint64_t send_ns() const noexcept { return send_ns_; }

 private:
  static constexpr std::size_t kBatch = 32;
  std::vector<int> fds_;
  iovec iov_[kBatch];
  mmsghdr msgs_[kBatch];
  std::uint64_t send_ns_ = 0;
};

void sleep_until_ns(std::uint64_t t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / 1000000000ULL);
  ts.tv_nsec = static_cast<long>(t % 1000000000ULL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

double histogram_p50(const obs::RegistrySnapshot& snap, const std::string& labels) {
  for (const auto& h : snap.histograms) {
    if (h.name != "pipeline_stage_latency_ms" || h.labels != labels) continue;
    if (h.count == 0) return 0;
    const double want = 0.5 * static_cast<double>(h.count);
    double lower = 0;
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (static_cast<double>(h.cumulative[i]) >= want) {
        const double in = static_cast<double>(h.cumulative[i] - below);
        return lower + (h.bounds[i] - lower) *
                           (want - static_cast<double>(below)) / in;
      }
      lower = h.bounds[i];
      below = h.cumulative[i];
    }
    return h.bounds.empty() ? 0 : h.bounds.back();
  }
  return 0;
}

// --- one round ---------------------------------------------------------------

struct RoundStats {
  double setup_s = 0;
  double wall_s = 0;           ///< first send -> flush() returned
  double program_cpu_s = 0;    ///< process CPU minus the sender's own
  double flush_ms = 0;
  double poll_ms = 0;
  std::uint64_t sent = 0;
  std::uint64_t records = 0;
  double shard_skew = 0;
  double arena_reuse = 0;
  std::uint64_t ring_high_water = 0;
  std::uint64_t ring_drops = 0;
  std::uint64_t kernel_drops = 0;
  std::uint64_t malformed = 0;
  std::uint64_t sequence_lost = 0;
  std::uint64_t decoded = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t plane_datagrams = 0;
  std::uint64_t windows = 0;
  std::uint64_t window_rows = 0;
  std::uint64_t route_calls = 0;
  std::uint64_t route_cpu_ns = 0;
  double route_stage_p50 = 0;
  double spool_stage_p50 = 0;
  double slice_bytes = 0;
  std::uint64_t send_ns = 0;
  double lag_p50 = 0;  ///< routing lag quantiles over this round's datagrams
  double lag_p95 = 0;
};

class WireRunner {
 public:
  WireRunner(const WireWorkload& w, const WireCorpus& c, const Expected& e,
             bool trace, std::string slice_dir)
      : w_(w), c_(c), e_(e), trace_(trace), index_(c),
        lag_ns_(c.datagrams.size()), due_ns_(c.datagrams.size()),
        slice_dir_(std::move(slice_dir)) {}

  /// One round. With `setup_only` the pipeline is built and torn down
  /// without traffic (extra set-up samples).
  RoundStats round(Result& result, RssWatch& rss, std::vector<double>& lateness_ms,
                   bool setup_only = false) {
    RoundStats s;
    index_.reset();
    std::fill(lag_ns_.begin(), lag_ns_.end(), 0);
    routed_.store(0);
    route_calls_.store(0);
    route_cpu_ns_.store(0);
    slices_.clear();
    slice_write_failed_ = false;
    window_sums_.clear();
    window_rows_ = 0;
    windows_ = 0;
    row_mismatch_ = 0;

    const std::uint64_t t_setup = now_ns();
    obs::Registry reg;
    filter::MonitorSet monitors(&registry().trie());
    {
      Span span("filter.compile");
      for (const auto& [name, expr] : monitor_definitions(w_)) {
        monitors.add(name, expr);
      }
    }
    std::optional<stream::StreamMonitor> streamer;
    {
      Span span("stream.attach");
      stream::StreamConfig scfg;
      scfg.window.window_seconds = w_.window_seconds;
      scfg.window.key = w_.window_key;
      scfg.mavg = w_.mavg;
      streamer.emplace(monitors, scfg);
      streamer->set_window_sink(
          [this](const stream::ObjectStream& os, const stream::WindowResult& r) {
            on_window(os, r);
          });
      // Threshold events still bump their counters; this only keeps the
      // default log line off standard error.
      streamer->set_event_sink(
          [](const stream::ObjectStream&, const stream::MavgEvent&) {});
      monitors.bind_metrics(reg);
      streamer->bind_metrics(reg);
    }
    runtime::ShardedDaemonConfig dcfg;
    dcfg.protocol = c_.spec.protocol;
    dcfg.shards = w_.shards;
    dcfg.rotation_seconds = 300;
    dcfg.anonymizer = w_.anonymize ? &collector_anonymizer() : nullptr;
    dcfg.wire_lanes = w_.lanes;
    dcfg.metrics = &reg;
    dcfg.batch_observer = [this, &monitors](std::span<const flow::FlowRecord> b) {
      on_batch(monitors, b);
    };
    std::optional<runtime::ShardedCollectorDaemon> daemon;
    std::unique_ptr<runtime::WirePlane> plane;
    {
      Span span("runtime.start");
      // Slices go to files, as a deployed collector spools them.
      daemon.emplace(dcfg, [this](flow::TraceSlice&& slice) {
        Span cb("cb.slice_sink");
        const std::lock_guard<std::mutex> lock(slice_mu_);
        const std::string path =
            slice_dir_ + "/slice-" + std::to_string(slices_.size()) + ".lft";
        std::FILE* f = std::fopen(path.c_str(), "wb");
        bool ok = f != nullptr && std::fwrite(slice.image.data(), 1, slice.image.size(),
                                              f) == slice.image.size();
        if (f != nullptr) ok = std::fclose(f) == 0 && ok;
        if (!ok) slice_write_failed_ = true;
        slices_.push_back(path);
      });
    }
    {
      Span span("net.start");
      runtime::WirePlaneConfig pcfg;
      pcfg.lanes = w_.lanes;
      pcfg.rcvbuf_bytes = 4 << 20;
      pcfg.metrics = &reg;
      plane = runtime::WirePlane::create(pcfg, *daemon);
    }
    if (!plane) throw std::runtime_error("cannot bind the wire-plane sockets");
    Sender sender(plane->port(), c_.spec.sockets);
    s.setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;
    if (setup_only) return s;

    // --- measured window: first send -> flush() returned ---------------
    const std::size_t n = c_.datagrams.size();
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t sender_cpu0 = thread_cpu_ns();
    std::uint64_t poll_cpu = 0;
    std::uint64_t poll_wall = 0;
    const std::uint64_t t0 = now_ns();
    std::uint64_t next_poll = t0;
    auto maybe_poll = [&](std::uint64_t now) {
      if (now < next_poll) return;
      next_poll = now + 10'000'000;  // every 10 ms of wall time
      rss.sample();
      Span span("stream.poll");
      const std::uint64_t c0 = thread_cpu_ns();
      const std::uint64_t w0 = now_ns();
      (void)streamer->poll();
      poll_wall += now_ns() - w0;
      poll_cpu += thread_cpu_ns() - c0;
    };
    auto delivered = [&] {
      Span span("runtime.engine_snapshot");
      const auto e = daemon->engine_snapshot();
      return e.datagrams + e.dropped + plane->kernel_drops();
    };
    std::size_t next = 0;
    bool stalled = false;
    if (w_.offered_datagrams_per_s <= 0) {
      // Closed loop: keep at most in_flight_window datagrams undelivered.
      std::uint64_t done = 0;
      std::uint64_t last_progress = t0;
      while (next < n) {
        const std::uint64_t now = now_ns();
        maybe_poll(now);
        if (next - done >= w_.in_flight_window) {
          const std::uint64_t d = delivered();
          if (d > done) {
            done = d;
            last_progress = now;
          } else if (now - last_progress > kStallNs) {
            stalled = true;
            break;
          }
          if (next - done >= w_.in_flight_window) {
            pause();
            continue;
          }
        }
        const std::size_t room = w_.in_flight_window - (next - done);
        const std::size_t end = std::min(n, next + std::min<std::size_t>(64, room));
        const std::uint64_t send_at = now_ns();
        for (std::size_t d = next; d < end; ++d) due_ns_[d] = send_at;
        const std::size_t want = end - next;
        const std::size_t sent = sender.send(c_, next, end);
        next += sent;
        if (sent < want) break;  // the kernel refused a datagram
      }
    } else {
      // Open loop: datagram d is due at t0 + d / rate, whatever happened
      // before; lateness is how far behind schedule the sender ran.
      const double step_ns = 1e9 / w_.offered_datagrams_per_s;
      while (next < n) {
        const std::uint64_t now = now_ns();
        maybe_poll(now);
        const auto due_of = [&](std::size_t d) {
          return t0 + static_cast<std::uint64_t>(static_cast<double>(d) * step_ns);
        };
        if (due_of(next) > now) {
          sleep_until_ns(std::min(due_of(next), next_poll));
          continue;
        }
        std::size_t end = next;
        while (end < n && end - next < 64 && due_of(end) <= now) ++end;
        const std::uint64_t send_at = now_ns();
        for (std::size_t d = next; d < end; ++d) {
          due_ns_[d] = due_of(d);
          lateness_ms.push_back(static_cast<double>(send_at - due_ns_[d]) / 1e6);
        }
        const std::size_t want = end - next;
        const std::size_t sent = sender.send(c_, next, end);
        next += sent;
        if (sent < want) break;  // the kernel refused a datagram
      }
    }
    s.sent = next;
    if (!stalled && !wait_progress(delivered, next)) stalled = true;
    result.check(!stalled, std::string(w_.name) + ": pipeline stopped making progress");
    {
      Span span("net.stop");
      plane->stop();
    }
    {
      Span span("runtime.flush");
      const std::uint64_t f0 = now_ns();
      daemon->flush();
      s.flush_ms = static_cast<double>(now_ns() - f0) / 1e6;
    }
    const std::uint64_t t1 = now_ns();
    rss.sample();
    const std::uint64_t sender_cpu = thread_cpu_ns() - sender_cpu0 - poll_cpu;
    s.wall_s = static_cast<double>(t1 - t0) / 1e9;
    s.program_cpu_s =
        static_cast<double>(process_cpu_ns() - cpu0 - sender_cpu) / 1e9;
    {
      Span span("stream.flush");
      streamer->flush();
      const std::uint64_t w0 = now_ns();
      (void)streamer->poll();
      poll_wall += now_ns() - w0;
    }
    s.poll_ms = static_cast<double>(poll_wall) / 1e6;
    s.send_ns = sender.send_ns();

    // --- counters --------------------------------------------------------
    const auto engine = daemon->engine_snapshot();
    const auto wire = daemon->wire_stats();
    const auto arena = daemon->arena_stats();
    s.records = daemon->records_spooled();
    s.ring_high_water = engine.queue_high_water;
    s.ring_drops = engine.dropped;
    s.kernel_drops = plane->kernel_drops();
    s.malformed = engine.malformed;
    s.sequence_lost = wire.sequence_lost;
    s.decoded = engine.datagrams - engine.malformed;
    s.syscalls = plane->syscalls();
    s.plane_datagrams = plane->datagrams();
    double max_shard = 0, sum_shard = 0;
    for (const auto& sh : engine.shards) {
      max_shard = std::max(max_shard, static_cast<double>(sh.records));
      sum_shard += static_cast<double>(sh.records);
    }
    s.shard_skew = sum_shard > 0 ? max_shard * static_cast<double>(engine.shards.size()) / sum_shard : 0;
    s.arena_reuse = arena.acquired > 0 ? static_cast<double>(arena.reused) /
                                             static_cast<double>(arena.acquired)
                                       : 0;
    const auto snap = reg.snapshot();
    s.route_stage_p50 = histogram_p50(snap, "stage=\"route\"");
    s.spool_stage_p50 = histogram_p50(snap, "stage=\"spool\"");
    s.windows = windows_;
    s.window_rows = window_rows_;
    s.route_calls = route_calls_.load();
    s.route_cpu_ns = route_cpu_ns_.load();
    std::vector<double> lags_ms;
    lags_ms.reserve(s.sent);
    for (std::size_t d = 0; d < s.sent; ++d) {
      if (lag_ns_[d] > due_ns_[d]) {
        lags_ms.push_back(static_cast<double>(lag_ns_[d] - due_ns_[d]) / 1e6);
      }
    }
    s.lag_p50 = quantile(lags_ms, 0.5);
    s.lag_p95 = quantile(lags_ms, 0.95);

    check_round(s, monitors, result);
    return s;
  }

 private:
  static constexpr std::uint64_t kStallNs = 10'000'000'000ULL;

  static void pause() {
    timespec ts{0, 50'000};
    nanosleep(&ts, nullptr);
  }

  /// Wait until `delivered()` reaches `target`; false after kStallNs
  /// without progress.
  template <typename Delivered>
  static bool wait_progress(Delivered& delivered, std::uint64_t target) {
    std::uint64_t seen = delivered();
    std::uint64_t last_progress = now_ns();
    while (seen < target) {
      pause();
      const std::uint64_t d = delivered();
      if (d > seen) {
        seen = d;
        last_progress = now_ns();
      } else if (now_ns() - last_progress > kStallNs) {
        return false;
      }
    }
    return true;
  }

  void on_batch(filter::MonitorSet& monitors, std::span<const flow::FlowRecord> b) {
    if (b.empty()) return;
    Span cb("cb.batch_observer");
    const std::uint64_t t = now_ns();
    const long long d = index_.find(b.front());
    if (d >= 0) lag_ns_[static_cast<std::size_t>(d)] = t;
    routed_.fetch_add(b.size(), std::memory_order_relaxed);
    if (trace_) {
      Span span("filter.route_batch");
      const std::uint64_t c0 = thread_cpu_ns();
      monitors.route_batch(b);
      route_cpu_ns_.fetch_add(thread_cpu_ns() - c0, std::memory_order_relaxed);
      route_calls_.fetch_add(1, std::memory_order_relaxed);
    } else {
      monitors.route_batch(b);
    }
  }

  void on_window(const stream::ObjectStream& os, const stream::WindowResult& r) {
    Span cb("cb.window_sink");
    ++windows_;
    Totals& t = window_sums_[os.name()];
    t.flows += r.total.flows;
    t.bytes += r.total.bytes;
    t.packets += r.total.packets;
    if (!w_.window_key.empty()) {
      Totals rows;
      for (const auto& [key, acc] : r.rows) {
        rows.flows += acc.flows;
        rows.bytes += acc.bytes;
        rows.packets += acc.packets;
      }
      window_rows_ += r.rows.size();
      if (!(rows == Totals{r.total.flows, r.total.bytes, r.total.packets})) {
        ++row_mismatch_;
      }
    }
  }

  void check_round(RoundStats& s, const filter::MonitorSet& monitors,
                   Result& result) {
    const std::string w = w_.name;
    MultisetPrint got;
    std::uint64_t slice_bytes = 0;
    bool truncated = false;
    {
      Span span("flow.read_trace");
      for (const auto& path : slices_) {
        const auto read = flow::read_trace_file(path);
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        if (!ec) slice_bytes += size;
        std::filesystem::remove(path, ec);
        if (!read || read->truncated) {
          truncated = true;
          continue;
        }
        for (const auto& r : read->records) got.add(r);
      }
    }
    s.slice_bytes = static_cast<double>(slice_bytes);
    result.check(!slice_write_failed_, w + ": a slice could not be written");
    result.check(!truncated, w + ": a spooled slice does not decode");
    result.check(got == e_.print,
                 w + ": spooled records differ from the corpus (" +
                     std::to_string(got.count) + " vs " +
                     std::to_string(e_.print.count) + " records)");
    result.check(routed_.load() == e_.fed.size(),
                 w + ": routing saw " + std::to_string(routed_.load()) +
                     " records, corpus has " + std::to_string(e_.fed.size()));
    for (std::size_t i = 0; i < e_.names.size(); ++i) {
      const auto* obj = monitors.find(e_.names[i]);
      const Totals got_t = obj ? Totals{obj->flows(), obj->bytes(), obj->packets()}
                               : Totals{};
      result.check(got_t == e_.per_object[i],
                   w + ": monitor " + e_.names[i] + " totals differ from the reference");
      const auto it = window_sums_.find(e_.names[i]);
      const Totals win = it == window_sums_.end() ? Totals{} : it->second;
      result.check(win == got_t,
                   w + ": windows of " + e_.names[i] + " do not add up to its totals");
    }
    result.check(row_mismatch_ == 0,
                 w + ": keyed rows do not add up in " + std::to_string(row_mismatch_) +
                     " windows");
  }

  const WireWorkload& w_;
  const WireCorpus& c_;
  const Expected& e_;
  bool trace_;
  DatagramIndex index_;
  std::vector<std::uint64_t> lag_ns_;
  std::vector<std::uint64_t> due_ns_;
  std::atomic<std::uint64_t> routed_{0};
  std::atomic<std::uint64_t> route_calls_{0};
  std::atomic<std::uint64_t> route_cpu_ns_{0};
  std::string slice_dir_;
  std::mutex slice_mu_;
  std::vector<std::string> slices_;  ///< files written this round
  bool slice_write_failed_ = false;
  std::map<std::string, Totals> window_sums_;
  std::uint64_t windows_ = 0;
  std::uint64_t window_rows_ = 0;
  std::uint64_t row_mismatch_ = 0;
};

// --- the run -----------------------------------------------------------------

constexpr int kExtraSetups = 20;

template <typename F>
double median_of(const std::vector<RoundStats>& rounds, F f) {
  std::vector<double> v;
  for (const auto& r : rounds) v.push_back(f(r));
  return median(v);
}

void run_wire(const WireWorkload& w, const Args& args, Result& result) {
  const WireCorpus corpus = make_wire_corpus(w.corpus, args.seed);
  const Expected expected = expected_outputs(w, corpus, args.seed, result);
  if (!result.errors.empty()) return;

  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string slice_dir = args.out_dir + "/slices-" + w.name;
  ::mkdir(slice_dir.c_str(), 0755);
  WireRunner runner(w, corpus, expected, args.trace, slice_dir);
  RssWatch rss;
  rss.start();
  std::vector<RoundStats> rounds;
  std::vector<double> lateness_ms;
  {
    std::vector<double> warm_lateness_ms;
    const std::uint64_t warm_end = now_ns() + kWarmupNs;
    do {
      (void)runner.round(result, rss, warm_lateness_ms);
    } while (result.errors.empty() && now_ns() < warm_end);
  }
  const std::uint64_t cpu0 = process_cpu_ns();
  // Set-up alone is a millisecond: sample it on extra builds as well.
  std::vector<double> setup_s;
  for (int i = 0; i < kExtraSetups; ++i) {
    setup_s.push_back(runner.round(result, rss, lateness_ms, true).setup_s);
  }
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(args.seconds * 1e9);
  while (rounds.size() < 3 || now_ns() - start < budget) {
    rounds.push_back(runner.round(result, rss, lateness_ms));
    setup_s.push_back(rounds.back().setup_s);
    if (!result.errors.empty()) break;
  }
  const double cpu_s = static_cast<double>(process_cpu_ns() - cpu0) / 1e9;

  std::uint64_t sent = 0, decoded = 0, kernel = 0, ring = 0, malformed = 0,
                seq = 0, records = 0;
  for (const auto& r : rounds) {
    sent += r.sent;
    decoded += r.decoded;
    kernel += r.kernel_drops;
    ring += r.ring_drops;
    malformed += r.malformed;
    seq += r.sequence_lost;
    records += r.records;
  }
  result.attempted += corpus.datagrams.size() * rounds.size();
  result.failed += corpus.datagrams.size() * rounds.size() - decoded;
  result.notes.push_back(
      std::string(w.name) + ": corpus " + std::to_string(corpus.records.size()) +
      " records in " + std::to_string(corpus.datagrams.size()) + " datagrams from " +
      std::to_string(w.corpus.exporters) + " exporters over " +
      std::to_string(w.corpus.sockets) + " sockets");
  result.notes.push_back(
      std::string(w.name) + ": " + std::to_string(rounds.size()) + " rounds, datagrams sent " +
      std::to_string(sent) + ", decoded " + std::to_string(decoded) + ", records spooled " +
      std::to_string(records) + ", kernel drops " + std::to_string(kernel) +
      ", ring drops " + std::to_string(ring) + ", sequence lost " + std::to_string(seq) +
      ", malformed " + std::to_string(malformed));

  result.e2e("setup_s", median(setup_s), "s");
  result.e2e("rec_per_s", median_of(rounds, [](const RoundStats& r) {
               return static_cast<double>(r.records) / r.wall_s;
             }), "records/s");
  result.e2e("rec_per_cpu_s", median_of(rounds, [](const RoundStats& r) {
               return static_cast<double>(r.records) / r.program_cpu_s;
             }), "records/CPU-s");
  // Latency quantiles per round, then the median round: one disturbed
  // round does not move the figure.
  result.e2e("lag_ms_p50", median_of(rounds, [](const RoundStats& r) { return r.lag_p50; }), "ms");
  // The tail is printed but not a metric: host CPU stalls set it.
  result.notes.push_back(
      std::string(w.name) + ": route lag p95 " +
      std::to_string(median_of(rounds, [](const RoundStats& r) { return r.lag_p95; })) +
      " ms (median round)");
  result.e2e("peak_rss_mb", rss.peak(), "MB");

  if (!args.trace) return;
  auto med = [&](auto f) { return median_of(rounds, f); };
  result.layer("net.datagrams_per_syscall", med([](const RoundStats& r) {
                 return r.syscalls ? static_cast<double>(r.plane_datagrams) / r.syscalls : 0.0;
               }), "datagrams");
  result.layer("net.kernel_drops", static_cast<double>(kernel), "count");
  result.layer("runtime.ring_high_water", med([](const RoundStats& r) {
                 return static_cast<double>(r.ring_high_water);
               }), "datagrams");
  result.layer("runtime.ring_drops", static_cast<double>(ring), "count");
  result.layer("runtime.shard_skew", med([](const RoundStats& r) { return r.shard_skew; }), "ratio");
  result.layer("runtime.arena_reuse", med([](const RoundStats& r) { return r.arena_reuse; }), "ratio");
  result.layer("runtime.flush_ms", med([](const RoundStats& r) { return r.flush_ms; }), "ms");
  result.layer("flow.sequence_lost", static_cast<double>(seq), "count");
  result.layer("flow.malformed", static_cast<double>(malformed), "count");
  double slice_bytes = 0;
  std::uint64_t calls = 0, route_ns = 0, windows = 0, rows = 0;
  for (const auto& r : rounds) {
    slice_bytes += r.slice_bytes;
    calls += r.route_calls;
    route_ns += r.route_cpu_ns;
    windows += r.windows;
    rows += r.window_rows;
  }
  result.layer("flow.slice_bytes_per_rec",
               records ? slice_bytes / static_cast<double>(records) : 0, "bytes");
  result.layer("filter.route_ns_per_rec",
               records ? static_cast<double>(route_ns) / static_cast<double>(records) : 0, "ns");
  result.layer("filter.rec_per_route_call",
               calls ? static_cast<double>(records) / static_cast<double>(calls) : 0, "records");
  result.layer("stream.poll_ms", med([](const RoundStats& r) { return r.poll_ms; }), "ms");
  result.layer("stream.windows_emitted", static_cast<double>(windows), "count");
  result.layer("stream.rows_per_window",
               windows ? static_cast<double>(rows) / static_cast<double>(windows) : 0, "rows");
  result.layer("obs.route_stage_ms_p50", med([](const RoundStats& r) { return r.route_stage_p50; }), "ms");
  result.layer("obs.spool_stage_ms_p50", med([](const RoundStats& r) { return r.spool_stage_p50; }), "ms");
  result.layer("gen.lateness_ms_p99", quantile(lateness_ms, 0.99), "ms");
  std::uint64_t send_ns = 0;
  for (const auto& r : rounds) send_ns += r.send_ns;
  result.layer("gen.send_ns_per_datagram",
               sent ? static_cast<double>(send_ns) / static_cast<double>(sent) : 0, "ns");
  result.layer("process.cpu_s", cpu_s, "s");

  layer_walk(corpus, result);
}

}  // namespace

void run_wire_ipfix(const Args& args, Result& result) {
  run_wire(ipfix_workload(), args, result);
}

void run_wire_v9_paced(const Args& args, Result& result) {
  run_wire(v9_workload(), args, result);
}

}  // namespace perfbench
