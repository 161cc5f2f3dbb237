#include "corpus.hpp"

#include <stdexcept>

#include "common.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v9.hpp"
#include "synth/synthesizer.hpp"

namespace perfbench {

namespace flow = lockdown::flow;
namespace synth = lockdown::synth;

const synth::AsRegistry& registry() {
  static const synth::AsRegistry reg = synth::AsRegistry::create_default();
  return reg;
}

const flow::Anonymizer& collector_anonymizer() {
  static const flow::Anonymizer a({0x10cd0ULL, 0xeffec7ULL},
                                  flow::AnonymizationMode::kPrefixPreserving);
  return a;
}

synth::ScenarioConfig scenario() {
  synth::ScenarioConfig c;
  c.enterprise_transit = false;
  return c;
}

std::uint64_t synthesis_salt(std::uint64_t seed) noexcept {
  return mix64(seed ^ 0x6c6f636b646f776eULL);
}

namespace {

std::uint64_t addr_hash(const lockdown::net::IpAddress& a) noexcept {
  if (a.is_v4()) return mix64(0x4000000000000000ULL | a.v4().value());
  return mix64(a.v6().high() ^ mix64(a.v6().low()));
}

/// Encode `records` as one export batch of exporter `e` into `out`. A
/// router exports a flow once it has ended, so the export instant follows
/// the newest flow end (NetFlow v9 stamps flow ends relative to it).
std::size_t encode(const WireCorpusSpec& spec, std::size_t e,
                   std::vector<flow::IpfixEncoder>& ipfix,
                   std::vector<flow::NetflowV9Encoder>& v9,
                   std::span<const flow::FlowRecord> records,
                   flow::PacketBatch& out) {
  lockdown::net::Timestamp when = flow::batch_export_time(records);
  for (const auto& r : records) when = std::max(when, r.last.plus(1));
  if (spec.protocol == flow::ExportProtocol::kIpfix) {
    return ipfix[e].encode_batch(records, when, out);
  }
  return v9[e].encode_batch(records, when, out);
}

}  // namespace

std::uint64_t record_key(const flow::FlowRecord& r) noexcept {
  std::uint64_t h = mix64((static_cast<std::uint64_t>(r.src_port) << 48) |
                          (static_cast<std::uint64_t>(r.dst_port) << 32) |
                          (static_cast<std::uint64_t>(r.protocol) << 24) |
                          (static_cast<std::uint64_t>(r.tcp_flags) << 16) |
                          r.input_if);
  h = mix64(h ^ r.bytes);
  h = mix64(h ^ r.packets);
  h = mix64(h ^ static_cast<std::uint64_t>(r.first.seconds()));
  h = mix64(h ^ static_cast<std::uint64_t>(r.last.seconds()));
  h = mix64(h ^ ((static_cast<std::uint64_t>(r.output_if) << 32) |
                 r.src_as.value()));
  return mix64(h ^ r.dst_as.value());
}

std::uint64_t record_hash(const flow::FlowRecord& r) noexcept {
  return mix64(record_key(r) ^ addr_hash(r.src_addr) ^
               mix64(addr_hash(r.dst_addr) + 1));
}

void MultisetPrint::add(const flow::FlowRecord& r) noexcept {
  const std::uint64_t h = record_hash(r);
  ++count;
  sum_a += h;
  sum_b += mix64(h ^ 0xa5a5a5a5a5a5a5a5ULL);
}

WireCorpus make_wire_corpus(const WireCorpusSpec& spec, std::uint64_t seed) {
  const auto vp = synth::build_vantage(spec.vantage, registry(), scenario());
  if (vp.protocol != spec.protocol) {
    throw std::invalid_argument("vantage point exports another protocol");
  }
  const synth::FlowSynthesizer gen(
      vp.model, registry(),
      {.connections_per_hour = spec.connections_per_hour,
       .seed_salt = synthesis_salt(seed)});
  return encode_wire_corpus(spec, gen.collect(spec.range));
}

WireCorpus encode_wire_corpus(const WireCorpusSpec& spec,
                              std::vector<flow::FlowRecord> records) {
  WireCorpus c;
  c.spec = spec;
  c.records = std::move(records);

  std::vector<flow::IpfixEncoder> ipfix;
  std::vector<flow::NetflowV9Encoder> v9;
  for (std::size_t e = 0; e < spec.exporters; ++e) {
    ipfix.emplace_back(static_cast<std::uint32_t>(1000 + e));
    v9.emplace_back(static_cast<std::uint32_t>(2000 + e));
  }
  const std::span<const flow::FlowRecord> all(c.records);
  std::size_t exporter = 0;
  for (std::size_t off = 0; off < all.size(); off += spec.records_per_batch) {
    const auto batch =
        all.subspan(off, std::min(spec.records_per_batch, all.size() - off));
    const std::size_t n = encode(spec, exporter, ipfix, v9, batch, c.datagrams);
    c.socket_of.insert(c.socket_of.end(), n,
                       static_cast<std::uint8_t>(exporter % spec.sockets));
    exporter = (exporter + 1) % spec.exporters;
  }

  // Key each datagram by the first record it decodes to. Decoding here is
  // corpus preparation (a fresh collector per datagram would lose the
  // templates, so one collector reads the whole train in order).
  c.first_key.assign(c.datagrams.size(), 0);
  std::size_t current = 0;
  flow::Collector reader(
      spec.protocol,
      flow::Collector::BatchSink([&](std::span<const flow::FlowRecord> b) {
        if (!b.empty() && c.first_key[current] == 0) {
          c.first_key[current] = record_key(b.front()) | 1;
        }
      }));
  for (current = 0; current < c.datagrams.size(); ++current) {
    reader.ingest(c.datagrams.packet(current));
  }
  return c;
}

}  // namespace perfbench
