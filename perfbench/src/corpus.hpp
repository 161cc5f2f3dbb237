// The load generator's side of the benchmark: synthesized flow corpora,
// encoded once into export datagrams (wire workloads) or trace slice
// images (report-slices). None of this is timed as program work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/anonymizer.hpp"
#include "flow/flow_record.hpp"
#include "flow/packet_arena.hpp"
#include "flow/pipeline.hpp"
#include "net/civil_time.hpp"
#include "synth/as_registry.hpp"
#include "synth/vantage.hpp"

namespace perfbench {

[[nodiscard]] const lockdown::synth::AsRegistry& registry();

/// The collector's on-premise anonymizer (prefix-preserving, fixed key).
[[nodiscard]] const lockdown::flow::Anonymizer& collector_anonymizer();

/// The vantage-point models are fixed; the run seed only salts the
/// synthesis, so every seed draws another replica of the same scenario
/// (same traffic mix and volume, different flows).
[[nodiscard]] lockdown::synth::ScenarioConfig scenario();
[[nodiscard]] std::uint64_t synthesis_salt(std::uint64_t seed) noexcept;

struct WireCorpusSpec {
  lockdown::synth::VantagePointId vantage;
  lockdown::flow::ExportProtocol protocol;
  lockdown::net::TimeRange range;
  double connections_per_hour = 0;
  /// Export sources (IPFIX observation domains / v9 source ids).
  std::size_t exporters = 8;
  /// Sender sockets; exporter e always sends from socket e % sockets.
  std::size_t sockets = 4;
  /// Records handed to one encode call; batches go round-robin to the
  /// exporters, the arrival pattern of a port shared by many routers.
  std::size_t records_per_batch = 48;
};

struct WireCorpus {
  WireCorpusSpec spec;
  std::vector<lockdown::flow::FlowRecord> records;  ///< as synthesized
  lockdown::flow::PacketBatch datagrams;            ///< in send order
  std::vector<std::uint8_t> socket_of;              ///< per datagram
  /// Per datagram: record_key() of the first record it decodes to, used
  /// to tell which datagram a routed batch came from.
  std::vector<std::uint64_t> first_key;
};

/// Synthesize spec.range at spec.vantage and encode it.
[[nodiscard]] WireCorpus make_wire_corpus(const WireCorpusSpec& spec,
                                          std::uint64_t seed);
/// Encode given records as spec's exporters would send them.
[[nodiscard]] WireCorpus encode_wire_corpus(
    const WireCorpusSpec& spec, std::vector<lockdown::flow::FlowRecord> records);

/// Hash of every field except the two addresses (the fields the
/// anonymizer leaves alone).
[[nodiscard]] std::uint64_t record_key(const lockdown::flow::FlowRecord& r) noexcept;
/// Hash of every field.
[[nodiscard]] std::uint64_t record_hash(const lockdown::flow::FlowRecord& r) noexcept;

/// Order-independent fingerprint of a record multiset: count plus two
/// wrapping sums of differently keyed record hashes.
struct MultisetPrint {
  std::uint64_t count = 0;
  std::uint64_t sum_a = 0;
  std::uint64_t sum_b = 0;

  void add(const lockdown::flow::FlowRecord& r) noexcept;
  friend bool operator==(const MultisetPrint&, const MultisetPrint&) = default;
};

}  // namespace perfbench
