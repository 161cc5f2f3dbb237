// The three workloads and the traced run's layer walk.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "corpus.hpp"

namespace perfbench {

/// Closed-loop IPFIX replay: WirePlane (1 lane) -> 2 shards (anonymizer)
/// -> Table 1 monitors with scalar windows -> SliceSpooler.
void run_wire_ipfix(const Args& args, Result& result);

/// Open-loop NetFlow v9 at a fixed offered rate: WirePlane (2 lanes) ->
/// 1 shard -> Table 1 plus extra monitors, keyed windows, moving average.
void run_wire_v9_paced(const Args& args, Result& result);

/// Analyst path: trace slice images -> read_trace -> 2-lane ScanEngine
/// over the figure bundle -> finish() -> rendered tables.
void run_report_slices(const Args& args, Result& result);

/// Traced run only: replay `datagrams` (and the records they carry) on
/// this thread through each layer's public entry point in turn, and
/// report the flow.*, filter.match, stream.accumulate, analysis.kernel and
/// layers.sum_over_total metrics.
void layer_walk(const WireCorpus& corpus, Result& result);

}  // namespace perfbench
