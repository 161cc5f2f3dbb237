// The figure bundle the report path scans: hourly volume, port profiles,
// hypergiant shares, class heatmaps, VPN profiles and the Table 1
// monitoring-object volumes, as one ScanEngine Bundle.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/app_filter.hpp"
#include "analysis/as_view.hpp"
#include "analysis/export.hpp"
#include "analysis/hypergiants.hpp"
#include "analysis/ports.hpp"
#include "analysis/table1_dsl.hpp"
#include "analysis/volume.hpp"
#include "analysis/vpn.hpp"
#include "common.hpp"
#include "corpus.hpp"
#include "filter/plan.hpp"

namespace perfbench {

/// When each slice of one report has been aggregated in full. Slices are
/// hourly and hold the records whose start time falls in their hour, so a
/// lane can tell a record's slice from its start time; the lane that adds
/// a slice's last record stamps the time. The reader stamps each read.
class SliceClock {
 public:
  /// `hours[i]`: slice i's hour (aligned seconds); `records[i]`: its size.
  SliceClock(const std::vector<std::int64_t>& hours,
             std::vector<std::uint64_t> records)
      : first_hour_(hours.front() / 3600),
        index_(static_cast<std::size_t>(hours.back() / 3600 - first_hour_ + 1), -1),
        expected_(std::move(records)),
        added_(expected_.size()),
        read_ns_(expected_.size()),
        done_ns_(expected_.size()) {
    for (std::size_t i = 0; i < hours.size(); ++i) {
      index_[static_cast<std::size_t>(hours[i] / 3600 - first_hour_)] =
          static_cast<std::int32_t>(i);
    }
  }

  /// Forget the previous scan.
  void reset() {
    for (auto& a : added_) a.store(0, std::memory_order_relaxed);
    std::fill(read_ns_.begin(), read_ns_.end(), 0);
    std::fill(done_ns_.begin(), done_ns_.end(), 0);
  }

  void read_started(std::size_t slice) { read_ns_[slice] = now_ns(); }

  /// Called from the scan lanes with each batch they aggregated.
  void aggregated(std::span<const lockdown::flow::FlowRecord> records) {
    for (std::size_t i = 0; i < records.size();) {
      const std::int64_t hour = hour_of(records[i]);
      std::size_t j = i + 1;
      while (j < records.size() && hour_of(records[j]) == hour) ++j;
      const auto slice = static_cast<std::size_t>(
          index_[static_cast<std::size_t>(hour - first_hour_)]);
      const std::uint64_t n = j - i;
      if (added_[slice].fetch_add(n, std::memory_order_relaxed) + n == expected_[slice]) {
        done_ns_[slice] = now_ns();
      }
      i = j;
    }
  }

  /// After the scan has finished: whether every slice was aggregated
  /// exactly in full.
  [[nodiscard]] bool complete() const {
    for (std::size_t i = 0; i < expected_.size(); ++i) {
      if (added_[i].load(std::memory_order_relaxed) != expected_[i]) return false;
    }
    return true;
  }

  /// After the scan has finished: per slice, read start -> aggregated, ms.
  void lags_ms(std::vector<double>& out) const {
    for (std::size_t i = 0; i < expected_.size(); ++i) {
      if (read_ns_[i] != 0 && done_ns_[i] != 0) {
        out.push_back(static_cast<double>(done_ns_[i] - read_ns_[i]) / 1e6);
      }
    }
  }

 private:
  [[nodiscard]] static std::int64_t hour_of(const lockdown::flow::FlowRecord& r) {
    const std::int64_t t = r.first.seconds();
    return (t - (((t % 3600) + 3600) % 3600)) / 3600;
  }

  std::int64_t first_hour_;
  std::vector<std::int32_t> index_;  ///< hour - first_hour_ -> slice
  std::vector<std::uint64_t> expected_;
  std::vector<std::atomic<std::uint64_t>> added_;
  std::vector<std::uint64_t> read_ns_;
  std::vector<std::uint64_t> done_ns_;
};

struct FigureBundle {
  lockdown::analysis::VolumeAggregator volume;
  lockdown::analysis::PortAnalyzer ports;
  lockdown::analysis::HypergiantAnalyzer hyper;
  lockdown::analysis::ClassHeatmap heatmap;
  lockdown::analysis::VpnAnalyzer vpn;
  std::vector<lockdown::analysis::VolumeAggregator> monitors;
  SliceClock* clock = nullptr;  ///< stamped after each batch, when set

  void add_batch(std::span<const lockdown::flow::FlowRecord> records,
                 const lockdown::filter::FlowColumns& cols) {
    volume.add_batch(records, cols);
    ports.add_batch(records, cols);
    hyper.add_batch(records, cols);
    heatmap.add_batch(records, cols);
    vpn.add_batch(records, cols);
    for (auto& m : monitors) m.add_batch(records, cols);
    if (clock != nullptr) clock->aggregated(records);
  }

  void merge(const FigureBundle& o) {
    volume.merge(o.volume);
    ports.merge(o.ports);
    hyper.merge(o.hyper);
    heatmap.merge(o.heatmap);
    vpn.merge(o.vpn);
    for (std::size_t i = 0; i < monitors.size(); ++i) monitors[i].merge(o.monitors[i]);
  }
};

/// What every bundle of one report shares: the classifier, the AS view,
/// the compiled Table 1 monitor filters and the analysis weeks. Building
/// it is part of the report's set-up.
class BundleContext {
 public:
  explicit BundleContext(std::vector<lockdown::net::TimeRange> weeks)
      : weeks_(std::move(weeks)),
        view_(registry().trie()),
        classifier_(lockdown::analysis::AppClassifier::table1()),
        hypergiants_(lockdown::analysis::AsnSet(
            lockdown::synth::AsRegistry::hypergiant_asns())) {
    for (const auto& d : lockdown::analysis::dsl_monitor_definitions(classifier_)) {
      plans_.push_back(std::make_unique<lockdown::filter::CompiledFilter>(
          lockdown::filter::CompiledFilter::compile(d.expression,
                                                    &registry().trie())));
    }
  }

  [[nodiscard]] FigureBundle make() const {
    namespace analysis = lockdown::analysis;
    FigureBundle b{analysis::VolumeAggregator(lockdown::stats::Bucket::kHour),
                   analysis::PortAnalyzer(weeks_),
                   analysis::HypergiantAnalyzer(view_, hypergiants_),
                   analysis::ClassHeatmap(classifier_, view_, weeks_),
                   analysis::VpnAnalyzer(weeks_, {}),
                   {},
                   nullptr};
    for (const auto& p : plans_) {
      b.monitors.emplace_back(lockdown::stats::Bucket::kDay, p.get());
    }
    return b;
  }

  /// The rendered tables of a finished bundle: every figure's table as
  /// CSV, concatenated.
  [[nodiscard]] std::string render(const FigureBundle& b) const {
    namespace analysis = lockdown::analysis;
    std::string out = analysis::timeseries_table(b.volume.series()).to_csv();
    for (const auto cls : b.heatmap.observed_classes()) {
      out += analysis::heatmap_table(b.heatmap, cls, weeks_.size() - 1).to_csv();
    }
    out += analysis::vpn_profile_table(b.vpn.profiles()).to_csv();
    for (const auto& p : b.ports.profiles(b.ports.top_ports(8))) {
      out += p.port.to_string() + "/" + std::to_string(p.week_index) + "\n";
    }
    out += "hypergiant_share," + std::to_string(b.hyper.hypergiant_share()) + "\n";
    for (const auto& m : b.monitors) {
      out += std::to_string(m.records()) + "\n";
      out += analysis::timeseries_table(m.series()).to_csv();
    }
    return out;
  }

  [[nodiscard]] const lockdown::filter::AsnTrie* trie() const {
    return &registry().trie();
  }

 private:
  std::vector<lockdown::net::TimeRange> weeks_;
  lockdown::analysis::AsView view_;
  lockdown::analysis::AppClassifier classifier_;
  lockdown::analysis::AsnSet hypergiants_;
  std::vector<std::unique_ptr<lockdown::filter::CompiledFilter>> plans_;
};

}  // namespace perfbench
