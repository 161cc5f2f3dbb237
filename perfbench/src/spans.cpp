#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

struct Record {
  const char* name;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t child_ns;
  std::int32_t parent;
};

struct ThreadLog {
  std::uint32_t thread = 0;
  std::vector<Record> spans;
  std::vector<std::int32_t> stack;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_mu

ThreadLog& this_thread_log() {
  thread_local ThreadLog* log = [] {
    auto owned = std::make_unique<ThreadLog>();
    owned->spans.reserve(1 << 16);
    const std::lock_guard<std::mutex> lock(g_mu);
    owned->thread = static_cast<std::uint32_t>(g_logs.size());
    g_logs.push_back(std::move(owned));
    return g_logs.back().get();
  }();
  return *log;
}

}  // namespace

void Spans::enable() noexcept { g_enabled.store(true, std::memory_order_relaxed); }

bool Spans::enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void Span::begin(const char* name) noexcept {
  ThreadLog& log = this_thread_log();
  const std::int32_t parent = log.stack.empty() ? -1 : log.stack.back();
  log.spans.push_back({name, now_ns(), 0, 0, parent});
  log.stack.push_back(static_cast<std::int32_t>(log.spans.size() - 1));
  open_ = true;
}

void Span::end() noexcept {
  ThreadLog& log = this_thread_log();
  Record& r = log.spans[static_cast<std::size_t>(log.stack.back())];
  log.stack.pop_back();
  r.end = now_ns();
  if (r.parent >= 0) {
    log.spans[static_cast<std::size_t>(r.parent)].child_ns += r.end - r.start;
  }
}

long long Spans::write(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_mu);
  std::uint64_t origin = UINT64_MAX;
  for (const auto& log : g_logs) {
    if (!log->spans.empty()) origin = std::min(origin, log->spans.front().start);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return -1;
  std::fputs("name\tthread\tstart_ns\tend_ns\tparent\tself_ns\n", f);
  long long n = 0;
  for (const auto& log : g_logs) {
    for (const Record& r : log->spans) {
      if (r.end == 0) continue;  // still open: not a finished call
      std::fprintf(f, "%s\t%u\t%llu\t%llu\t%d\t%llu\n", r.name, log->thread,
                   static_cast<unsigned long long>(r.start - origin),
                   static_cast<unsigned long long>(r.end - origin), r.parent,
                   static_cast<unsigned long long>(r.end - r.start - r.child_ns));
      ++n;
    }
  }
  return std::fclose(f) == 0 ? n : -1;
}

std::map<std::string, double> Spans::self_ms_by_layer() {
  const std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, double> out;
  for (const auto& log : g_logs) {
    for (const Record& r : log->spans) {
      if (r.end == 0) continue;
      const std::string name(r.name);
      out[name.substr(0, name.find('.'))] +=
          static_cast<double>(r.end - r.start - r.child_ns) / 1e6;
    }
  }
  return out;
}

}  // namespace perfbench
