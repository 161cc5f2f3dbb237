// In-memory span recorder for the traced run (--trace 1). Every call the
// benchmark makes into a layer's public functions, and every callback the
// program makes into the benchmark, is wrapped in a Span named
// "<layer>.<call>". Spans nest per thread; each span's self time is its
// duration minus its children's. With tracing off a Span costs one
// predictable branch.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

class Spans {
 public:
  /// Switch recording on for the rest of the process (call before any
  /// thread records).
  static void enable() noexcept;
  [[nodiscard]] static bool enabled() noexcept;

  /// Write every recorded span as tab-separated lines
  /// (name, thread, start_ns, end_ns, parent, self_ns; times relative to
  /// the first span, parent -1 for roots) to `path`. Call after every
  /// recording thread has finished. Returns the number of spans written,
  /// or -1 when the file cannot be written.
  static long long write(const std::string& path);

  /// Self time per layer (the span-name prefix before the first '.'), ms.
  [[nodiscard]] static std::map<std::string, double> self_ms_by_layer();
};

class Span {
 public:
  explicit Span(const char* name) noexcept {
    if (Spans::enabled()) begin(name);
  }
  ~Span() {
    if (open_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name) noexcept;
  void end() noexcept;
  bool open_ = false;
};

}  // namespace perfbench
