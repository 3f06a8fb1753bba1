// Span recorder for the traced benchmark run. The benchmark wraps each
// call into a public layer function (data, text, core, util, serve) in a
// Span; spans stay in memory and are written out once at exit. With
// tracing off a Span is one relaxed load and a branch.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

struct SpanRecord {
  std::string name;   ///< "<layer>.<call>", e.g. "core.match.first_run"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the span list, -1 = root
  uint64_t thread = 0;  ///< small per-thread ordinal
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(std::string run_id);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Stops recording new spans (open ones still close).
  void Pause() { enabled_.store(false, std::memory_order_relaxed); }
  void Resume() { enabled_.store(true, std::memory_order_relaxed); }
  const std::string& run_id() const { return run_id_; }

  /// Opens a span on the calling thread (parent = that thread's innermost
  /// open span); returns its index.
  int64_t Open(const std::string& name);
  void Close(int64_t index);

  /// Self time (duration minus direct children) summed per layer, the
  /// first dot-separated component of the span name, in ms.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Durations of the spans with exactly this name, in ms.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes {"run_id": ..., "spans": [...]} to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
  std::string run_id_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. No-op when tracing is off at construction.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;
};

int64_t NowNs();

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
