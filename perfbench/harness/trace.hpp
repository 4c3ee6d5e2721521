// perfbench — spans recorded around the harness's calls into each
// dnsctx layer.
//
// A Span is (name, start, end, parent, run id, thread). Spans are kept
// in memory and written once, at exit, as Chrome trace-event JSON (one
// track per thread) plus a per-layer self-time table. A layer's self
// time is its spans' duration minus the part covered by child spans and
// by callback time charged to the span with charge() — the sink
// callbacks a layer makes into the next one run inside its span, too
// often to record each as a span of its own.
//
// With tracing off, ScopedSpan and charge() are one branch: no clock
// reads, no allocation, so the untraced run measures the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t charged_ns = 0;  ///< callback time attributed to children
    std::int64_t parent = -1;     ///< index into spans(), -1 = root
    std::uint32_t thread = 0;
  };

  /// One tracer per process; `run_id` tags every span it records.
  static Tracer& instance();
  void enable(std::string run_id);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open/close a span on the calling thread (ScopedSpan does both).
  [[nodiscard]] std::int64_t open(const char* name);
  void close(std::int64_t id);

  /// Charge `ns` of callback time to the layer `layer`, nested inside the
  /// span open on this thread (which loses it from its self time).
  void charge(const char* layer, std::int64_t ns);

  /// Per-layer totals: wall summed over spans (plus charged callback
  /// time for callback-only layers) and self time.
  struct LayerTime {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t spans = 0;
  };
  [[nodiscard]] std::map<std::string, LayerTime> layer_table() const;

  /// Write Chrome trace-event JSON (`traceEvents`, complete events,
  /// tid = recording thread) and the layer table as JSON.
  void write_chrome(const std::string& path) const;
  void write_layer_table(const std::string& path) const;

 private:
  Tracer() = default;
  [[nodiscard]] std::uint32_t thread_index();

  bool enabled_ = false;
  std::string run_id_;
  mutable std::mutex mu_;  // guards spans_, charged_, threads_
  std::vector<Span> spans_;
  std::map<std::string, std::int64_t> charged_;
  std::uint32_t threads_ = 0;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_{Tracer::instance().enabled() ? Tracer::instance().open(name) : -1} {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::instance().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t id_;
};

/// Seconds elapsed on the steady clock since `start_ns`.
[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

}  // namespace perfbench
