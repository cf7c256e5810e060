// Lightweight scoped trace spans, dumped as Chrome trace-event JSON.
//
// Where metrics (obs/metrics.hpp) answer "how fast", spans answer "where
// did the time go": one complete event per cell attempt, trial, checkpoint
// write, or lease round-trip, viewable on a shared timeline in
// chrome://tracing / Perfetto (docs/observability.md has the recipe).
//
// Recording discipline:
//  * Off by default. A disabled recorder costs one relaxed load per span
//    site; no clocks are read, no buffers touched — the production default
//    pays nothing.
//  * Enabled, each thread appends to its own buffer (registered once per
//    thread, guarded by a per-buffer mutex that only the dump ever
//    contends). Spans are coarse (cell/trial/IO granularity, never
//    per-round), so buffer growth is off the measured hot path.
//  * Span names are string literals by contract; the optional `arg` (cell
//    id, worker name) is an owned string shown as the event's args.detail.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace plurality::obs {

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds on the steady clock (the trace's shared timebase).
  [[nodiscard]] static double now_us();

  /// Appends one complete event ("ph":"X") to the calling thread's buffer.
  /// `name` and `category` must be string literals (stored by pointer).
  void record(const char* name, const char* category, double start_us, double duration_us,
              std::string arg = {});

  /// All recorded events as {"traceEvents":[...]} (chrome://tracing loads
  /// this directly). Safe to call while other threads keep recording.
  [[nodiscard]] io::JsonValue to_json() const;

  /// Writes to_json() to `path` (indented; best-effort caller handles IO).
  void write(const std::string& path) const;

  /// The process-wide recorder --trace-out enables and dumps.
  static TraceRecorder& global();

 private:
  struct Event {
    const char* name;
    const char* category;
    double start_us;
    double duration_us;
    std::uint32_t tid;
    std::string arg;
  };
  struct ThreadBuffer {
    std::mutex mu;  ///< owner-thread appends vs. dump reads
    std::vector<Event> events;
  };
  ThreadBuffer& buffer_for_this_thread();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  ///< guards the buffer list, not the buffers
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: construction reads the clock, destruction records — iff the
/// recorder was enabled when the span opened.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "sweep",
                     std::string arg = {});
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  std::string arg_;
  double start_us_ = 0.0;
  bool armed_ = false;
};

}  // namespace plurality::obs
