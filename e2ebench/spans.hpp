// In-memory span recorder of the end-to-end benchmark.
//
// Spans wrap calls the driver makes into the library's public functions,
// each round as a RoundObserver sees it, and each sweep cell. They are kept
// in memory and written as Chrome trace-event JSON when the driver exits;
// run.py merges them with its own spans and computes per-layer self time.
// A disabled recorder reads no clock and stores nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace e2ebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  const char* layer;
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::uint64_t tid;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class SpanRecorder {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  /// Stores a finished span; safe from any thread.
  void record(const char* name, const char* layer, std::uint64_t id, std::uint64_t parent,
              std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) return;
    const std::uint64_t tid = std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, layer, id, parent, tid, start_ns, end_ns});
  }

  /// Chrome trace-event JSON; timestamps in microseconds.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans_) {
      out << (first ? "" : ",") << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << s.start_ns / 1000.0
          << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0 << ",\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent << "}}";
      first = false;
    }
    out << "]}\n";
  }

 private:
  bool enabled_ = false;
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call into a layer. Nested scopes on the same thread become
/// children of the enclosing scope.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* name, const char* layer)
      : rec_(rec), name_(name), layer_(layer) {
    if (!rec_.enabled()) return;
    id_ = rec_.next_id();
    parent_ = current();
    current() = id_;
    start_ = now_ns();
  }
  ~Scope() {
    if (!rec_.enabled()) return;
    rec_.record(name_, layer_, id_, parent_, start_, now_ns());
    current() = parent_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Innermost open scope of this thread (0 when none).
  static std::uint64_t& current() {
    thread_local std::uint64_t id = 0;
    return id;
  }

 private:
  SpanRecorder& rec_;
  const char* name_;
  const char* layer_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ = 0;
};

}  // namespace e2ebench
