#pragma once

// Spans recorded by the benchmark around its own calls into the library's
// layers. They live in memory and are written out as a Chrome trace when
// the run ends. The library's own obs tracer is never switched on.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;   ///< "<layer>.<what>", e.g. "engine.prepare"
  std::string layer;  ///< the library layer the call belongs to
  std::uint64_t job = 0;   ///< spans of one job share this id
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< enclosing span, -1 for a root
  double start = 0.0;  ///< seconds since the log was created
  double end = 0.0;
  std::uint32_t thread = 0;
};

/// Thread-safe in-memory span store. When disabled every call is a no-op,
/// so the plain run carries no tracing work.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] double now() const noexcept { return at(Clock::now()); }
  [[nodiscard]] double at(Clock::time_point t) const noexcept {
    return std::chrono::duration<double>(t - origin_).count();
  }

  /// Reserve an id for a span whose children are recorded before it ends.
  [[nodiscard]] std::int64_t reserve();

  /// Record a finished span; returns its id (-1 when disabled).
  std::int64_t record(const std::string& name, const std::string& layer,
                      std::uint64_t job, std::int64_t parent, double start,
                      double end, std::int64_t id = -1);

  [[nodiscard]] std::vector<Span> snapshot() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::int64_t nextId_ = 0;
};

/// RAII span: times its scope and records it on destruction. Children
/// pass `id()` as their parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::string layer,
             std::uint64_t job, std::int64_t parent = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  std::string name_;
  std::string layer_;
  std::uint64_t job_;
  std::int64_t parent_;
  std::int64_t id_ = -1;
  double start_ = 0.0;
};

/// Self time per layer: each span's duration minus the part of its
/// interval that its children cover (the union of the children, clipped
/// to the parent, so overlapping children are not subtracted twice).
[[nodiscard]] std::map<std::string, double> selfTimeByLayer(
    const std::vector<Span>& spans);

/// Write the spans as Chrome trace-event JSON ("X" complete events).
void writeChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
