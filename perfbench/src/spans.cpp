#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::uint32_t threadNumber() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::int64_t SpanLog::reserve() {
  if (!enabled_) return -1;
  const std::scoped_lock lock(mutex_);
  return nextId_++;
}

std::int64_t SpanLog::record(const std::string& name, const std::string& layer,
                             std::uint64_t job, std::int64_t parent,
                             double start, double end, std::int64_t id) {
  if (!enabled_) return -1;
  const std::scoped_lock lock(mutex_);
  if (id < 0) id = nextId_++;
  spans_.push_back(Span{name, layer, job, id, parent, start, end, threadNumber()});
  return id;
}

std::vector<Span> SpanLog::snapshot() const {
  const std::scoped_lock lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanLog& log, std::string name, std::string layer,
                       std::uint64_t job, std::int64_t parent)
    : log_(log),
      name_(std::move(name)),
      layer_(std::move(layer)),
      job_(job),
      parent_(parent) {
  if (!log_.enabled()) return;
  id_ = log_.reserve();
  start_ = log_.now();
}

ScopedSpan::~ScopedSpan() {
  if (!log_.enabled()) return;
  log_.record(name_, layer_, job_, parent_, start_, log_.now(), id_);
}

std::map<std::string, double> selfTimeByLayer(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent >= 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    std::vector<std::pair<double, double>> covered;
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const Span* child : it->second) {
        const double lo = std::max(child->start, span.start);
        const double hi = std::min(child->end, span.end);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double union_ = 0.0;
    double reach = span.start;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) union_ += hi - from;
      reach = std::max(reach, hi);
    }
    self[span.layer] += std::max(0.0, (span.end - span.start) - union_);
  }
  return self;
}

void writeChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << jsonString(s.name)
        << ", \"cat\": " << jsonString(s.layer) << ", \"ph\": \"X\", \"ts\": "
        << s.start * 1e6 << ", \"dur\": " << (s.end - s.start) * 1e6
        << ", \"pid\": 1, \"tid\": " << s.thread << ", \"args\": {\"job\": "
        << s.job << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
