// In-memory span recorder for the traced benchmark run.
//
// A span brackets one call into a layer's public API: name (prefixed by
// the layer, "verify.run"), start and end on the steady clock, the span
// that caused it, and the id of the job repetition it belongs to. Counts
// measured at the same boundary (configurations, events, frames) attach
// to the span. Spans are kept in memory and written out as JSON when the
// benchmark ends. When the tracer is disabled, begin()/end() record
// nothing.
#pragma once

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;     ///< index of the causing span, -1 for a root
  int run = 0;         ///< job repetition id
  std::map<std::string, double> counts;

  /// Layer prefix of the name ("verify.run" -> "verify").
  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// Time of a span not covered by any of its children. Children may run
/// concurrently on worker threads, so their intervals are merged before
/// being subtracted, and clipped to the parent's interval.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start, s.end);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = std::max(0.0, (hi - lo) - covered);
  }
  return out;
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Opens a span and returns its id (-1 when disabled). Thread-safe.
  int begin(std::string name, int parent = -1, int run = 0) {
    if (!enabled_) return -1;
    const double now = seconds_since(epoch_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), now, now, parent, run, {}});
    return static_cast<int>(spans_.size() - 1);
  }

  void end(int id) {
    if (id < 0) return;
    const double now = seconds_since(epoch_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = now;
  }

  void count(int id, const std::string& key, double value) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].counts[key] += value;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, int parent = -1, int run = 0)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent, run)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }
  void count(const std::string& key, double value) {
    tracer_.count(id_, key, value);
  }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace pb
