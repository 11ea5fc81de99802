// Shared types of the ssring benchmark: run settings, the metric
// catalogue, workload outcomes and the timed-repetition loop.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace pb {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring time of an untraced run
  bool trace = false;     ///< traced run: per-layer metrics instead
  bool smoke = false;     ///< sub-second sizes (tests)
};

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  MetricKind kind;
};

/// Every metric the benchmark prints, in print order. An untraced run
/// prints every end-to-end metric, a traced run every per-layer metric; a
/// layer the workload does not call reports 0 (no work done there).
const std::vector<MetricDef>& metric_catalogue();

/// What one workload run produced.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< failed correctness gates
  std::map<std::string, double> metrics;
  /// Per-repetition samples behind the reported medians (diagnostics).
  std::map<std::string, std::vector<double>> samples;

  /// Records a correctness gate; a failed gate fails the run's
  /// @p operations.
  void gate(bool ok, const std::string& what, std::uint64_t operations) {
    if (ok) return;
    failures.push_back(what);
    failed += operations;
  }
  void sample(const std::string& name, double value) {
    samples[name].push_back(value);
  }
};

/// Runs job(rep) at least @p min_reps times, then while the run would end
/// closer to @p seconds with one more repetition than without it.
template <typename Job>
void repeat_for(double seconds, int min_reps, Job&& job) {
  const auto t0 = Clock::now();
  int rep = 0;
  for (;;) {
    job(rep++);
    const double elapsed = seconds_since(t0);
    if (rep >= min_reps && elapsed + 0.5 * elapsed / rep >= seconds) break;
  }
}

/// Records @p batches setup_s samples, each the mean time of one of
/// @p per_batch back-to-back make() calls. Batching keeps the timing of a
/// set-up that takes well under a microsecond far above the clock's
/// resolution. Workloads call this before and after every repetition, so
/// the median covers the whole run rather than one moment of it.
template <typename Make>
void sample_setup(Outcome& out, int batches, int per_batch, Make&& make) {
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < per_batch; ++i) make();
    out.sample("setup_s", seconds_since(t0) / per_batch);
  }
}

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// CPU time this process has used so far, all threads, user + system, s.
double process_cpu_s();

/// Sets the end-to-end metrics of an untraced run: the median of each
/// sampled series and the peak RSS.
void set_end_to_end_metrics(Outcome& out);

Outcome run_verify(const RunConfig& cfg, Tracer& tracer);
Outcome run_modelgap(const RunConfig& cfg, Tracer& tracer);
Outcome run_cst(const RunConfig& cfg, Tracer& tracer);
Outcome run_serve(const RunConfig& cfg, Tracer& tracer);

/// Adds the layer self times and span count of a traced run to @p out.
void add_trace_metrics(const Tracer& tracer, Outcome& out);

}  // namespace pb
