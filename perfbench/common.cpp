#include <time.h>

#include <fstream>
#include <string>

#include "bench.hpp"
#include "stats.hpp"

namespace pb {

const std::vector<MetricDef>& metric_catalogue() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s", MetricKind::kEndToEnd},
      {"peak_rss_mib", "MiB", MetricKind::kEndToEnd},
      {"ops_per_s", "1/s", MetricKind::kEndToEnd},
      {"side_per_s", "1/s", MetricKind::kEndToEnd},
      {"good_frac", "frac", MetricKind::kEndToEnd},

      {"verify.phase_a_s", "s", MetricKind::kPerLayer},
      {"verify.phase_b_s", "s", MetricKind::kPerLayer},
      {"verify.phase_a_ns_per_config", "ns", MetricKind::kPerLayer},
      {"verify.phase_b_ns_per_edge", "ns", MetricKind::kPerLayer},
      {"verify.edges", "count", MetricKind::kPerLayer},
      {"verify.bytes_per_edge", "B", MetricKind::kPerLayer},
      {"verify.rounds", "count", MetricKind::kPerLayer},
      {"verify.serial_s", "s", MetricKind::kPerLayer},
      {"verify.parallel_eff", "ratio", MetricKind::kPerLayer},
      {"verify.self_s", "s", MetricKind::kPerLayer},

      {"sim.block_s_p50", "s", MetricKind::kPerLayer},
      {"sim.block_s_max", "s", MetricKind::kPerLayer},
      {"sim.ns_per_trial_step", "ns", MetricKind::kPerLayer},
      {"sim.idle_frac", "frac", MetricKind::kPerLayer},
      {"sim.self_s", "s", MetricKind::kPerLayer},

      {"msgpass.run_s.ssrmin", "s", MetricKind::kPerLayer},
      {"msgpass.run_s.dijkstra", "s", MetricKind::kPerLayer},
      {"msgpass.run_s.dual", "s", MetricKind::kPerLayer},
      {"msgpass.ns_per_event.ssrmin", "ns", MetricKind::kPerLayer},
      {"msgpass.ns_per_event.dijkstra", "ns", MetricKind::kPerLayer},
      {"msgpass.ns_per_event.dual", "ns", MetricKind::kPerLayer},
      {"msgpass.window_s_p50", "s", MetricKind::kPerLayer},
      {"msgpass.window_s_max", "s", MetricKind::kPerLayer},
      {"msgpass.serial_s", "s", MetricKind::kPerLayer},
      {"msgpass.parallel_speedup", "ratio", MetricKind::kPerLayer},
      {"msgpass.heap_ns_per_op.small", "ns", MetricKind::kPerLayer},
      {"msgpass.heap_ns_per_op.1m", "ns", MetricKind::kPerLayer},
      {"msgpass.heap_occupancy.small", "count", MetricKind::kPerLayer},
      {"msgpass.heap_occupancy.1m", "count", MetricKind::kPerLayer},
      {"msgpass.self_s", "s", MetricKind::kPerLayer},

      {"runtime.frames_sent", "count", MetricKind::kPerLayer},
      {"runtime.frames_received", "count", MetricKind::kPerLayer},
      {"runtime.kernel_drop_frac", "frac", MetricKind::kPerLayer},
      {"runtime.rejected", "count", MetricKind::kPerLayer},
      {"runtime.refresh_frac", "frac", MetricKind::kPerLayer},
      {"runtime.handovers_per_frame", "ratio", MetricKind::kPerLayer},
      {"runtime.udp_us_per_frame", "us", MetricKind::kPerLayer},
      {"runtime.virtual_us_per_frame", "us", MetricKind::kPerLayer},
      {"runtime.socket_share", "frac", MetricKind::kPerLayer},
      {"runtime.timer_ns_per_op", "ns", MetricKind::kPerLayer},
      {"runtime.handover_gap_p50_ms", "ms", MetricKind::kPerLayer},
      {"runtime.handover_gap_p99_ms", "ms", MetricKind::kPerLayer},
      {"runtime.self_s", "s", MetricKind::kPerLayer},
      {"wire.encode_ns", "ns", MetricKind::kPerLayer},
      {"wire.decode_ns", "ns", MetricKind::kPerLayer},
      {"wire.self_s", "s", MetricKind::kPerLayer},

      {"bench.self_s", "s", MetricKind::kPerLayer},
      {"trace.overhead_s", "s", MetricKind::kPerLayer},
      {"trace.overhead_frac", "frac", MetricKind::kPerLayer},
      {"trace.spans", "count", MetricKind::kPerLayer},
  };
  return kMetrics;
}

double peak_rss_mib() {
  // VmHWM belongs to this address space. getrusage's ru_maxrss would carry
  // over the peak of the process that exec'd this one (run.py's Python).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void set_end_to_end_metrics(Outcome& out) {
  for (const auto& [name, values] : out.samples) {
    out.metrics[name] = median(values);
  }
  out.metrics["peak_rss_mib"] = peak_rss_mib();
}

void add_trace_metrics(const Tracer& tracer, Outcome& out) {
  const std::vector<Span> spans = tracer.spans();
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.metrics[spans[i].layer() + ".self_s"] += self[i];
  }
  out.metrics["trace.spans"] = static_cast<double>(spans.size());
}

}  // namespace pb
