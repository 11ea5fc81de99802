// ssbench — one workload of the ssring benchmark per invocation.
//
//   ssbench --workload <verify|modelgap|cst-1m|serve-udp-100k> --seed N
//           --seconds S --trace 0|1 [--trace-out FILE]
//           [--git-sha SHA] [--src-sha DIGEST]
//
// An untraced run (--trace 0) repeats the workload's job for about S
// seconds and prints every end-to-end metric (medians over repetitions).
// A traced run (--trace 1) records spans around each layer call and
// prints every per-layer metric; layers the workload does not call read
// 0. Both print a host-stamp line, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace-out writes the
// spans (with self times) and the host stamp as JSON. A failed
// correctness gate shows as "correct": false; the exit code is nonzero only
// when no result could be printed.
#include <cpuid.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "stats.hpp"
#include "util/lane_backend.hpp"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif
#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
  model = model.c_str();
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

struct Args {
  pb::RunConfig cfg;
  std::string workload;
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string src_sha = "unknown";
};

bool parse(int argc, char** argv, Args& a) {
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.cfg.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.cfg.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.cfg.trace = val == "1";
      have_trace = true;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else if (key == "--src-sha") {
      a.src_sha = val;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && have_trace;
}

std::string host_stamp(const Args& a) {
  const std::string build = PB_BUILD_TYPE;
  std::ostringstream s;
  s << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"cpu_model\": " << quote(cpu_model()) << ", \"lane_backend\": "
    << quote(ssr::util::lane_backend_name(ssr::util::detect_lane_backend()))
    << ", \"compiler\": " << quote(PB_COMPILER)
    << ", \"build_type\": " << quote(build)
    << ", \"release_build\": " << (build == "Release" ? "true" : "false")
    << ", \"git_sha\": " << quote(a.git_sha)
    << ", \"src_sha256\": " << quote(a.src_sha) << "}";
  return s.str();
}

void write_trace(const std::string& path, const std::string& stamp,
                 const Args& a, const pb::Tracer& tracer,
                 const pb::Outcome& out) {
  const std::vector<pb::Span> spans = tracer.spans();
  const std::vector<double> self = pb::self_times(spans);
  std::ofstream f(path);
  f << "{\"host\": " << stamp << ",\n \"workload\": " << quote(a.workload)
    << ", \"seed\": " << a.cfg.seed << ",\n \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const pb::Span& sp = spans[i];
    f << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
      << ", \"name\": " << quote(sp.name) << ", \"start\": "
      << number(sp.start) << ", \"end\": " << number(sp.end)
      << ", \"parent\": " << sp.parent << ", \"run\": " << sp.run
      << ", \"self_s\": " << number(self[i]) << ", \"counts\": {";
    bool first = true;
    for (const auto& [k, v] : sp.counts) {
      f << (first ? "" : ", ") << quote(k) << ": " << number(v);
      first = false;
    }
    f << "}}";
  }
  f << "\n ],\n \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : out.metrics) {
    f << (first ? "" : ", ") << quote(k) << ": " << number(v);
    first = false;
  }
  f << "}}\n";
}

/// Median, spread and tail of each sample series, on stderr.
void summarize(const pb::Outcome& out) {
  for (const auto& [name, v] : out.samples) {
    std::cerr << "  " << name << ": n=" << v.size()
              << " median=" << pb::median(v);
    if (v.size() >= 2) std::cerr << " spread=" << pb::relative_spread(v);
    if (const auto tail = pb::tail_percentile(v)) {
      std::cerr << " p" << tail->percentile << "=" << tail->value;
    }
    if (v.size() <= 8) {
      for (double x : v) std::cerr << ' ' << x;
    }
    std::cerr << '\n';
  }
  for (const auto& f : out.failures) {
    std::cerr << "  GATE FAILED: " << f << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    if (!parse(argc, argv, a)) {
      std::cerr << "usage: ssbench --workload W --seed N --seconds S "
                   "--trace 0|1 [--trace-out FILE]\n";
      return 2;
    }
  } catch (const std::exception&) {
    std::cerr << "ssbench: bad argument value\n";
    return 2;
  }
  using RunFn = pb::Outcome (*)(const pb::RunConfig&, pb::Tracer&);
  RunFn fn = nullptr;
  if (a.workload == "verify") fn = pb::run_verify;
  if (a.workload == "modelgap") fn = pb::run_modelgap;
  if (a.workload == "cst-1m") fn = pb::run_cst;
  if (a.workload == "serve-udp-100k") fn = pb::run_serve;
  if (fn == nullptr) {
    std::cerr << "ssbench: unknown workload " << a.workload << '\n';
    return 2;
  }
  const std::string stamp = host_stamp(a);
  if (std::string(PB_BUILD_TYPE) != "Release") {
    std::cerr << "ssbench: WARNING: " << PB_BUILD_TYPE
              << " build, figures are not comparable to Release ones\n";
  }

  pb::Tracer tracer(a.cfg.trace);
  pb::Outcome out;
  try {
    out = fn(a.cfg, tracer);
  } catch (const std::exception& e) {
    std::cerr << "ssbench: " << a.workload << " failed: " << e.what() << '\n';
    return 1;
  }
  if (a.cfg.trace) pb::add_trace_metrics(tracer, out);
  if (!a.trace_out.empty()) write_trace(a.trace_out, stamp, a, tracer, out);
  summarize(out);

  const auto kind =
      a.cfg.trace ? pb::MetricKind::kPerLayer : pb::MetricKind::kEndToEnd;
  std::ostringstream metrics;
  bool first = true;
  for (const pb::MetricDef& m : pb::metric_catalogue()) {
    if (m.kind != kind) continue;
    const std::string name(m.name);
    const auto it = out.metrics.find(name);
    double v = it == out.metrics.end() ? 0.0 : it->second;
    if (kind == pb::MetricKind::kEndToEnd && it == out.metrics.end()) {
      out.gate(false, "end-to-end metric " + name + " not measured", 0);
    }
    if (!std::isfinite(v)) {
      out.gate(false, "metric " + name + " is not finite", 0);
      v = 0.0;
    }
    metrics << (first ? "" : ", ") << quote(name) << ": {\"value\": "
            << number(v) << ", \"unit\": " << quote(std::string(m.unit))
            << "}";
    first = false;
  }
  const bool correct = out.failures.empty();
  std::cout << "host " << stamp << '\n';
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return 0;
}
