// Workloads "modelgap" and "cst-1m": the CST discrete-event simulators
// (Theorem 3). modelgap runs the Figs. 11-13 experiment (Dijkstra, dual
// Dijkstra and SSRmin on an 8-node ring, one worker), whose event queue is
// small and cache resident; cst-1m runs SSRmin on a 10^6-node ring at two
// workers, where queue and memory cost dominate. Layer: msgpass.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "bench.hpp"
#include "core/legitimacy.hpp"
#include "msgpass/factories.hpp"
#include "msgpass/pdes.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace pb {
namespace {

using namespace ssr;

msgpass::NetworkParams network(std::uint64_t seed, std::size_t workers) {
  msgpass::NetworkParams p;
  p.delay_min = 0.5;
  p.delay_max = 1.0;
  p.loss_probability = 0.0;
  p.refresh_interval = 8.0;
  p.service_min = 0.4;
  p.service_max = 0.9;
  p.seed = seed;
  p.workers = workers;
  return p;
}

/// Every CoverageStats field, doubles bit-exact.
std::string fingerprint(const msgpass::CoverageStats& s) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%a %a %zu %zu %zu %llu %llu %llu %llu %llu "
                "%llu %llu",
                s.observed_time, s.zero_token_time, s.zero_intervals,
                s.min_holders, s.max_holders,
                static_cast<unsigned long long>(s.events),
                static_cast<unsigned long long>(s.deliveries),
                static_cast<unsigned long long>(s.transmissions),
                static_cast<unsigned long long>(s.losses),
                static_cast<unsigned long long>(s.rule_executions),
                static_cast<unsigned long long>(s.crash_restarts),
                static_cast<unsigned long long>(s.handovers));
  return buf;
}

/// Hold-model cost of the engine's event queue: fill a reserved heap to
/// @p occupancy records, then pop the minimum and push a successor a
/// random delay later, @p holds times. Returns ns per heap operation.
double heap_ns_per_op(std::size_t occupancy, std::uint64_t holds,
                      std::uint64_t seed) {
  Rng rng(seed);
  auto heap = msgpass::pdes::make_heap_reserved(occupancy);
  for (std::size_t i = 0; i < occupancy; ++i) {
    msgpass::pdes::HeapRec rec;
    rec.time = rng.uniform01() * 8.0;
    rec.order = msgpass::pdes::make_order(i, 0);
    heap.push(rec);
  }
  std::uint32_t seq = 1;
  const auto t0 = Clock::now();
  for (std::uint64_t h = 0; h < holds; ++h) {
    msgpass::pdes::HeapRec rec = heap.top();
    heap.pop();
    rec.time += 0.5 + 0.5 * rng.uniform01();
    rec.order = msgpass::pdes::make_order(h % occupancy, seq++);
    heap.push(rec);
  }
  return 1e9 * seconds_since(t0) / (2.0 * static_cast<double>(holds));
}

/// Mean records in the event queue over a finished run, by Little's law:
/// one refresh timer per node, plus a delivery and a link-free record per
/// transmission held for the mean transit delay, plus a pending execution
/// per rule execution held for the mean service time.
double queue_occupancy(const msgpass::CoverageStats& s, std::size_t nodes,
                       const msgpass::NetworkParams& p) {
  const double delay = 0.5 * (p.delay_min + p.delay_max);
  const double service = 0.5 * (p.service_min + p.service_max);
  return static_cast<double>(nodes) +
         (2.0 * static_cast<double>(s.transmissions) * delay +
          static_cast<double>(s.rule_executions) * service) /
             s.observed_time;
}

/// Runs the hold model at the per-shard occupancy of a run and records
/// both as metrics with the given suffix.
void heap_hold(double occupancy, std::size_t shards, std::uint64_t holds,
               std::uint64_t seed, const std::string& suffix, Outcome& out) {
  const auto per_shard = static_cast<std::size_t>(
      std::max(1.0, std::round(occupancy / static_cast<double>(shards))));
  out.metrics["msgpass.heap_occupancy." + suffix] =
      static_cast<double>(per_shard);
  out.metrics["msgpass.heap_ns_per_op." + suffix] =
      heap_ns_per_op(per_shard, holds, seed);
}

// --- modelgap -------------------------------------------------------------

constexpr std::size_t kGapNodes = 8;

struct GapSetup {
  dijkstra::KStateRing kring{kGapNodes, kGapNodes + 1};
  dijkstra::DualKStateRing dring{kGapNodes, kGapNodes + 1};
  core::SsrMinRing sring{kGapNodes, kGapNodes + 1};
  msgpass::CstSimulation<dijkstra::KStateRing> dijkstra;
  msgpass::CstSimulation<dijkstra::DualKStateRing> dual;
  msgpass::CstSimulation<core::SsrMinRing> ssrmin;

  static dijkstra::DualConfig dual_start() {
    dijkstra::DualConfig init(kGapNodes);
    for (std::size_t i = 0; i < kGapNodes; ++i) {
      init[i].b = i < kGapNodes / 2 ? 1 : 0;
    }
    return init;
  }

  explicit GapSetup(std::uint64_t seed)
      : dijkstra(msgpass::make_kstate_cst(kring,
                                          dijkstra::KStateConfig(kGapNodes),
                                          network(seed, 1))),
        dual(msgpass::make_dual_cst(dring, dual_start(), network(seed, 1))),
        ssrmin(msgpass::make_ssrmin_cst(
            sring, core::canonical_legitimate(sring, 0), network(seed, 1))) {}
};

// Each simulator runs its ticks in this many windows, interleaved with the
// other two. An untraced run takes a rate sample per window: the median
// over many short windows is less sensitive to a slow spell of the host
// than one over a few long runs.
constexpr int kGapWindows = 4;

struct GapRun {
  msgpass::CoverageStats stats;
  double wall_s = 0.0;

  /// Adds a later window of the same simulation.
  void add(const GapRun& w) {
    auto& s = stats;
    const auto& o = w.stats;
    s.observed_time += o.observed_time;
    s.zero_token_time += o.zero_token_time;
    s.zero_intervals += o.zero_intervals;
    s.min_holders = std::min(s.min_holders, o.min_holders);
    s.max_holders = std::max(s.max_holders, o.max_holders);
    s.events += o.events;
    s.deliveries += o.deliveries;
    s.transmissions += o.transmissions;
    s.losses += o.losses;
    s.rule_executions += o.rule_executions;
    s.crash_restarts += o.crash_restarts;
    s.handovers += o.handovers;
    wall_s += w.wall_s;
  }
};

template <typename Sim>
GapRun timed_window(Sim& sim, double ticks, Tracer& tracer, const char* name,
                    int parent, int run) {
  Scope span(tracer, name, parent, run);
  const auto t0 = Clock::now();
  GapRun r{sim.run(ticks), 0.0};
  r.wall_s = seconds_since(t0);
  span.count("events", static_cast<double>(r.stats.events));
  return r;
}

struct GapJob {
  GapRun dijkstra, dual, ssrmin;
  /// Per window: events/s of the three simulators together, and of SSRmin.
  std::vector<double> window_rate, ssrmin_window_rate;

  std::uint64_t events() const {
    return dijkstra.stats.events + dual.stats.events + ssrmin.stats.events;
  }
  double wall_s() const {
    return dijkstra.wall_s + dual.wall_s + ssrmin.wall_s;
  }
};

GapJob run_gap_job(GapSetup& s, double ticks, Tracer& tracer, int run,
                   Outcome& out) {
  Scope root(tracer, "bench.job", -1, run);
  const double window = ticks / kGapWindows;
  GapJob job;
  for (int w = 0; w < kGapWindows; ++w) {
    const GapRun d = timed_window(s.dijkstra, window, tracer,
                                  "msgpass.run.dijkstra", root.id(), run);
    const GapRun u = timed_window(s.dual, window, tracer, "msgpass.run.dual",
                                  root.id(), run);
    const GapRun m = timed_window(s.ssrmin, window, tracer,
                                  "msgpass.run.ssrmin", root.id(), run);
    job.dijkstra.add(d);
    job.dual.add(u);
    job.ssrmin.add(m);
    job.window_rate.push_back(
        static_cast<double>(d.stats.events + u.stats.events + m.stats.events) /
        (d.wall_s + u.wall_s + m.wall_s));
    job.ssrmin_window_rate.push_back(static_cast<double>(m.stats.events) /
                                     m.wall_s);
  }
  const auto& ss = job.ssrmin.stats;
  out.attempted += job.events();
  out.gate(ss.coverage() == 1.0 && ss.zero_intervals == 0,
           "ssrmin coverage below 100%", job.events());
  out.gate(ss.min_holders >= 1 && ss.max_holders <= 2,
           "ssrmin holders left [1,2]", job.events());
  out.gate(job.dijkstra.stats.coverage() < 1.0,
           "dijkstra coverage reached 100%: the model gap vanished",
           job.events());
  return job;
}

// --- cst-1m ---------------------------------------------------------------

constexpr std::size_t kCstWorkers = 2;

struct CstSize {
  std::size_t nodes;
  double ticks;
  std::uint64_t heap_holds;
};
constexpr CstSize kCstFull{1'000'000, 4.0, 2'000'000};
constexpr CstSize kCstSmoke{1'000, 4.0, 20'000};

using SsrSim = msgpass::CstSimulation<core::SsrMinRing>;

std::unique_ptr<SsrSim> make_cst(const core::SsrMinRing& ring,
                                 std::uint64_t seed, std::size_t workers) {
  const auto x = static_cast<std::uint32_t>(seed % ring.modulus());
  return std::make_unique<SsrSim>(msgpass::make_ssrmin_cst(
      ring, core::canonical_legitimate(ring, x), network(seed, workers)));
}

void cst_gates(const msgpass::CoverageStats& s, Outcome& out) {
  out.attempted += s.events;
  out.gate(s.min_holders >= 1 && s.max_holders <= 2,
           "ssrmin holders left [1,2]", s.events);
}

}  // namespace

Outcome run_modelgap(const RunConfig& cfg, Tracer& tracer) {
  const double ticks = cfg.smoke ? 2000.0 : 400000.0;
  const std::uint64_t holds = cfg.smoke ? 20'000 : 4'000'000;
  Outcome out;
  if (!cfg.trace) {
    const auto sample_setups = [&] {
      sample_setup(out, cfg.smoke ? 3 : 100, 300,
                   [&] { GapSetup setup(cfg.seed); });
    };
    sample_setups();
    repeat_for(cfg.seconds, 2, [&](int rep) {
      {
        auto setup = std::make_unique<GapSetup>(cfg.seed);
        const GapJob job = run_gap_job(*setup, ticks, tracer, rep, out);
        for (double r : job.window_rate) out.sample("ops_per_s", r);
        for (double r : job.ssrmin_window_rate) out.sample("side_per_s", r);
        out.sample("good_frac", job.ssrmin.stats.coverage());
      }
      sample_setups();
    });
    set_end_to_end_metrics(out);
    return out;
  }

  Tracer off(false);
  auto plain_setup = std::make_unique<GapSetup>(cfg.seed);
  const GapJob plain = run_gap_job(*plain_setup, ticks, off, 0, out);
  auto setup = [&] {
    Scope span(tracer, "msgpass.setup", -1, 1);
    return std::make_unique<GapSetup>(cfg.seed);
  }();
  const GapJob job = run_gap_job(*setup, ticks, tracer, 1, out);
  out.metrics["trace.overhead_s"] = job.wall_s() - plain.wall_s();
  out.metrics["trace.overhead_frac"] = job.wall_s() / plain.wall_s() - 1.0;
  const std::pair<const char*, const GapRun*> runs[] = {
      {"ssrmin", &job.ssrmin},
      {"dijkstra", &job.dijkstra},
      {"dual", &job.dual}};
  for (const auto& [name, r] : runs) {
    out.metrics[std::string("msgpass.run_s.") + name] = r->wall_s;
    out.metrics[std::string("msgpass.ns_per_event.") + name] =
        1e9 * r->wall_s / static_cast<double>(r->stats.events);
  }
  {
    Scope span(tracer, "msgpass.heap_hold.small", -1, 2);
    const msgpass::NetworkParams p = network(cfg.seed, 1);
    double occupancy = 0.0;
    for (const auto& [name, r] : runs) {
      occupancy += queue_occupancy(r->stats, kGapNodes, p) / 3.0;
    }
    heap_hold(occupancy, 1, holds, cfg.seed, "small", out);
  }
  return out;
}

Outcome run_cst(const RunConfig& cfg, Tracer& tracer) {
  const CstSize size = cfg.smoke ? kCstSmoke : kCstFull;
  const core::SsrMinRing ring(size.nodes,
                              static_cast<std::uint32_t>(size.nodes + 1));
  Outcome out;
  const auto timed_setup = [&](std::size_t workers) {
    const auto t0 = Clock::now();
    auto sim = make_cst(ring, cfg.seed, workers);
    out.sample("setup_s", seconds_since(t0));
    return sim;
  };
  const auto timed_run = [&](SsrSim& sim, double& wall_s) {
    const auto t0 = Clock::now();
    const msgpass::CoverageStats s = sim.run(size.ticks);
    wall_s = seconds_since(t0);
    cst_gates(s, out);
    return s;
  };
  if (!cfg.trace) {
    timed_setup(kCstWorkers);
    repeat_for(cfg.seconds, 2, [&](int) {
      auto sim = timed_setup(kCstWorkers);
      double wall_s = 0.0;
      const msgpass::CoverageStats s = timed_run(*sim, wall_s);
      out.sample("ops_per_s", static_cast<double>(s.events) / wall_s);
      out.sample("side_per_s", static_cast<double>(s.deliveries) / wall_s);
      out.sample("good_frac", s.coverage());
    });
    set_end_to_end_metrics(out);
    return out;
  }

  // Untraced 2-worker run: overhead baseline and the reference the
  // 1-worker replay must reproduce.
  double plain_s = 0.0;
  msgpass::CoverageStats reference;
  {
    auto sim = timed_setup(kCstWorkers);
    reference = timed_run(*sim, plain_s);
  }
  double traced_s = 0.0;
  {
    std::unique_ptr<SsrSim> sim;
    {
      Scope span(tracer, "msgpass.setup", -1, 1);
      sim = make_cst(ring, cfg.seed, kCstWorkers);
    }
    Scope root(tracer, "bench.job", -1, 1);
    std::vector<double> windows;
    const auto t0 = Clock::now();
    for (double t = 0.0; t < size.ticks; t += 1.0) {
      Scope span(tracer, "msgpass.window", root.id(), 1);
      const auto tw = Clock::now();
      const msgpass::CoverageStats s = sim->run(1.0);
      windows.push_back(seconds_since(tw));
      span.count("events", static_cast<double>(s.events));
      cst_gates(s, out);
    }
    traced_s = seconds_since(t0);
    out.metrics["msgpass.window_s_p50"] = median(windows);
    out.metrics["msgpass.window_s_max"] = percentile(windows, 100.0);
  }
  out.metrics["trace.overhead_s"] = traced_s - plain_s;
  out.metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0;
  {
    std::unique_ptr<SsrSim> sim;
    {
      Scope span(tracer, "msgpass.setup", -1, 2);
      sim = make_cst(ring, cfg.seed, 1);
    }
    Scope span(tracer, "msgpass.run_serial", -1, 2);
    double serial_s = 0.0;
    const msgpass::CoverageStats s = timed_run(*sim, serial_s);
    out.gate(fingerprint(s) == fingerprint(reference),
             "1-worker CoverageStats differ from the 2-worker ones", s.events);
    out.metrics["msgpass.serial_s"] = serial_s;
    out.metrics["msgpass.parallel_speedup"] = serial_s / plain_s;
  }
  {
    Scope span(tracer, "msgpass.heap_hold.1m", -1, 3);
    heap_hold(queue_occupancy(reference, size.nodes,
                              network(cfg.seed, kCstWorkers)),
              kCstWorkers, size.heap_holds, cfg.seed, "1m", out);
  }
  return out;
}

}  // namespace pb
