// ssring — the umbrella command-line tool for the library.
//
//   ssring trace     [--n N] [--k K] [--steps S] [--daemon D] [--seed X]
//                    [--start legit|random|allzero]
//       Print a Figure-4-style execution table.
//
//   ssring converge  [--n N] [--trials T] [--daemon D] [--seed X]
//                    [--threads W] [--batched on|off]
//       Convergence-step statistics from random initial configurations.
//       Trials fan out over W workers (0 = hardware); the table is
//       identical at every worker count. --batched (default on) runs
//       64 bit-sliced trials per u64 lane word when the daemon has a lane
//       replay — same table, less wall time.
//
//   ssring check     [--n N] [--k K] [--threads T] [--mode M] [--tmpdir D]
//       Exhaustive model check (small n): lemmas 1/2/4/6 + exact worst
//       case. T = 0 (default) uses one worker per hardware thread; the
//       report is identical at every thread count and in every --mode,
//       including spill (Phase B move records stream through a temp file
//       in --tmpdir / $SSRING_CHECK_TMPDIR when the space outgrows RAM).
//
//   ssring modelgap  [--n N] [--delay D] [--duration T] [--seed X]
//                    [--workers W]
//       Token availability of ssrmin vs dijkstra vs 2x dijkstra under CST.
//       W > 1 shards the conservative PDES engine over contiguous ring
//       segments (0 = hardware threads); the table is byte-identical at
//       every worker count.
//
//   ssring timeline  [--n N] [--cols C] [--algo ssrmin|dijkstra|dual]
//       ASCII token timeline (the Figures 11-13 visual).
//
//   ssring camera    [--n N] [--duration T]
//       Camera-network policy comparison.
//
//   ssring mis       [--n N] [--topology ring|path|star|complete|random]
//       Run the MIS (local mutual inclusion) to silence and print it.
//
//   ssring markov    [--n N] [--k K]
//       Exact expected stabilization time under the random central daemon.
//
//   ssring perturb   [--n N] [--k K]
//       Exhaustive single-fault recovery analysis.
//
//   ssring tail      [--n N] [--spread S] [--duration T]
//       Delay-variance stress on the graceful handover (experiment E22).
//
//   ssring run-threaded [--n N] [--k K] [--seed X] [--algo ssrmin|dijkstra]
//                       [--duration-ms D] [--interval-us I] [--refresh-us R]
//                       [--loss P] [--fault-plan SPEC] [--telemetry-json F]
//       Run the real-thread runtime under a fault plan and report holder
//       coverage; optionally export the telemetry JSON ('-' = stdout).
//
//   ssring run-multi    [--rings R] [--n N] [--k K] [--seed X]
//                       [--protocol ssrmin|dijkstra|dual|mixed]
//                       [--shards S] [--transport virtual|udp]
//                       [--duration-ms D] [--refresh-us R]
//                       [--start random|legit] [--fault-plan SPEC]
//                       [--telemetry-json F]
//       Host R independent rings on one epoll-multiplexed reactor (v2
//       wire frames over shared sockets). The virtual transport is
//       seeded-deterministic; --telemetry-json exports per-ring
//       telemetry ('-' = stdout). Exits 0 iff every ring ends legitimate.
//
//   ssring run-udp      [run-multi options]
//       Alias for `run-multi --rings 1 --transport udp --start legit`:
//       one SSRmin ring over loopback UDP with CRC-framed wire messages;
//       faults come from --fault-plan (e.g. "corrupt=0.2;drop=0.1").
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "core/legitimacy.hpp"
#include "core/ssrmin.hpp"
#include "core/ssrmin_sliced.hpp"
#include "dijkstra/dual.hpp"
#include "graph/check.hpp"
#include "graph/protocol.hpp"
#include "inclusion/camera.hpp"
#include "msgpass/factories.hpp"
#include "msgpass/timeline.hpp"
#include "runtime/factories.hpp"
#include "runtime/reactor.hpp"
#include "runtime/telemetry.hpp"
#include "sim/batch_dispatch.hpp"
#include "sim/batch_engine.hpp"
#include "sim/sweep.hpp"
#include "stabilizing/daemon.hpp"
#include "stabilizing/engine.hpp"
#include "stabilizing/trace.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "verify/checkers.hpp"
#include "verify/markov.hpp"
#include "verify/perturbation.hpp"

namespace {

using namespace ssr;

const char* value_of(int argc, char** argv, const char* key,
                     const char* fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* key) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) return true;
  }
  return false;
}

/// A malformed command-line value: main() prints it and exits with 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The value of a numeric flag, parsed strictly: decimal digits only (no
/// sign, blank or trailing junk) and within [lo, hi]. Anything else throws
/// a UsageError naming the flag. An absent flag yields `fallback`.
std::uint64_t uint_flag(int argc, char** argv, const char* key,
                        std::uint64_t fallback, std::uint64_t lo,
                        std::uint64_t hi) {
  const char* text = value_of(argc, argv, key, nullptr);
  if (text == nullptr) return fallback;
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (text == end || ptr != end || ec != std::errc{} || value < lo ||
      value > hi) {
    throw UsageError(std::string(key) + " expects an integer in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) +
                     "], got '" + text + "'");
  }
  return value;
}

/// Ring sizes, trial counts and step counts stay far below the points
/// where sizes or block plans would overflow.
constexpr std::uint64_t kMaxCount = 100'000'000;
/// Worker counts (0 = one per hardware thread).
constexpr std::uint64_t kMaxWorkers = 1024;

std::size_t arg_n(int argc, char** argv, std::uint64_t fallback = 5) {
  return static_cast<std::size_t>(
      uint_flag(argc, argv, "--n", fallback, 1, kMaxCount));
}

/// --k, or 0 when absent or 0 (the caller's default modulus).
std::uint32_t arg_k_or_zero(int argc, char** argv) {
  return static_cast<std::uint32_t>(
      uint_flag(argc, argv, "--k", 0, 0, UINT32_MAX));
}

std::uint32_t arg_k(int argc, char** argv, std::size_t n) {
  const std::uint32_t k = arg_k_or_zero(argc, argv);
  return k > 0 ? k : static_cast<std::uint32_t>(n + 1);
}

std::uint64_t arg_seed(int argc, char** argv) {
  return uint_flag(argc, argv, "--seed", 1, 0, UINT64_MAX);
}

std::size_t arg_workers(int argc, char** argv, const char* key,
                        std::uint64_t fallback) {
  return static_cast<std::size_t>(
      uint_flag(argc, argv, key, fallback, 0, kMaxWorkers));
}

int cmd_trace(int argc, char** argv) {
  const std::size_t n = arg_n(argc, argv);
  const std::uint32_t K = arg_k(argc, argv, n);
  const std::uint64_t steps =
      uint_flag(argc, argv, "--steps", 20, 0, kMaxCount);
  const std::string daemon_name =
      value_of(argc, argv, "--daemon", "central-round-robin");
  const std::string start = value_of(argc, argv, "--start", "legit");
  Rng rng(arg_seed(argc, argv));

  const core::SsrMinRing ring(n, K);
  core::SsrConfig initial;
  if (start == "legit") {
    initial = core::canonical_legitimate(ring, 0);
  } else if (start == "random") {
    initial = core::random_config(ring, rng);
  } else if (start == "allzero") {
    initial.assign(n, core::SsrState{});
  } else {
    std::cerr << "unknown --start: " << start << '\n';
    return 2;
  }
  stab::Engine<core::SsrMinRing> engine(ring, initial);
  auto daemon = stab::make_daemon(daemon_name, rng.split());
  stab::TraceRecorder<core::SsrMinRing> rec;
  rec.run(engine, *daemon, steps);
  std::cout << stab::format_trace<core::SsrMinRing>(rec.entries(),
                                                    core::trace_style(ring));
  std::cout << "\nlegitimate: "
            << (core::is_legitimate(ring, engine.config()) ? "yes" : "no")
            << ", privileged: "
            << core::privileged_count(ring, engine.config()) << '\n';
  return 0;
}

int cmd_converge(int argc, char** argv) {
  const std::size_t n = arg_n(argc, argv, 16);
  const std::uint32_t K = arg_k(argc, argv, n);
  const std::uint64_t trials =
      uint_flag(argc, argv, "--trials", 50, 1, kMaxCount);
  const std::string daemon_name =
      value_of(argc, argv, "--daemon", "distributed-random-subset");
  sim::SweepOptions sweep_options;
  sweep_options.threads = arg_workers(argc, argv, "--threads", 0);
  // --batched on|off (default on): bit-sliced 64-lane execution whenever
  // the requested daemon has a lane replay; the statistics are identical
  // either way (the lanes replay the scalar trials draw-for-draw).
  const std::string batched_arg = value_of(argc, argv, "--batched", "on");
  const bool batched_requested =
      !(batched_arg == "off" || batched_arg == "0" || batched_arg == "no" ||
        batched_arg == "false");
  const bool use_batch =
      batched_requested && sim::batch_daemon_supported(daemon_name);

  const core::SsrMinRing ring(n, K);
  sim::TrialSweep sweep(sweep_options);
  const std::uint64_t seed = arg_seed(argc, argv);
  const std::uint64_t budget = 200ULL * n * n;
  std::vector<double> results;
  if (use_batch) {
    const auto spec = sim::lane_daemon_spec(daemon_name);
    const auto blocks = sim::plan_blocks(trials, sweep.threads());
    const auto per_block = sweep.map(blocks.size(), [&](std::uint64_t b) {
      return sim::run_convergence_block_ssrmin(ring, spec, seed, blocks[b],
                                               budget, /*two_phase=*/false);
    });
    for (const auto& block : per_block) {
      for (const auto& trial : block) {
        results.push_back(trial.result.reached
                              ? static_cast<double>(trial.result.steps)
                              : -1.0);
      }
    }
  } else {
    results = sweep.run_trials(
        seed, trials, [&](std::uint64_t, Rng& rng) {
          stab::Engine<core::SsrMinRing> engine(
              ring, core::random_config(ring, rng));
          auto daemon = stab::make_daemon(daemon_name, rng.split());
          auto legit = [&ring](const core::SsrConfig& c) {
            return core::is_legitimate(ring, c);
          };
          const auto r = stab::run_until(engine, *daemon, legit, budget);
          return r.reached ? static_cast<double>(r.steps) : -1.0;
        });
  }
  SampleSet steps;
  for (double s : results) {
    if (s >= 0.0) steps.add(s);
  }
  std::cout << "(engine: " << (use_batch ? "batched, 64 lanes" : "scalar");
  if (batched_requested && !use_batch) {
    std::cout << "; daemon '" << daemon_name << "' has no lane replay";
  }
  std::cout << ")\n";
  TextTable table({"n", "K", "daemon", "trials", "mean", "p50", "p95", "max",
                   "mean/n^2"});
  table.row()
      .cell(n)
      .cell(K)
      .cell(daemon_name)
      .cell(steps.count())
      .cell(steps.mean(), 1)
      .cell(steps.median(), 1)
      .cell(steps.percentile(95), 1)
      .cell(steps.max(), 0)
      .cell(steps.mean() / (static_cast<double>(n) * n), 3);
  std::cout << table.render();
  return 0;
}

int cmd_check(int argc, char** argv) {
  const std::size_t n = arg_n(argc, argv, 3);
  const std::uint32_t K = arg_k(argc, argv, n);
  const std::string protocol = value_of(argc, argv, "--protocol", "ssrmin");
  verify::CheckOptions options;
  options.threads = arg_workers(argc, argv, "--threads", 0);
  const std::string mode = value_of(argc, argv, "--mode", "auto");
  if (mode == "auto") {
    options.storage = verify::PhaseBStorage::kAuto;
  } else if (mode == "compressed") {
    options.storage = verify::PhaseBStorage::kCompressed;
  } else if (mode == "csr-free") {
    options.storage = verify::PhaseBStorage::kCsrFree;
  } else if (mode == "spill") {
    options.storage = verify::PhaseBStorage::kSpill;
  } else {
    std::cerr << "unknown --mode " << mode
              << " (auto | compressed | csr-free | spill)\n";
    return 2;
  }
  options.memory_budget_bytes = static_cast<std::uint64_t>(
      std::atoll(value_of(argc, argv, "--budget", "0")));
  options.spill_dir = value_of(argc, argv, "--tmpdir", "");
  const std::string phase_a = value_of(argc, argv, "--phase-a", "auto");
  if (phase_a == "auto") {
    options.phase_a = verify::PhaseAMode::kAuto;
  } else if (phase_a == "scalar") {
    options.phase_a = verify::PhaseAMode::kScalar;
  } else if (phase_a == "sliced") {
    options.phase_a = verify::PhaseAMode::kSliced;
  } else {
    std::cerr << "unknown --phase-a " << phase_a
              << " (auto | scalar | sliced)\n";
    return 2;
  }
  const bool stats = has_flag(argc, argv, "--stats");

  auto check = [&](auto checker, const char* name) {
    std::cout << "checking all " << checker.codec().total()
              << " configurations of " << name << "(n=" << n << ", K=" << K
              << ") under the full distributed daemon...\n";
    const auto report = checker.run(options);
    std::cout << report.summary() << '\n';
    if (stats) std::cout << report.stats.summary() << '\n';
    return report.all_ok() ? 0 : 1;
  };
  if (protocol == "ssrmin") {
    return check(verify::make_ssrmin_checker(n, K), "SSRmin");
  }
  if (protocol == "dijkstra") {
    return check(verify::make_kstate_checker(n, K), "Dijkstra");
  }
  std::cerr << "unknown --protocol " << protocol << " (ssrmin | dijkstra)\n";
  return 2;
}

int cmd_modelgap(int argc, char** argv) {
  const std::size_t n = arg_n(argc, argv, 5);
  const std::uint32_t K = arg_k(argc, argv, n);
  const double delay = std::atof(value_of(argc, argv, "--delay", "1.0"));
  const double duration =
      std::atof(value_of(argc, argv, "--duration", "4000"));
  msgpass::NetworkParams net;
  net.delay_min = 0.5 * delay;
  net.delay_max = delay;
  net.refresh_interval = 8.0 * delay;
  net.seed = arg_seed(argc, argv);
  // Sharded engine: 0 = one worker per hardware thread. Statistics are
  // byte-identical at every worker count; this is a wall-clock knob.
  net.workers = arg_workers(argc, argv, "--workers", 1);

  TextTable table({"algorithm", "coverage %", "zero intervals", "min holders",
                   "max holders", "handovers"});
  auto add = [&table](const std::string& name,
                      const msgpass::CoverageStats& s) {
    table.row()
        .cell(name)
        .cell(100.0 * s.coverage(), 2)
        .cell(s.zero_intervals)
        .cell(s.min_holders)
        .cell(s.max_holders)
        .cell(s.handovers);
  };
  {
    dijkstra::KStateRing ring(n, K);
    auto sim = msgpass::make_kstate_cst(ring, dijkstra::KStateConfig(n), net);
    add("dijkstra", sim.run(duration));
  }
  {
    dijkstra::DualKStateRing ring(n, K);
    dijkstra::DualConfig init(n);
    for (std::size_t i = 0; i < n; ++i) init[i].b = (i < n / 2) ? 1 : 0;
    auto sim = msgpass::make_dual_cst(ring, init, net);
    add("2x dijkstra", sim.run(duration));
  }
  {
    core::SsrMinRing ring(n, K);
    auto sim = msgpass::make_ssrmin_cst(
        ring, core::canonical_legitimate(ring, 0), net);
    add("ssrmin", sim.run(duration));
  }
  std::cout << table.render();
  return 0;
}

int cmd_timeline(int argc, char** argv) {
  const std::size_t n = arg_n(argc, argv, 5);
  const std::uint32_t K = arg_k(argc, argv, n);
  const auto cols = static_cast<std::size_t>(
      std::atoi(value_of(argc, argv, "--cols", "96")));
  const std::string algo = value_of(argc, argv, "--algo", "ssrmin");
  msgpass::NetworkParams net;
  net.seed = arg_seed(argc, argv);
  const double resolution = 0.5;
  const double duration = resolution * static_cast<double>(cols) + 5.0;
  msgpass::TimelineRecorder rec(n, resolution);
  if (algo == "ssrmin") {
    core::SsrMinRing ring(n, K);
    auto sim = msgpass::make_ssrmin_cst(
        ring, core::canonical_legitimate(ring, 0), net);
    rec.attach(sim);
    sim.run(duration);
  } else if (algo == "dijkstra") {
    dijkstra::KStateRing ring(n, K);
    auto sim = msgpass::make_kstate_cst(ring, dijkstra::KStateConfig(n), net);
    rec.attach(sim);
    sim.run(duration);
  } else if (algo == "dual") {
    dijkstra::DualKStateRing ring(n, K);
    dijkstra::DualConfig init(n);
    for (std::size_t i = 0; i < n; ++i) init[i].b = (i < n / 2) ? 1 : 0;
    auto sim = msgpass::make_dual_cst(ring, init, net);
    rec.attach(sim);
    sim.run(duration);
  } else {
    std::cerr << "unknown --algo: " << algo << '\n';
    return 2;
  }
  std::cout << rec.render(cols);
  std::cout << "legend: '#' holds a token, '!' zero holders, '2' two "
               "holders\n";
  return 0;
}

int cmd_camera(int argc, char** argv) {
  incl::CameraParams params;
  params.node_count = arg_n(argc, argv, 8);
  params.duration = std::atof(value_of(argc, argv, "--duration", "3000"));
  params.net.seed = arg_seed(argc, argv);
  TextTable table({"policy", "coverage %", "blackouts", "mean active",
                   "energy", "min battery", "fairness"});
  for (auto policy :
       {incl::CameraPolicy::kSsrMin, incl::CameraPolicy::kDijkstra,
        incl::CameraPolicy::kDualDijkstra, incl::CameraPolicy::kAllActive}) {
    const auto r = incl::run_camera(policy, params);
    table.row()
        .cell(incl::to_string(policy))
        .cell(100.0 * r.coverage, 3)
        .cell(r.blackout_intervals)
        .cell(r.mean_active, 2)
        .cell(r.energy_consumed, 0)
        .cell(r.min_battery, 1)
        .cell(r.duty_fairness, 3);
  }
  std::cout << table.render();
  return 0;
}

int cmd_mis(int argc, char** argv) {
  const std::size_t n = arg_n(argc, argv, 9);
  const std::string topo_name = value_of(argc, argv, "--topology", "ring");
  Rng rng(arg_seed(argc, argv));
  const auto topo_opt = [&]() -> std::optional<graph::Topology> {
    if (topo_name == "ring") return graph::Topology::ring(n);
    if (topo_name == "path") return graph::Topology::path(n);
    if (topo_name == "star") return graph::Topology::star(n);
    if (topo_name == "complete") return graph::Topology::complete(n);
    if (topo_name == "random")
      return graph::Topology::random_connected(n, 0.25, rng);
    return std::nullopt;
  }();
  if (!topo_opt) {
    std::cerr << "unknown --topology: " << topo_name
              << " (ring | path | star | complete | random)\n";
    return 2;
  }
  const graph::Topology& topo = *topo_opt;
  graph::TurauMis mis(topo);
  graph::GraphEngine<graph::TurauMis> engine(mis,
                                             graph::random_config(topo, rng));
  stab::RandomSubsetDaemon daemon{rng.split(), 0.5};
  const auto steps = graph::run_to_silence(engine, daemon, 1000000);
  if (!steps.has_value()) {
    std::cerr << "did not stabilize within the step budget\n";
    return 1;
  }
  std::cout << "topology " << topo_name << " (n=" << n << ", "
            << topo.edge_count() << " edges) stabilized after " << *steps
            << " steps\n";
  std::cout << "MIS members (always-active nodes):";
  for (std::size_t m : graph::mis_members(engine.config())) {
    std::cout << " v" << m;
  }
  std::cout << "\nstable MIS: "
            << (graph::is_stable_mis(topo, engine.config()) ? "yes" : "no")
            << '\n';
  return 0;
}

int cmd_markov(int argc, char** argv) {
  const std::size_t n = arg_n(argc, argv, 3);
  const std::uint32_t K = arg_k(argc, argv, n);
  auto checker = verify::make_ssrmin_checker(n, K);
  verify::CheckOptions options;
  options.keep_heights = true;
  const auto check = checker.run(options);
  const auto hit = verify::expected_hitting_times(checker);
  TextTable table({"configs", "mean E[steps]", "max E[steps]",
                   "adversarial worst case", "solver converged"});
  table.row()
      .cell(checker.codec().total())
      .cell(hit.mean_expected, 3)
      .cell(hit.max_expected, 3)
      .cell(check.worst_case_steps)
      .cell(hit.converged);
  std::cout << table.render();
  return 0;
}

int cmd_perturb(int argc, char** argv) {
  const std::size_t n = arg_n(argc, argv, 3);
  const std::uint32_t K = arg_k(argc, argv, n);
  const verify::PerturbationReport r = verify::analyze_single_faults(n, K);
  std::cout << r.summary() << "\nrecovery distribution:\n";
  TextTable hist({"steps", "cases"});
  for (std::size_t s = 0; s < r.histogram.size(); ++s) {
    if (r.histogram[s] != 0) hist.row().cell(s).cell(r.histogram[s]);
  }
  std::cout << hist.render();
  return r.safety_preserved ? 0 : 1;
}

int cmd_tail(int argc, char** argv) {
  const std::size_t n = arg_n(argc, argv, 3);
  const std::uint32_t K = arg_k(argc, argv, n);
  const double spread = std::atof(value_of(argc, argv, "--spread", "3.0"));
  const double duration =
      std::atof(value_of(argc, argv, "--duration", "200000"));
  TextTable table({"delay model", "coverage %", "zero intervals",
                   "mean gap"});
  for (auto model : {msgpass::DelayModel::kUniform,
                     msgpass::DelayModel::kExponentialTail}) {
    core::SsrMinRing ring(n, K);
    msgpass::NetworkParams p;
    p.delay_min = 0.05;
    p.delay_max = 0.05 + spread;
    p.delay_model = model;
    p.service_min = 0.05;
    p.service_max = 0.1;
    p.refresh_interval = 40.0;
    p.seed = arg_seed(argc, argv);
    auto sim = msgpass::make_ssrmin_cst(
        ring, core::canonical_legitimate(ring, 0), p);
    const auto s = sim.run(duration);
    table.row()
        .cell(model == msgpass::DelayModel::kUniform ? "uniform"
                                                     : "exponential tail")
        .cell(100.0 * s.coverage(), 4)
        .cell(s.zero_intervals)
        .cell(s.zero_intervals > 0
                  ? s.zero_token_time / static_cast<double>(s.zero_intervals)
                  : 0.0,
              2);
  }
  std::cout << table.render();
  return 0;
}

int write_telemetry(const std::string& path,
                    const runtime::Telemetry& telemetry) {
  if (path.empty()) return 0;
  const std::string json = telemetry.to_json_string();
  if (path == "-") {
    std::cout << json;
    return 0;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return 1;
  }
  out << json;
  std::cout << "telemetry written to " << path << '\n';
  return 0;
}

void print_runtime_report(const runtime::SamplerReport& r) {
  TextTable table({"samples", "consistent", "zero-holder", "min", "max",
                   "handovers", "sent", "lost", "rules"});
  table.row()
      .cell(r.samples)
      .cell(r.consistent_samples)
      .cell(r.zero_holder_samples)
      .cell(r.min_holders)
      .cell(r.max_holders)
      .cell(r.handovers)
      .cell(r.messages_sent)
      .cell(r.messages_lost)
      .cell(r.rule_executions);
  std::cout << table.render();
}

int cmd_run_threaded(int argc, char** argv) {
  const std::size_t n = arg_n(argc, argv, 5);
  const std::uint32_t k = arg_k(argc, argv, n);
  const std::uint64_t seed = arg_seed(argc, argv);
  const auto duration = std::chrono::milliseconds(
      std::atoll(value_of(argc, argv, "--duration-ms", "400")));
  const auto interval = std::chrono::microseconds(
      std::atoll(value_of(argc, argv, "--interval-us", "200")));
  const std::string telemetry_path =
      value_of(argc, argv, "--telemetry-json", "");
  const std::string algo = value_of(argc, argv, "--algo", "ssrmin");
  runtime::RuntimeParams params;
  params.refresh_interval = std::chrono::microseconds(
      std::atoll(value_of(argc, argv, "--refresh-us", "1000")));
  params.loss_probability = std::atof(value_of(argc, argv, "--loss", "0"));
  params.seed = seed;
  params.fault_plan =
      runtime::FaultPlan::parse(value_of(argc, argv, "--fault-plan", ""));

  runtime::Telemetry telemetry(n);
  telemetry.set_context("threaded", algo, seed);
  runtime::SamplerReport report;
  if (algo == "ssrmin") {
    const core::SsrMinRing ring(n, k);
    auto rt = runtime::make_ssrmin_threaded(
        ring, core::canonical_legitimate(ring, 0), params);
    rt->start();
    report = rt->observe(duration, interval, &telemetry);
    rt->stop();
  } else if (algo == "dijkstra") {
    const dijkstra::KStateRing ring(n, k);
    auto rt = runtime::make_kstate_threaded(ring, dijkstra::KStateConfig(n),
                                            params);
    rt->start();
    report = rt->observe(duration, interval, &telemetry);
    rt->stop();
  } else {
    std::cerr << "unknown --algo: " << algo << '\n';
    return 2;
  }
  print_runtime_report(report);
  return write_telemetry(telemetry_path, telemetry);
}

int cmd_run_multi(int argc, char** argv) {
  runtime::ReactorConfig config;
  config.rings = static_cast<std::size_t>(
      std::atoll(value_of(argc, argv, "--rings", "256")));
  config.nodes = arg_n(argc, argv, 4);
  config.modulus = arg_k_or_zero(argc, argv);
  config.shards = static_cast<std::size_t>(
      std::atoll(value_of(argc, argv, "--shards", "1")));
  config.seed = arg_seed(argc, argv);
  config.refresh_interval = std::chrono::microseconds(
      std::atoll(value_of(argc, argv, "--refresh-us", "5000")));
  config.fault_plan =
      runtime::FaultPlan::parse(value_of(argc, argv, "--fault-plan", ""));
  const std::string protocol = value_of(argc, argv, "--protocol", "ssrmin");
  if (protocol == "mixed") {
    config.mixed = true;
  } else if (protocol == "ssrmin") {
    config.protocol = runtime::RingProtocolKind::kSsrMin;
  } else if (protocol == "dijkstra" || protocol == "kstate") {
    config.protocol = runtime::RingProtocolKind::kKState;
  } else if (protocol == "dual") {
    config.protocol = runtime::RingProtocolKind::kDual;
  } else {
    std::cerr << "unknown --protocol: " << protocol
              << " (ssrmin|dijkstra|dual|mixed)\n";
    return 2;
  }
  const std::string transport = value_of(argc, argv, "--transport", "virtual");
  if (transport == "virtual") {
    config.transport = runtime::ReactorTransport::kVirtual;
  } else if (transport == "udp") {
    config.transport = runtime::ReactorTransport::kUdp;
  } else {
    std::cerr << "unknown --transport: " << transport << " (virtual|udp)\n";
    return 2;
  }
  config.start = std::strcmp(value_of(argc, argv, "--start", "random"),
                             "legit") == 0
                     ? runtime::RingStart::kLegitimate
                     : runtime::RingStart::kRandom;
  const std::string telemetry_path =
      value_of(argc, argv, "--telemetry-json", "");
  config.per_ring_telemetry = !telemetry_path.empty();
  const auto duration = std::chrono::milliseconds(
      std::atoll(value_of(argc, argv, "--duration-ms", "200")));

  runtime::MultiRingReactor reactor(config);
  const runtime::ReactorReport r =
      reactor.run(std::chrono::duration_cast<std::chrono::microseconds>(
          duration));

  TextTable table({"rings", "shards", "legit", "token live", "handovers",
                   "handovers/s", "p50 us", "p99 us", "p99.9 us", "sent",
                   "received", "rejected", "kernel drops"});
  table.row()
      .cell(r.rings)
      .cell(r.shards)
      .cell(r.rings_legitimate)
      .cell(r.rings_with_holder)
      .cell(r.handovers)
      .cell(r.handovers_per_sec, 0)
      .cell(r.p50_us, 1)
      .cell(r.p99_us, 1)
      .cell(r.p999_us, 1)
      .cell(r.frames_sent)
      .cell(r.frames_received)
      .cell(r.frames_rejected)
      .cell(r.kernel_rx_drops);
  std::cout << table.render();

  if (!telemetry_path.empty()) {
    const std::string json = reactor.telemetry_json(r).dump(2);
    if (telemetry_path == "-") {
      std::cout << json << '\n';
    } else {
      std::ofstream out(telemetry_path);
      if (!out) {
        std::cerr << "cannot write " << telemetry_path << '\n';
        return 1;
      }
      out << json << '\n';
      std::cout << "telemetry written to " << telemetry_path << '\n';
    }
  }
  return r.rings_legitimate == r.rings ? 0 : 1;
}

void usage() {
  std::cout
      << "ssring <command> [options]\n\n"
         "commands:\n"
         "  trace      print a Figure-4-style execution table\n"
         "  converge   convergence statistics from random starts "
         "(--threads W)\n"
         "  check      exhaustive model check (small n; --protocol "
         "ssrmin|dijkstra\n"
         "             --threads T --mode "
         "auto|compressed|csr-free|spill\n"
         "             --phase-a auto|scalar|sliced --budget BYTES\n"
         "             --tmpdir DIR --stats)\n"
         "  modelgap   token availability under message passing\n"
         "             (--workers W shards the engine; statistics are\n"
         "             byte-identical at every W)\n"
         "  timeline   ASCII token timeline (Figures 11-13)\n"
         "  camera     camera-network policy comparison\n"
         "  mis        local mutual inclusion (MIS) on a general topology\n"
         "  markov     exact expected stabilization time (small n)\n"
         "  perturb    exhaustive single-fault recovery analysis\n"
         "  tail       delay-variance stress on the handover (E22)\n"
         "  run-threaded  real-thread runtime under a --fault-plan\n"
         "  run-udp    alias: run-multi --rings 1 --transport udp "
         "--start legit\n"
         "  run-multi  epoll-multiplexed multi-ring reactor (--rings N\n"
         "             --protocol ssrmin|dijkstra|dual|mixed --shards S\n"
         "             --transport virtual|udp --fault-plan SPEC\n"
         "             --telemetry-json F)\n"
         "\ncommon options: --n --k --seed; see tools/ssring_cli.cpp for "
         "the full per-command list.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "trace") return cmd_trace(argc, argv);
    if (cmd == "converge") return cmd_converge(argc, argv);
    if (cmd == "check") return cmd_check(argc, argv);
    if (cmd == "modelgap") return cmd_modelgap(argc, argv);
    if (cmd == "timeline") return cmd_timeline(argc, argv);
    if (cmd == "camera") return cmd_camera(argc, argv);
    if (cmd == "mis") return cmd_mis(argc, argv);
    if (cmd == "markov") return cmd_markov(argc, argv);
    if (cmd == "perturb") return cmd_perturb(argc, argv);
    if (cmd == "tail") return cmd_tail(argc, argv);
    if (cmd == "run-threaded") return cmd_run_threaded(argc, argv);
    if (cmd == "run-udp") {
      // Alias: the single-ring loopback UDP runtime is a one-ring reactor.
      std::vector<char*> args{argv[0], argv[1]};
      for (const char* flag : {"--rings", "1", "--transport", "udp",
                               "--start", "legit"}) {
        args.push_back(const_cast<char*>(flag));
      }
      args.insert(args.end(), argv + 2, argv + argc);
      return cmd_run_multi(static_cast<int>(args.size()), args.data());
    }
    if (cmd == "run-multi") return cmd_run_multi(argc, argv);
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      usage();
      return 0;
    }
  } catch (const UsageError& e) {
    std::cerr << "ssring " << cmd << ": " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "unknown command: " << cmd << "\n\n";
  usage();
  return 2;
}
