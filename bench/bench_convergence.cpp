// E4 / E6 — Theorem 2 (and Lemma 8): convergence time from random initial
// configurations scales as O(n^2) under every daemon family, for SSRmin
// and for the embedded Dijkstra ring. The table reports steps-to-Lambda
// statistics and the n^2-normalized cost, whose flatness across n is the
// quadratic-order evidence.
//
// Trials are independent and fan out over sim::TrialSweep (--threads N /
// SSRING_BENCH_THREADS; default: all hardware threads). Each trial's RNG
// stream is derived from (row seed, trial index), so every statistical
// cell is bit-identical at any worker count; only wall time changes.
//
// Execution engine: by default each sweep unit is a bit-sliced
// sim::BatchEngine block replaying the scalar trials 64 lanes to a u64
// word. --batched off forces the scalar stab::Engine path; the statistics
// are identical in every mode, per the BatchEngine differential tests. The
// run always writes BENCH_convergence.json (rows: table, daemon, n,
// trials, threads, wall_ms, batched) so successive changes can track the
// combined bit-sliced + incremental-engine + parallel-sweep speedup on the
// same rows.
#include <chrono>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "core/legitimacy.hpp"
#include "core/ssrmin.hpp"
#include "core/ssrmin_sliced.hpp"
#include "dijkstra/kstate.hpp"
#include "dijkstra/kstate_sliced.hpp"
#include "sim/batch_dispatch.hpp"
#include "sim/batch_engine.hpp"
#include "sim/sweep.hpp"
#include "stabilizing/daemon.hpp"
#include "stabilizing/engine.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ssr;

struct TrialResult {
  bool converged = false;
  double dijkstra_part_steps = 0.0;
  double total_steps = 0.0;
};

std::int64_t elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "E4/E6: convergence time vs ring size",
      "Lemmas 6-8, Theorem 2",
      "steps to a legitimate configuration are O(n^2) under the unfair "
      "distributed daemon; the embedded Dijkstra ring converges first");

  const std::vector<std::size_t> sizes =
      bench::full_mode() ? std::vector<std::size_t>{5, 10, 20, 40, 80, 160}
                         : std::vector<std::size_t>{5, 10, 20, 40, 80};
  const int trials = bench::full_mode() ? 50 : 20;
  const std::vector<std::string> daemons{
      "central-random", "distributed-synchronous",
      "distributed-random-subset", "adversary-max-index"};

  const bool batched = bench::batched_mode(argc, argv);
  sim::TrialSweep sweep({.threads = bench::thread_count(argc, argv)});
  std::cout << "(sweep workers: " << sweep.threads() << ", engine: "
            << (batched ? "batched" : "scalar") << ")\n\n";

  TextTable table({"daemon", "n", "trials", "mean steps", "p95 steps",
                   "max steps", "mean/n^2", "dijkstra-part mean",
                   "all converged"});
  TextTable trajectory({"table", "daemon", "n", "trials", "threads",
                        "wall_ms", "batched"});

  for (const auto& daemon_name : daemons) {
    const bool use_batch = batched && sim::batch_daemon_supported(daemon_name);
    for (std::size_t n : sizes) {
      const auto K = static_cast<std::uint32_t>(n + 1);
      const core::SsrMinRing ring(n, K);
      const std::uint64_t budget = 80ULL * n * n + 400;
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<TrialResult> results;
      if (use_batch) {
        const auto spec = sim::lane_daemon_spec(daemon_name);
        const auto blocks = sim::plan_blocks(
            static_cast<std::uint64_t>(trials), sweep.threads());
        const auto per_block = sweep.map(blocks.size(), [&](std::uint64_t b) {
          return sim::run_convergence_block_ssrmin(ring, spec, 1234 + n,
                                                   blocks[b], budget,
                                                   /*two_phase=*/true);
        });
        results.reserve(static_cast<std::size_t>(trials));
        for (const auto& block : per_block) {
          for (const auto& trial : block) {
            TrialResult out;
            out.converged = trial.milestone.reached && trial.result.reached;
            out.dijkstra_part_steps =
                static_cast<double>(trial.milestone.steps);
            out.total_steps =
                static_cast<double>(trial.milestone.steps + trial.result.steps);
            results.push_back(out);
          }
        }
      } else {
        results = sweep.run_trials(
            1234 + n, static_cast<std::uint64_t>(trials),
            [&](std::uint64_t, Rng& rng) {
              stab::Engine<core::SsrMinRing> engine(
                  ring, core::random_config(ring, rng));
              auto daemon = stab::make_daemon(daemon_name, rng.split());
              // First milestone: the Dijkstra sub-ring is legitimate
              // (Lemma 8).
              auto dij = [&ring](const core::SsrConfig& c) {
                return core::dijkstra_part_legitimate(ring, c);
              };
              const auto r1 = stab::run_until(engine, *daemon, dij, budget);
              // Then full legitimacy (Lemma 7).
              auto legit = [&ring](const core::SsrConfig& c) {
                return core::is_legitimate(ring, c);
              };
              const auto r2 = stab::run_until(engine, *daemon, legit, budget);
              TrialResult out;
              out.converged = r1.reached && r2.reached;
              out.dijkstra_part_steps = static_cast<double>(r1.steps);
              out.total_steps = static_cast<double>(r1.steps + r2.steps);
              return out;
            });
      }
      const auto ms = elapsed_ms(t0);
      SampleSet steps;
      SampleSet dijkstra_part_steps;
      bool all_ok = true;
      for (const TrialResult& r : results) {
        if (!r.converged) {
          all_ok = false;
          continue;
        }
        dijkstra_part_steps.add(r.dijkstra_part_steps);
        steps.add(r.total_steps);
      }
      table.row()
          .cell(daemon_name)
          .cell(n)
          .cell(trials)
          .cell(steps.mean(), 1)
          .cell(steps.percentile(95), 1)
          .cell(steps.max(), 0)
          .cell(steps.mean() / (static_cast<double>(n) * n), 3)
          .cell(dijkstra_part_steps.mean(), 1)
          .cell(all_ok);
      trajectory.row()
          .cell("convergence")
          .cell(daemon_name)
          .cell(n)
          .cell(trials)
          .cell(sweep.threads())
          .cell(ms)
          .cell(use_batch);
    }
  }
  std::cout << table.render() << '\n';
  bench::maybe_export(table, "convergence");

  // Baseline: plain Dijkstra ring against its published bound.
  TextTable base({"protocol", "n", "mean steps", "max steps",
                  "bound 3n(n-1)/2", "max within bound"});
  for (std::size_t n : sizes) {
    const auto K = static_cast<std::uint32_t>(n + 1);
    const dijkstra::KStateRing ring(n, K);
    const std::uint64_t budget = 8 * dijkstra::convergence_step_bound(n);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<double> results;
    if (batched) {
      const auto spec = sim::lane_daemon_spec("central-random");
      const auto blocks = sim::plan_blocks(static_cast<std::uint64_t>(trials),
                                           sweep.threads());
      const auto per_block = sweep.map(blocks.size(), [&](std::uint64_t b) {
        return sim::run_convergence_block_kstate(ring, spec, 777 + n,
                                                 blocks[b], budget,
                                                 /*two_phase=*/false);
      });
      results.reserve(static_cast<std::size_t>(trials));
      for (const auto& block : per_block) {
        for (const auto& trial : block) {
          results.push_back(trial.result.reached
                                ? static_cast<double>(trial.result.steps)
                                : -1.0);
        }
      }
    } else {
      results = sweep.run_trials(
          777 + n, static_cast<std::uint64_t>(trials),
          [&](std::uint64_t, Rng& rng) {
            stab::Engine<dijkstra::KStateRing> engine(
                ring, dijkstra::random_config(ring, rng));
            stab::CentralRandomDaemon daemon{rng.split()};
            auto legit = [&ring](const dijkstra::KStateConfig& c) {
              return dijkstra::is_legitimate(ring, c);
            };
            const auto r = stab::run_until(engine, daemon, legit, budget);
            return r.reached ? static_cast<double>(r.steps) : -1.0;
          });
    }
    const auto ms = elapsed_ms(t0);
    SampleSet steps;
    for (double s : results) {
      if (s >= 0.0) steps.add(s);
    }
    const auto bound = dijkstra::convergence_step_bound(n);
    base.row()
        .cell("dijkstra")
        .cell(n)
        .cell(steps.mean(), 1)
        .cell(steps.max(), 0)
        .cell(bound)
        // The strict Definition-form target may cost up to one extra
        // circulation over the "exactly one token" bound.
        .cell(steps.max() <= static_cast<double>(bound + 2 * n));
    trajectory.row()
        .cell("dijkstra_baseline")
        .cell("central-random")
        .cell(n)
        .cell(trials)
        .cell(sweep.threads())
        .cell(ms)
        .cell(batched);
  }
  std::cout << base.render() << '\n';
  bench::maybe_export(base, "convergence_dijkstra_baseline");

  {
    std::ofstream json("BENCH_convergence.json");
    json << trajectory.to_json(2) << '\n';
  }
  std::cout << "(wrote BENCH_convergence.json)\n";
  std::cout << "paper expectation: mean/n^2 stays roughly flat as n grows "
               "(Theorem 2's O(n^2)); the Dijkstra sub-ring converges "
               "before full legitimacy (Lemma 8 then Lemma 7).\n";
  return 0;
}
