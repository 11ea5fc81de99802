// E3 — Lemmas 1, 2, 4, 6 / Theorems 1-2, machine-checked: exhaustive
// verification over the full configuration space for small (n, K), with
// the exact worst-case stabilization time under the adversarial
// distributed daemon.
//
// Each space is checked at 1 worker thread and (when the host has more
// than one hardware thread) at full hardware concurrency; the reports are
// bit-identical at every thread count AND in every Phase B storage mode,
// so the extra rows only measure speed and memory, never answers.
//
// Memory columns: `peakMiB` is the checker's analytic Phase B high-water
// mark (CheckStats::measured_peak_bytes — per-structure maxima summed, an
// upper bound on what Phase B holds at once). Process peak RSS
// (getrusage ru_maxrss) is printed once at the end: it is process-wide
// and monotone across rows, so per-row deltas are not meaningful, but it
// bounds the whole run from above.
//
// Besides the usual table/export, the run always writes
// BENCH_modelcheck.json (rows: protocol, n, K, configs, threads, mode,
// wall_ms, peak_mib, spill_bytes, rss_mib, phase_a, orbit) so
// successive changes can track the checker's throughput and footprint
// trajectory. `configs` is the full space; `orbit` is the counter-shift
// orbit size (K for the library's protocols), so the checker processed
// configs / orbit representatives, and `peak_mib` describes those.
// `phase_a` is "sliced" for the bit-sliced Phase A engine (64 u64 lanes)
// or "scalar" when the odometer sweep ran instead.
// `spill_bytes` is the on-disk move stream (0 for the in-RAM modes) and
// `rss_mib` the process high-water RSS when the row finished — monotone
// across rows, so read it as an upper bound, not a per-row delta.
//
// `--smoke` runs a minimal tri-mode pass (for the sanitizer CI job),
// cross-checks the sliced Phase A against the scalar sweep for report
// identity, forces a kAuto spill under a tight budget, and prints peak
// RSS.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dijkstra/kstate.hpp"
#include "util/table.hpp"
#include "verify/checkers.hpp"

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<std::size_t> thread_counts() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (hw == 1) return {1};
  return {1, hw};
}

template <typename Checker>
ssr::verify::CheckReport run_once(const Checker& checker,
                                  ssr::verify::CheckOptions options,
                                  std::size_t threads,
                                  ssr::verify::PhaseBStorage storage,
                                  double& wall_ms) {
  options.threads = threads;
  options.storage = storage;
  const auto t0 = std::chrono::steady_clock::now();
  ssr::verify::CheckReport r = checker.run(options);
  wall_ms = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
  return r;
}

const char* phase_a_engine(const ssr::verify::CheckReport& r) {
  return r.stats.phase_a_sliced ? "sliced" : "scalar";
}

void add_trajectory_row(ssr::TextTable& trajectory, const std::string& name,
                        std::size_t n, std::uint32_t K,
                        const ssr::verify::CheckReport& r, std::size_t threads,
                        double ms) {
  trajectory.row()
      .cell(name)
      .cell(n)
      .cell(K)
      .cell(r.total_configs)
      .cell(threads)
      .cell(ssr::verify::to_string(r.stats.mode))
      .cell(ms, 1)
      .cell(static_cast<double>(r.stats.measured_peak_bytes) / kMiB, 2)
      .cell(r.stats.spill_bytes)
      .cell(peak_rss_mib(), 1)
      .cell(phase_a_engine(r))
      .cell(r.stats.orbit_size);
}

/// One E3 table row plus its BENCH_modelcheck.json trajectory row.
void add_rows(ssr::TextTable& table, ssr::TextTable& trajectory,
              const std::string& name, std::size_t n, std::uint32_t K,
              const ssr::verify::CheckReport& r, std::size_t threads,
              double ms) {
  table.row()
      .cell(name)
      .cell(n)
      .cell(K)
      .cell(r.total_configs)
      .cell(r.legitimate_configs)
      .cell(threads)
      .cell(ssr::verify::to_string(r.stats.mode))
      .cell(phase_a_engine(r))
      .cell(r.stats.orbit_size)
      .cell(r.deadlock_free)
      .cell(r.closure_holds)
      .cell(r.token_bounds_hold)
      .cell(r.convergence_holds)
      .cell(r.worst_case_steps)
      .cell(r.min_privileged_anywhere)
      .cell(static_cast<double>(r.stats.measured_peak_bytes) / kMiB, 1)
      .cell(ms, 0);
  add_trajectory_row(trajectory, name, n, K, r, threads, ms);
}

template <typename Checker>
void run_row(ssr::TextTable& table, ssr::TextTable& trajectory,
             const std::string& name, std::size_t n, std::uint32_t K,
             const Checker& checker, ssr::verify::CheckOptions options,
             ssr::verify::PhaseBStorage storage =
                 ssr::verify::PhaseBStorage::kAuto,
             std::vector<std::size_t> threads_list = {}) {
  if (threads_list.empty()) threads_list = thread_counts();
  for (std::size_t threads : threads_list) {
    double ms = 0.0;
    const ssr::verify::CheckReport r =
        run_once(checker, options, threads, storage, ms);
    add_rows(table, trajectory, name, n, K, r, threads, ms);
  }
}

/// One space in every storage mode at the given thread counts, with the
/// resident peaks side by side: compressed keeps the move records in RAM,
/// csr-free stores no edges and re-derives them, and spill streams the
/// records through disk, keeping only their offset index resident.
template <typename Checker>
void run_mode_comparison(ssr::TextTable& table, ssr::TextTable& trajectory,
                         const std::string& name, std::size_t n,
                         std::uint32_t K, const Checker& checker,
                         ssr::verify::CheckOptions options,
                         const std::vector<std::size_t>& threads_list) {
  using ssr::verify::PhaseBStorage;
  for (std::size_t threads : threads_list) {
    double compressed_ms = 0.0, csrfree_ms = 0.0, spill_ms = 0.0;
    const auto compressed = run_once(checker, options, threads,
                                     PhaseBStorage::kCompressed,
                                     compressed_ms);
    const auto csrfree = run_once(checker, options, threads,
                                  PhaseBStorage::kCsrFree, csrfree_ms);
    const auto spill = run_once(checker, options, threads,
                                PhaseBStorage::kSpill, spill_ms);
    add_rows(table, trajectory, name, n, K, compressed, threads,
             compressed_ms);
    add_rows(table, trajectory, name, n, K, csrfree, threads, csrfree_ms);
    add_rows(table, trajectory, name, n, K, spill, threads, spill_ms);
    char line[320];
    std::snprintf(line, sizeof(line),
                  "mode comparison %s(%zu,%u) threads=%zu: peak compressed "
                  "= %.1f MiB vs csr-free = %.1f MiB vs spill = %.1f MiB "
                  "(+%.1f MiB on disk, read-amp %.2fx); wall "
                  "%.0f / %.0f / %.0f ms\n",
                  name.c_str(), n, K, threads,
                  static_cast<double>(compressed.stats.measured_peak_bytes) /
                      kMiB,
                  static_cast<double>(csrfree.stats.measured_peak_bytes) /
                      kMiB,
                  static_cast<double>(spill.stats.measured_peak_bytes) / kMiB,
                  static_cast<double>(spill.stats.spill_bytes) / kMiB,
                  spill.stats.read_amplification, compressed_ms, csrfree_ms,
                  spill_ms);
    std::cout << line;
  }
}

/// Same space, same answers, two Phase A engines: the sliced sweep must
/// reproduce the scalar odometer's report bit-for-bit while finishing
/// sooner. Prints the wall-time ratio alongside the two rows.
template <typename Checker>
void run_phase_a_comparison(ssr::TextTable& table, ssr::TextTable& trajectory,
                            const std::string& name, std::size_t n,
                            std::uint32_t K, const Checker& checker,
                            ssr::verify::CheckOptions options,
                            std::size_t threads) {
  using ssr::verify::PhaseAMode;
  double scalar_ms = 0.0, sliced_ms = 0.0;
  auto scalar_options = options;
  scalar_options.phase_a = PhaseAMode::kScalar;
  auto sliced_options = options;
  sliced_options.phase_a = PhaseAMode::kSliced;
  const auto scalar = run_once(checker, scalar_options, threads,
                               ssr::verify::PhaseBStorage::kAuto, scalar_ms);
  const auto sliced = run_once(checker, sliced_options, threads,
                               ssr::verify::PhaseBStorage::kAuto, sliced_ms);
  add_rows(table, trajectory, name, n, K, scalar, threads, scalar_ms);
  add_rows(table, trajectory, name, n, K, sliced, threads, sliced_ms);
  const bool identical = scalar.summary() == sliced.summary();
  char line[256];
  std::snprintf(line, sizeof(line),
                "phase A comparison %s(%zu,%u) threads=%zu: wall "
                "scalar/sliced = %.1fx, reports %s\n",
                name.c_str(), n, K, threads, scalar_ms / sliced_ms,
                identical ? "identical" : "DIVERGED");
  std::cout << line;
}

int run_smoke() {
  using namespace ssr;
  std::cout << "bench_modelcheck --smoke: tri-mode sanity pass\n";
  verify::CheckOptions ssr_options;
  verify::CheckOptions dij_options;
  dij_options.min_privileged = 1;
  dij_options.max_privileged = 1;
  int failures = 0;
  for (verify::PhaseBStorage storage :
       {verify::PhaseBStorage::kCompressed, verify::PhaseBStorage::kCsrFree,
        verify::PhaseBStorage::kSpill}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      double ms = 0.0;
      const auto ssrmin = run_once(verify::make_ssrmin_checker(3, 4),
                                   ssr_options, threads, storage, ms);
      const auto dijkstra = run_once(verify::make_kstate_checker(3, 4),
                                     dij_options, threads, storage, ms);
      // The same spaces again with the scalar odometer sweep: every field
      // of both reports must come out bit-identical to the sliced runs.
      auto scalar_ssr = ssr_options;
      scalar_ssr.phase_a = verify::PhaseAMode::kScalar;
      auto scalar_dij = dij_options;
      scalar_dij.phase_a = verify::PhaseAMode::kScalar;
      const auto ssrmin_scalar = run_once(verify::make_ssrmin_checker(3, 4),
                                          scalar_ssr, threads, storage, ms);
      const auto dijkstra_scalar = run_once(verify::make_kstate_checker(3, 4),
                                            scalar_dij, threads, storage, ms);
      bool ok = ssrmin.all_ok() && ssrmin.worst_case_steps == 16 &&
                dijkstra.all_ok() &&
                ssrmin.summary() == ssrmin_scalar.summary() &&
                dijkstra.summary() == dijkstra_scalar.summary();
      if (storage == verify::PhaseBStorage::kSpill &&
          (ssrmin.stats.spill_bytes == 0 ||
           ssrmin.stats.mode != verify::PhaseBStorage::kSpill)) {
        ok = false;
      }
      if (!ok) ++failures;
      std::cout << "  storage=" << verify::to_string(storage)
                << " threads=" << threads << " phase_a="
                << phase_a_engine(ssrmin)
                << " vs scalar: " << (ok ? "ok" : "FAILED") << '\n';
    }
  }
  // A forced-spill kAuto cell: squeeze the budget between the spill
  // mode's resident projection and the cheapest in-RAM projection and
  // the auto-picker must go out of core — with the same answers.
  {
    // Projections count orbit representatives, as the checker does.
    const auto checker = verify::make_ssrmin_checker(4, 5);
    const std::uint64_t reps = checker.codec().representatives();
    auto options = ssr_options;
    options.memory_budget_bytes =
        (verify::projected_spill_resident_bytes(reps, 4,
                                                checker.codec().radix()) +
         verify::projected_csrfree_bytes(reps)) /
        2;
    double ms = 0.0;
    const auto forced = run_once(checker, options, 2,
                                 verify::PhaseBStorage::kAuto, ms);
    double baseline_ms = 0.0;
    const auto baseline = run_once(checker, ssr_options, 2,
                                   verify::PhaseBStorage::kCompressed,
                                   baseline_ms);
    const bool ok = forced.stats.mode == verify::PhaseBStorage::kSpill &&
                    forced.stats.spill_bytes > 0 &&
                    forced.summary() == baseline.summary();
    if (!ok) ++failures;
    std::cout << "  auto-under-tight-budget: mode="
              << verify::to_string(forced.stats.mode)
              << " spill_bytes=" << forced.stats.spill_bytes
              << " vs compressed: " << (ok ? "ok" : "FAILED") << '\n';
  }
  std::cout << "peak-RSS: " << peak_rss_mib() << " MiB\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ssr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  bench::print_header(
      "E3: exhaustive model checking", "Lemmas 1, 2, 4, 6; Theorems 1-2",
      "over the complete configuration space, SSRmin is deadlock-free, "
      "closed on Lambda, keeps 1..2 privileged processes there, always has "
      ">= 1 privileged process anywhere, and every execution converges");

  TextTable table({"protocol", "n", "K", "configs", "legit", "threads",
                   "mode", "phaseA", "orbit", "no-deadlock", "closure", "tokens[1,2]",
                   "convergence", "worst steps", "min priv anywhere",
                   "peakMiB", "ms"});
  TextTable trajectory({"protocol", "n", "K", "configs", "threads", "mode",
                        "wall_ms", "peak_mib", "spill_bytes", "rss_mib",
                        "phase_a", "orbit"});

  verify::CheckOptions ssr_options;  // defaults: privileged in [1,2]
  run_row(table, trajectory, "ssrmin", 3, 4, verify::make_ssrmin_checker(3, 4),
          ssr_options);
  run_row(table, trajectory, "ssrmin", 3, 5, verify::make_ssrmin_checker(3, 5),
          ssr_options);
  run_row(table, trajectory, "ssrmin", 3, 6, verify::make_ssrmin_checker(3, 6),
          ssr_options);
  run_row(table, trajectory, "ssrmin", 4, 5, verify::make_ssrmin_checker(4, 5),
          ssr_options);
  // 331k configurations: full-mode-only before the sharded sweep, now a
  // default row — run scalar-vs-sliced so the Phase A speedup and the
  // report identity are pinned in the output.
  run_phase_a_comparison(table, trajectory, "ssrmin", 4, 6,
                         verify::make_ssrmin_checker(4, 6), ssr_options, 1);
  // The same 331k-config space forced out of core: Phase B streams its
  // move records through a temp file, so the default run always carries
  // at least one mode=spill row (pinned by tools/check_bench_json.py).
  run_row(table, trajectory, "ssrmin", 4, 6, verify::make_ssrmin_checker(4, 6),
          ssr_options, verify::PhaseBStorage::kSpill, {1});
  if (bench::full_mode()) {
    run_row(table, trajectory, "ssrmin", 4, 7,
            verify::make_ssrmin_checker(4, 7), ssr_options);
    // The big one: 24^5 ≈ 8M configurations, every distributed-daemon
    // subset choice — run in all three storage modes at 1 and 2 workers
    // so the per-mode resident peaks are pinned in the output.
    run_mode_comparison(table, trajectory, "ssrmin", 5, 6,
                        verify::make_ssrmin_checker(5, 6), ssr_options,
                        {1, 2});
  }

  verify::CheckOptions dij_options;
  dij_options.min_privileged = 1;
  dij_options.max_privileged = 1;
  run_row(table, trajectory, "dijkstra", 3, 4,
          verify::make_kstate_checker(3, 4), dij_options);
  run_row(table, trajectory, "dijkstra", 4, 5,
          verify::make_kstate_checker(4, 5), dij_options);
  run_row(table, trajectory, "dijkstra", 5, 6,
          verify::make_kstate_checker(5, 6), dij_options);
  run_row(table, trajectory, "dijkstra", 6, 7,
          verify::make_kstate_checker(6, 7), dij_options);
  // 8^7 ≈ 2M configurations — previously full-mode-only territory; also
  // the scalar-vs-sliced Phase A pin for the Dijkstra kernel.
  run_phase_a_comparison(table, trajectory, "dijkstra", 7, 8,
                         verify::make_kstate_checker(7, 8), dij_options, 1);
  run_row(table, trajectory, "dijkstra", 6, 7,
          verify::make_kstate_checker(6, 7), dij_options,
          verify::PhaseBStorage::kSpill, {1});
  if (bench::full_mode()) {
    run_row(table, trajectory, "dijkstra", 8, 9,
            verify::make_kstate_checker(8, 9), dij_options);
    // The Hoepman K = N boundary at a size an explicit edge list could
    // still hold...
    run_row(table, trajectory, "dijkstra", 8, 8,
            verify::make_kstate_checker(8, 8), dij_options);
    // ...and one it could not: 9^9 ≈ 387M configurations with ~69G
    // daemon-subset edges. A 4-byte-per-edge predecessor CSR would need
    // ~0.5TiB; the per-source move records fit in a few GiB.
    run_row(table, trajectory, "dijkstra", 9, 9,
            verify::make_kstate_checker(9, 9), dij_options);
  }

  // The out-of-core headline and its in-RAM known answer: ssrmin(6,7) =
  // 28^6 ≈ 482M configurations, 68.8M orbit representatives. Forced
  // through the spill tier under a 2.5 GiB budget at one worker, then
  // checked in RAM (compressed) at hardware concurrency: both reports
  // must agree, with worst case 120. Sized by representatives, kAuto
  // would now pick compressed under that budget, so the spill row names
  // its mode. Gated on its own env knob besides full mode because the
  // single-worker spill run takes minutes.
  if (bench::full_mode() ||
      std::getenv("SSRING_BENCH_SPILL_BIG") != nullptr) {
    verify::CheckOptions big_options = ssr_options;
    big_options.memory_budget_bytes = std::uint64_t{5} << 29;  // 2.5 GiB
    const auto checker = verify::make_ssrmin_checker(6, 7);
    double spill_ms = 0.0;
    const auto spill = run_once(checker, big_options, 1,
                                verify::PhaseBStorage::kSpill, spill_ms);
    add_rows(table, trajectory, "ssrmin", 6, 7, spill, 1, spill_ms);
    const std::size_t hw = thread_counts().back();
    double ram_ms = 0.0;
    const auto in_ram = run_once(checker, big_options, hw,
                                 verify::PhaseBStorage::kCompressed, ram_ms);
    add_rows(table, trajectory, "ssrmin", 6, 7, in_ram, hw, ram_ms);
    const bool agree = in_ram.summary() == spill.summary() &&
                       in_ram.worst_case_steps == 120;
    std::cout << "ssrmin(6,7) compressed (" << hw << " workers, "
              << ram_ms / 1000.0 << " s) vs spill (1 worker, "
              << spill_ms / 1000.0 << " s): "
              << (agree ? "identical, worst case 120" : "DIVERGED") << '\n';
  }

  std::cout << table.render() << '\n';
  bench::maybe_export(table, "modelcheck");
  {
    std::ofstream json("BENCH_modelcheck.json");
    json << trajectory.to_json(2) << '\n';
  }
  std::cout << "(wrote BENCH_modelcheck.json)\n";
  std::cout << "peak-RSS: " << peak_rss_mib() << " MiB (process high-water "
               "mark across every row above)\n";
  std::cout << "paper expectation: every boolean column 'yes'; legit = 3nK "
               "(SSRmin, Def. 1) / nK (Dijkstra); worst steps grow ~ n^2 "
               "(Theorem 2; Dijkstra bound 3n(n-1)/2 per [1]).\n";
  if (!bench::full_mode()) {
    std::cout << "(set SSRING_BENCH_FULL=1 for the larger spaces, "
                 "SSRING_BENCH_SPILL_BIG=1 for the out-of-core "
                 "ssrmin(6,7) row)\n";
  }
  std::cout << "scope note: dijkstra(10,10) = 10^10 configurations has "
               "10^9 orbit representatives; the spill tier's resident "
               "projection shrinks tenfold, from ~40 GiB to ~4.0 GiB (stream "
               "~8.4 GiB). "
               "Not run here.\n";
  return 0;
}
