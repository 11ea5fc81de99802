// Workload "verify": the Theorem 1-2 path. An exhaustive SSRmin check
// (ModelChecker::run, bit-sliced Phase A + compressed Phase B) followed by
// a batched Monte-Carlo convergence study on the bit-sliced engine, both
// at two workers. Layers: verify (checker) and sim (batch engine).
#include <sstream>

#include "bench.hpp"
#include "core/ssrmin.hpp"
#include "sim/batch_dispatch.hpp"
#include "sim/sweep.hpp"
#include "stats.hpp"
#include "util/lane_backend.hpp"
#include "verify/checkers.hpp"

namespace pb {
namespace {

using namespace ssr;

struct VerifySize {
  std::size_t n;
  std::uint32_t K;
  std::uint64_t worst_case_steps;  ///< exact value the check must report
  std::size_t ring;                ///< convergence ring size
  std::uint64_t trials;
};

constexpr VerifySize kFull{5, 7, 77, 256, 4096};
constexpr VerifySize kSmoke{3, 4, 16, 16, 256};
constexpr std::size_t kWorkers = 2;
// Fixed so the storage mode kAuto picks does not depend on the host's RAM.
constexpr std::uint64_t kMemoryBudget = 2ULL << 30;

// Worker pools are built inside the timed calls, as ModelChecker::run
// builds its own.
struct Setup {
  verify::ModelChecker<core::SsrMinRing> checker;
  core::SsrMinRing ring;
};

Setup make_setup(const VerifySize& size) {
  return Setup{verify::make_ssrmin_checker(size.n, size.K),
               core::SsrMinRing(size.ring,
                                static_cast<std::uint32_t>(size.ring + 1))};
}

verify::CheckOptions check_options(std::size_t threads, bool convergence) {
  verify::CheckOptions o;
  o.threads = threads;
  o.check_convergence = convergence;
  o.memory_budget_bytes = kMemoryBudget;
  return o;
}

/// Every field of the report under the bit-identity contract (stats and
/// heights excluded).
std::string fingerprint(const verify::CheckReport& r) {
  std::ostringstream s;
  auto opt = [&](const std::optional<std::uint64_t>& v) {
    s << (v ? std::to_string(*v) : std::string("-")) << ' ';
  };
  s << r.total_configs << ' ' << r.legitimate_configs << ' '
    << r.deadlock_free << r.closure_holds << r.token_bounds_hold
    << r.convergence_holds << ' ' << r.worst_case_steps << ' '
    << r.min_privileged_anywhere << ' ';
  opt(r.deadlock_witness);
  opt(r.closure_witness);
  opt(r.token_witness);
  opt(r.cycle_witness);
  opt(r.worst_case_witness);
  return s.str();
}

struct ConvergeResult {
  double wall_s = 0.0;
  std::uint64_t converged = 0;
  std::uint64_t steps = 0;
  std::vector<double> block_s;
};

ConvergeResult converge(Setup& setup, const VerifySize& size,
                        std::uint64_t seed, Tracer& tracer, int parent,
                        int run) {
  const util::LaneBackend backend = util::detect_lane_backend();
  const auto spec = sim::lane_daemon_spec("distributed-random-subset");
  const std::uint64_t cap = 200ULL * size.ring * size.ring;
  ConvergeResult r;
  Scope sweep_span(tracer, "sim.sweep", parent, run);
  const auto t0 = Clock::now();
  sim::SweepOptions options;
  options.threads = kWorkers;
  sim::TrialSweep sweep(options);
  const auto blocks = sim::plan_blocks(size.trials, kWorkers,
                                       util::lane_backend_lanes(backend));
  r.block_s.assign(blocks.size(), 0.0);
  const auto per_block =
      sweep.map(blocks.size(), [&](std::uint64_t b) {
        Scope span(tracer, "sim.block", sweep_span.id(), run);
        const auto tb = Clock::now();
        auto out = sim::run_convergence_block_ssrmin(
            setup.ring, spec, seed, blocks[b], cap, /*two_phase=*/false,
            backend);
        r.block_s[b] = seconds_since(tb);
        span.count("trials", static_cast<double>(blocks[b].count));
        return out;
      });
  r.wall_s = seconds_since(t0);
  for (const auto& block : per_block) {
    for (const auto& trial : block) {
      r.converged += trial.result.reached ? 1 : 0;
      r.steps += trial.result.steps;
    }
  }
  sweep_span.count("trials", static_cast<double>(size.trials));
  sweep_span.count("steps", static_cast<double>(r.steps));
  return r;
}

struct Job {
  verify::CheckReport report;
  double check_s = 0.0;
  ConvergeResult conv;
};

/// One repetition of the timed work on a fresh set-up.
Job run_job(Setup& setup, const VerifySize& size, std::uint64_t seed,
            Tracer& tracer, int run, Outcome& out) {
  Job job;
  Scope root(tracer, "bench.job", -1, run);
  {
    Scope span(tracer, "verify.run", root.id(), run);
    const auto t0 = Clock::now();
    job.report = setup.checker.run(check_options(kWorkers, true));
    job.check_s = seconds_since(t0);
    span.count("configs", static_cast<double>(job.report.total_configs));
    span.count("edges", static_cast<double>(job.report.stats.edge_count));
  }
  job.conv = converge(setup, size, seed, tracer, root.id(), run);
  out.attempted += job.report.total_configs + size.trials;
  out.gate(job.report.all_ok(), "check report is not all_ok",
           job.report.total_configs);
  out.gate(job.report.worst_case_steps == size.worst_case_steps,
           "worst_case_steps " + std::to_string(job.report.worst_case_steps) +
               " != " + std::to_string(size.worst_case_steps),
           job.report.total_configs);
  out.gate(job.conv.converged == size.trials,
           "a convergence trial did not converge within its cap",
           size.trials);
  return job;
}

}  // namespace

Outcome run_verify(const RunConfig& cfg, Tracer& tracer) {
  const VerifySize size = cfg.smoke ? kSmoke : kFull;
  Outcome out;
  if (!cfg.trace) {
    const auto sample_setups = [&] {
      sample_setup(out, cfg.smoke ? 3 : 100, 10000, [&] { make_setup(size); });
    };
    sample_setups();
    repeat_for(cfg.seconds, 2, [&](int rep) {
      Setup setup = make_setup(size);
      const Job job = run_job(setup, size, cfg.seed, tracer, rep, out);
      out.sample("ops_per_s",
                 static_cast<double>(job.report.total_configs) / job.check_s);
      out.sample("side_per_s",
                 static_cast<double>(size.trials) / job.conv.wall_s);
      out.sample("good_frac", static_cast<double>(job.conv.converged) /
                                  static_cast<double>(size.trials));
      sample_setups();
    });
    set_end_to_end_metrics(out);
    return out;
  }

  // Traced run: a Phase-A-only check (which also warms the allocator),
  // one untraced repetition as the overhead baseline, one traced
  // repetition, then a 1-worker replay.
  Setup setup = make_setup(size);
  double phase_a_s = 0.0;
  {
    Scope span(tracer, "verify.run_phase_a", -1, 0);
    const auto t0 = Clock::now();
    const auto report = setup.checker.run(check_options(kWorkers, false));
    phase_a_s = seconds_since(t0);
    span.count("configs", static_cast<double>(report.total_configs));
  }
  Tracer off(false);
  const Job plain = run_job(setup, size, cfg.seed, off, 1, out);
  Setup traced_setup = [&] {
    Scope span(tracer, "verify.setup", -1, 2);
    return make_setup(size);
  }();
  const Job job = run_job(traced_setup, size, cfg.seed, tracer, 2, out);
  const double plain_s = plain.check_s + plain.conv.wall_s;
  const double traced_s = job.check_s + job.conv.wall_s;
  out.metrics["trace.overhead_s"] = traced_s - plain_s;
  out.metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0;

  double serial_s = 0.0;
  {
    Scope span(tracer, "verify.run_serial", -1, 3);
    const auto t0 = Clock::now();
    const auto report = setup.checker.run(check_options(1, true));
    serial_s = seconds_since(t0);
    out.gate(fingerprint(report) == fingerprint(job.report),
             "1-worker CheckReport differs from the 2-worker one",
             report.total_configs);
  }
  const auto& st = job.report.stats;
  const double configs = static_cast<double>(job.report.total_configs);
  const double edges = static_cast<double>(st.edge_count);
  out.metrics["verify.phase_a_s"] = phase_a_s;
  out.metrics["verify.phase_b_s"] = job.check_s - phase_a_s;
  out.metrics["verify.phase_a_ns_per_config"] = 1e9 * phase_a_s / configs;
  out.metrics["verify.phase_b_ns_per_edge"] =
      1e9 * (job.check_s - phase_a_s) / edges;
  out.metrics["verify.edges"] = edges;
  out.metrics["verify.bytes_per_edge"] = st.bytes_per_edge;
  out.metrics["verify.rounds"] = st.rounds;
  out.metrics["verify.serial_s"] = serial_s;
  out.metrics["verify.parallel_eff"] =
      serial_s / (static_cast<double>(kWorkers) * job.check_s);

  double busy = 0.0;
  for (double b : job.conv.block_s) busy += b;
  out.metrics["sim.block_s_p50"] = median(job.conv.block_s);
  out.metrics["sim.block_s_max"] = percentile(job.conv.block_s, 100.0);
  out.metrics["sim.ns_per_trial_step"] =
      1e9 * busy / static_cast<double>(job.conv.steps);
  out.metrics["sim.idle_frac"] =
      1.0 - busy / (static_cast<double>(kWorkers) * job.conv.wall_s);
  return out;
}

}  // namespace pb
