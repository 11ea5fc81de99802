// Tests for the bit-sliced batch engine (sim::BatchEngine and the
// core::SlicedSsrMin / dijkstra::SlicedKState kernels).
//
// The load-bearing property: every lane of a batched run is bit-identical
// to a scalar stab::Engine run of the same trial — same configurations
// after every step, same step/move/forced counters, same RunResult legs —
// because the lanes consume exactly the scalar RNG streams. The
// differential tests here pin that across protocols x daemon families x
// ring sizes x seeds, and the sweep-shaped tests pin that batched tables
// are byte-identical at any worker count and equal to scalar tables.
#include "sim/batch_engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/legitimacy.hpp"
#include "core/ssrmin.hpp"
#include "core/ssrmin_sliced.hpp"
#include "dijkstra/kstate.hpp"
#include "dijkstra/kstate_sliced.hpp"
#include "sim/batch_dispatch.hpp"
#include "sim/sweep.hpp"
#include "util/lane_backend.hpp"
#include "stabilizing/daemon.hpp"
#include "stabilizing/engine.hpp"
#include "util/bitplane.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ssr::sim {
namespace {

// ---------------------------------------------------------------------------
// util::transpose64 — the plane <-> lane-bitmap pivot.

TEST(Transpose64, MatchesBitwiseDefinition) {
  Rng rng(7);
  std::array<std::uint64_t, 64> in;
  for (auto& w : in) w = rng();
  auto out = in;
  util::transpose64(out.data());
  // Convention: bit position == column. out[c] bit r == in[r] bit c.
  for (int r = 0; r < 64; ++r) {
    for (int c = 0; c < 64; ++c) {
      EXPECT_EQ((out[c] >> r) & 1u, (in[r] >> c) & 1u)
          << "r=" << r << " c=" << c;
    }
  }
}

TEST(Transpose64, IsAnInvolution) {
  Rng rng(8);
  std::array<std::uint64_t, 64> in;
  for (auto& w : in) w = rng();
  auto twice = in;
  util::transpose64(twice.data());
  util::transpose64(twice.data());
  EXPECT_EQ(twice, in);
}

// ---------------------------------------------------------------------------
// Kernel plane correctness against the scalar protocol.

template <typename Kernel, typename Ring>
void expect_planes_match_scalar(const Ring& ring) {
  Kernel kernel(ring);
  Rng rng(1234);
  std::vector<typename Kernel::Config> configs(64);
  for (unsigned lane = 0; lane < 64; ++lane) {
    configs[lane] = random_config(ring, rng);
    kernel.load_lane(lane, configs[lane]);
  }
  kernel.compute();
  const std::size_t n = ring.size();
  for (unsigned lane = 0; lane < 64; ++lane) {
    // Round trip.
    EXPECT_EQ(kernel.extract_lane(lane), configs[lane]) << "lane " << lane;
    // Rule planes vs the scalar guard evaluation.
    stab::Engine<Ring> engine(ring, configs[lane]);
    for (std::size_t i = 0; i < n; ++i) {
      const int scalar_rule = engine.enabled_rule(i);
      EXPECT_EQ((kernel.enabled()[i] >> lane) & 1u,
                scalar_rule != stab::kDisabled ? 1u : 0u)
          << "lane " << lane << " i=" << i;
      for (int r = 1; r <= Kernel::kRuleCount; ++r) {
        EXPECT_EQ((kernel.rule(r)[i] >> lane) & 1u,
                  scalar_rule == r ? 1u : 0u)
            << "lane " << lane << " i=" << i << " rule " << r;
      }
    }
  }
}

TEST(SlicedKernels, SsrMinPlanesMatchScalar) {
  for (std::size_t n : {3u, 5u, 8u, 12u}) {
    expect_planes_match_scalar<core::SlicedSsrMin>(
        core::SsrMinRing(n, static_cast<std::uint32_t>(n + 1)));
  }
  // K a power of two exercises the digit_inc_mod wrap = carry-out path.
  expect_planes_match_scalar<core::SlicedSsrMin>(core::SsrMinRing(7, 8));
}

TEST(SlicedKernels, KStatePlanesMatchScalar) {
  for (std::size_t n : {3u, 5u, 8u, 12u}) {
    expect_planes_match_scalar<dijkstra::SlicedKState>(
        dijkstra::KStateRing(n, static_cast<std::uint32_t>(n + 1)));
  }
  expect_planes_match_scalar<dijkstra::SlicedKState>(
      dijkstra::KStateRing(7, 8));
}

// ---------------------------------------------------------------------------
// Lanewise legitimacy masks.

TEST(SlicedKernels, SsrMinLegitMasksMatchScalar) {
  const core::SsrMinRing ring(4, 5);
  // Every legitimate configuration must light both mask bits...
  const auto legits = core::enumerate_legitimate(ring);
  for (std::size_t base = 0; base < legits.size(); base += 64) {
    core::SlicedSsrMin kernel(ring);
    const std::size_t lanes = std::min<std::size_t>(64, legits.size() - base);
    for (std::size_t l = 0; l < lanes; ++l) {
      kernel.load_lane(static_cast<unsigned>(l), legits[base + l]);
    }
    // Unused lanes carry copies of lane 0 so their bits are defined.
    for (std::size_t l = lanes; l < 64; ++l) {
      kernel.load_lane(static_cast<unsigned>(l), legits[base]);
    }
    kernel.compute();
    const auto masks = kernel.legit_masks();
    EXPECT_EQ(masks.legitimate, ~0ULL) << "base " << base;
    EXPECT_EQ(masks.milestone, ~0ULL) << "base " << base;
  }
  // ...and random lanes must agree with the scalar predicates bit by bit.
  Rng rng(77);
  core::SlicedSsrMin kernel(ring);
  std::vector<core::SsrConfig> configs(64);
  for (unsigned lane = 0; lane < 64; ++lane) {
    configs[lane] = core::random_config(ring, rng);
    kernel.load_lane(lane, configs[lane]);
  }
  kernel.compute();
  const auto masks = kernel.legit_masks();
  for (unsigned lane = 0; lane < 64; ++lane) {
    EXPECT_EQ((masks.legitimate >> lane) & 1u,
              core::is_legitimate(ring, configs[lane]) ? 1u : 0u)
        << "lane " << lane;
    EXPECT_EQ((masks.milestone >> lane) & 1u,
              core::dijkstra_part_legitimate(ring, configs[lane]) ? 1u : 0u)
        << "lane " << lane;
  }
}

TEST(SlicedKernels, KStateLegitMasksMatchScalar) {
  const dijkstra::KStateRing ring(4, 5);
  const auto legits = dijkstra::enumerate_legitimate(ring);
  ASSERT_LE(legits.size(), 64u * 64u);
  Rng rng(78);
  dijkstra::SlicedKState kernel(ring);
  std::vector<dijkstra::KStateConfig> configs(64);
  for (unsigned lane = 0; lane < 64; ++lane) {
    configs[lane] = lane < legits.size() ? legits[lane]
                                         : dijkstra::random_config(ring, rng);
    kernel.load_lane(lane, configs[lane]);
  }
  kernel.compute();
  const auto masks = kernel.legit_masks();
  for (unsigned lane = 0; lane < 64; ++lane) {
    EXPECT_EQ((masks.legitimate >> lane) & 1u,
              dijkstra::is_legitimate(ring, configs[lane]) ? 1u : 0u)
        << "lane " << lane;
    EXPECT_EQ(masks.milestone, masks.legitimate);
  }
}

// ---------------------------------------------------------------------------
// Incremental plane maintenance vs the full recompute.

TEST(SlicedKernels, IncrementalMatchesAllDirtyRecompute) {
  const core::SsrMinRing ring(9, 10);
  core::SlicedSsrMin incremental(ring);
  core::SlicedSsrMin oracle(ring);
  Rng rng(4321);
  for (unsigned lane = 0; lane < 64; ++lane) {
    const auto config = core::random_config(ring, rng);
    incremental.load_lane(lane, config);
    oracle.load_lane(lane, config);
  }
  for (int step = 0; step < 40; ++step) {
    incremental.compute();
    oracle.mark_all_dirty();
    oracle.compute();
    for (std::size_t i = 0; i < ring.size(); ++i) {
      ASSERT_EQ(incremental.enabled()[i], oracle.enabled()[i])
          << "step " << step << " i=" << i;
      ASSERT_EQ(incremental.guards()[i], oracle.guards()[i])
          << "step " << step << " i=" << i;
      for (int r = 1; r <= core::SlicedSsrMin::kRuleCount; ++r) {
        ASSERT_EQ(incremental.rule(r)[i], oracle.rule(r)[i])
            << "step " << step << " i=" << i << " rule " << r;
      }
    }
    // A pseudo-random subset of the enabled bits moves each step.
    std::vector<std::uint64_t> sel(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i) {
      sel[i] = incremental.enabled()[i] & rng();
    }
    incremental.apply(sel);
    oracle.apply(sel);
  }
  for (unsigned lane = 0; lane < 64; ++lane) {
    EXPECT_EQ(incremental.extract_lane(lane), oracle.extract_lane(lane));
  }
}

// ---------------------------------------------------------------------------
// Per-step differential: BatchEngine lane == scalar Engine trial.

/// Steps all 64 lanes alongside 64 scalar engines for `max_steps`, asserting
/// configuration and counter equality after every step.
template <typename Kernel, typename Ring>
void expect_lockstep_traces(const Ring& ring, const std::string& daemon_name,
                            std::uint64_t seed, int max_steps) {
  const LaneDaemonSpec spec = daemon_name == "adversary-rule-avoiding"
                                  ? rule_avoiding_spec(
                                        {core::SsrMinRing::kRuleSendPrimary,
                                         core::SsrMinRing::kRuleFixGuardTrue})
                                  : lane_daemon_spec(daemon_name);
  BatchEngine<Kernel> batch{Kernel(ring), spec};
  std::vector<std::unique_ptr<stab::Engine<Ring>>> scalar(64);
  std::vector<std::unique_ptr<stab::Daemon>> daemons(64);
  for (unsigned lane = 0; lane < 64; ++lane) {
    Rng rng = trial_rng(seed, lane);
    auto config = random_config(ring, rng);
    const Rng daemon_rng = rng.split();
    scalar[lane] = std::make_unique<stab::Engine<Ring>>(ring, config);
    if (daemon_name == "adversary-rule-avoiding") {
      daemons[lane] = std::make_unique<stab::RuleAvoidingDaemon>(
          daemon_rng, std::vector<int>{core::SsrMinRing::kRuleSendPrimary,
                                       core::SsrMinRing::kRuleFixGuardTrue});
    } else {
      daemons[lane] = stab::make_daemon(daemon_name, daemon_rng);
    }
    batch.load_lane(lane, config, daemon_rng);
  }
  for (int t = 0; t < max_steps; ++t) {
    batch.refresh();
    const std::uint64_t mask = batch.active() & batch.any_enabled();
    if (mask == 0) break;  // would falsify the no-deadlock lemma
    batch.step(mask);
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(m));
      ASSERT_TRUE(scalar[lane]->step_with(*daemons[lane]));
      ASSERT_EQ(batch.extract_lane(lane), scalar[lane]->config())
          << daemon_name << " n=" << ring.size() << " lane " << lane
          << " step " << t;
      ASSERT_EQ(batch.steps(lane), scalar[lane]->steps());
      ASSERT_EQ(batch.moves(lane), scalar[lane]->moves());
    }
  }
  if (daemon_name == "adversary-rule-avoiding") {
    for (unsigned lane = 0; lane < 64; ++lane) {
      auto* avoiding =
          dynamic_cast<stab::RuleAvoidingDaemon*>(daemons[lane].get());
      ASSERT_NE(avoiding, nullptr);
      EXPECT_EQ(batch.forced_steps(lane), avoiding->forced_steps())
          << "lane " << lane;
    }
  }
}

TEST(BatchEngine, SsrMinLanesMatchScalarTraces) {
  const std::vector<std::string> daemons{
      "central-round-robin", "central-random", "distributed-synchronous",
      "distributed-random-subset", "adversary-max-index",
      "adversary-rule-avoiding"};
  for (const auto& daemon : daemons) {
    ASSERT_TRUE(daemon == "adversary-rule-avoiding" ||
                batch_daemon_supported(daemon));
    for (std::size_t n : {3u, 5u, 8u, 12u}) {
      for (std::uint64_t seed : {11u, 97u}) {
        expect_lockstep_traces<core::SlicedSsrMin>(
            core::SsrMinRing(n, static_cast<std::uint32_t>(n + 1)), daemon,
            seed, 120);
      }
    }
  }
  // K = 2^d digit-wrap edge under the busiest daemon.
  expect_lockstep_traces<core::SlicedSsrMin>(
      core::SsrMinRing(7, 8), "distributed-synchronous", 5, 120);
}

TEST(BatchEngine, KStateLanesMatchScalarTraces) {
  const std::vector<std::string> daemons{
      "central-round-robin", "central-random", "distributed-synchronous",
      "distributed-random-subset", "adversary-max-index"};
  for (const auto& daemon : daemons) {
    for (std::size_t n : {3u, 5u, 8u, 12u}) {
      expect_lockstep_traces<dijkstra::SlicedKState>(
          dijkstra::KStateRing(n, static_cast<std::uint32_t>(n + 1)), daemon,
          31, 120);
    }
  }
  expect_lockstep_traces<dijkstra::SlicedKState>(dijkstra::KStateRing(7, 8),
                                                 "central-random", 13, 120);
}

TEST(BatchEngine, UnsupportedDaemonIsReported) {
  EXPECT_FALSE(batch_daemon_supported("adversary-starving"));
  EXPECT_FALSE(batch_daemon_supported("no-such-daemon"));
  EXPECT_TRUE(batch_daemon_supported("central-random"));
}

// ---------------------------------------------------------------------------
// run_convergence_block vs the scalar run_until composition.

TEST(RunConvergenceBlock, MatchesScalarTwoPhaseComposition) {
  // 150 trials in one block: two full 64-lane generations plus a partial
  // one, so lane refill is on the tested path.
  const std::size_t n = 8;
  const core::SsrMinRing ring(n, static_cast<std::uint32_t>(n + 1));
  const std::uint64_t budget = 80ULL * n * n + 400;
  const std::uint64_t trials = 150;
  for (const auto& daemon_name :
       {"central-round-robin", "central-random", "distributed-synchronous",
        "distributed-random-subset", "adversary-max-index"}) {
    const auto batched = run_convergence_block<core::SlicedSsrMin>(
        ring, lane_daemon_spec(daemon_name), 1234 + n, BlockRange{0, trials},
        budget, /*two_phase=*/true);
    ASSERT_EQ(batched.size(), trials);
    for (std::uint64_t t = 0; t < trials; ++t) {
      Rng rng = trial_rng(1234 + n, t);
      stab::Engine<core::SsrMinRing> engine(ring,
                                            core::random_config(ring, rng));
      auto daemon = stab::make_daemon(daemon_name, rng.split());
      auto dij = [&ring](const core::SsrConfig& c) {
        return core::dijkstra_part_legitimate(ring, c);
      };
      const auto r1 = stab::run_until(engine, *daemon, dij, budget);
      auto legit = [&ring](const core::SsrConfig& c) {
        return core::is_legitimate(ring, c);
      };
      const auto r2 = stab::run_until(engine, *daemon, legit, budget);
      EXPECT_EQ(batched[t].milestone.reached, r1.reached)
          << daemon_name << " trial " << t;
      EXPECT_EQ(batched[t].milestone.deadlocked, r1.deadlocked);
      EXPECT_EQ(batched[t].milestone.steps, r1.steps)
          << daemon_name << " trial " << t;
      EXPECT_EQ(batched[t].milestone.moves, r1.moves)
          << daemon_name << " trial " << t;
      EXPECT_EQ(batched[t].result.reached, r2.reached);
      EXPECT_EQ(batched[t].result.deadlocked, r2.deadlocked);
      EXPECT_EQ(batched[t].result.steps, r2.steps)
          << daemon_name << " trial " << t;
      EXPECT_EQ(batched[t].result.moves, r2.moves)
          << daemon_name << " trial " << t;
    }
  }
}

TEST(RunConvergenceBlock, MatchesScalarSinglePhaseDijkstra) {
  const std::size_t n = 10;
  const dijkstra::KStateRing ring(n, static_cast<std::uint32_t>(n + 1));
  const std::uint64_t budget = 2000;
  const std::uint64_t trials = 100;
  const auto batched = run_convergence_block<dijkstra::SlicedKState>(
      ring, lane_daemon_spec("central-random"), 777 + n, BlockRange{0, trials},
      budget, /*two_phase=*/false);
  ASSERT_EQ(batched.size(), trials);
  for (std::uint64_t t = 0; t < trials; ++t) {
    Rng rng = trial_rng(777 + n, t);
    stab::Engine<dijkstra::KStateRing> engine(
        ring, dijkstra::random_config(ring, rng));
    stab::CentralRandomDaemon daemon{rng.split()};
    auto legit = [&ring](const dijkstra::KStateConfig& c) {
      return dijkstra::is_legitimate(ring, c);
    };
    const auto r = stab::run_until(engine, daemon, legit, budget);
    EXPECT_EQ(batched[t].result.reached, r.reached) << "trial " << t;
    EXPECT_EQ(batched[t].result.steps, r.steps) << "trial " << t;
    EXPECT_EQ(batched[t].result.moves, r.moves) << "trial " << t;
  }
}

// ---------------------------------------------------------------------------
// The bench-shaped contract: batched tables are identical at 1/2/8 workers
// and equal to the scalar table.

std::string mini_convergence_table(bool batched, std::size_t threads) {
  const std::size_t n = 6;
  const core::SsrMinRing ring(n, static_cast<std::uint32_t>(n + 1));
  const std::uint64_t budget = 80ULL * n * n + 400;
  const std::uint64_t trials = 90;
  TrialSweep sweep({.threads = threads});
  std::vector<std::uint64_t> steps;
  if (batched) {
    const auto blocks = plan_blocks(trials, sweep.threads());
    const auto per_block = sweep.map(blocks.size(), [&](std::uint64_t b) {
      return run_convergence_block<core::SlicedSsrMin>(
          ring, lane_daemon_spec("distributed-random-subset"), 555, blocks[b],
          budget, /*two_phase=*/true);
    });
    for (const auto& block : per_block) {
      for (const auto& trial : block) {
        steps.push_back(trial.milestone.steps + trial.result.steps);
      }
    }
  } else {
    const auto results = sweep.run_trials(
        555, trials, [&](std::uint64_t, Rng& rng) {
          stab::Engine<core::SsrMinRing> engine(
              ring, core::random_config(ring, rng));
          auto daemon = stab::make_daemon("distributed-random-subset",
                                          rng.split());
          auto dij = [&ring](const core::SsrConfig& c) {
            return core::dijkstra_part_legitimate(ring, c);
          };
          const auto r1 = stab::run_until(engine, *daemon, dij, budget);
          auto legit = [&ring](const core::SsrConfig& c) {
            return core::is_legitimate(ring, c);
          };
          const auto r2 = stab::run_until(engine, *daemon, legit, budget);
          return r1.steps + r2.steps;
        });
    steps.assign(results.begin(), results.end());
  }
  TextTable table({"trial", "steps"});
  for (std::size_t t = 0; t < steps.size(); ++t) {
    table.row().cell(t).cell(steps[t]);
  }
  return table.render();
}

TEST(BatchEngine, SweepTablesBitIdenticalAcrossWorkerCounts) {
  const std::string scalar = mini_convergence_table(false, 1);
  const std::string batched1 = mini_convergence_table(true, 1);
  EXPECT_EQ(batched1, scalar);
  EXPECT_EQ(mini_convergence_table(true, 2), batched1);
  EXPECT_EQ(mini_convergence_table(true, 8), batched1);
  EXPECT_EQ(mini_convergence_table(false, 8), scalar);
}

// ---------------------------------------------------------------------------
// plan_blocks invariants.

TEST(PlanBlocks, CoversTrialsContiguously) {
  for (std::uint64_t trials : {1u, 17u, 64u, 65u, 150u, 1000u}) {
    for (std::size_t workers : {1u, 2u, 8u, 32u}) {
      for (unsigned lanes : {64u, 256u, 512u}) {
        const auto blocks = plan_blocks(trials, workers, lanes);
        ASSERT_FALSE(blocks.empty());
        std::uint64_t expected_first = 0;
        for (const auto& b : blocks) {
          EXPECT_EQ(b.first, expected_first);
          EXPECT_GT(b.count, 0u);
          expected_first += b.count;
        }
        EXPECT_EQ(expected_first, trials);
        EXPECT_LE(blocks.size(), trials);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Wide lane words: the 256/512-lane kernels in lockstep with scalar
// engines. WideWord is portable limb-loop C++, so this TU instantiates
// them directly (no SIMD flags needed); the flag-compiled TUs contain the
// very same template instantiations, so trace identity proved here plus
// outcome identity proved on the dispatch entry points below covers the
// deployed backends.

template <typename Kernel, typename Ring>
void expect_wide_lockstep_traces(const Ring& ring,
                                 const std::string& daemon_name,
                                 std::uint64_t seed, int max_steps) {
  using Word = typename Kernel::Word;
  using Traits = util::LaneTraits<Word>;
  BatchEngine<Kernel> batch{Kernel(ring), lane_daemon_spec(daemon_name)};
  std::vector<std::unique_ptr<stab::Engine<Ring>>> scalar(Traits::kLanes);
  std::vector<std::unique_ptr<stab::Daemon>> daemons(Traits::kLanes);
  for (unsigned lane = 0; lane < Traits::kLanes; ++lane) {
    Rng rng = trial_rng(seed, lane);
    auto config = random_config(ring, rng);
    const Rng daemon_rng = rng.split();
    scalar[lane] = std::make_unique<stab::Engine<Ring>>(ring, config);
    daemons[lane] = stab::make_daemon(daemon_name, daemon_rng);
    batch.load_lane(lane, config, daemon_rng);
  }
  for (int t = 0; t < max_steps; ++t) {
    batch.refresh();
    const Word mask = batch.active() & batch.any_enabled();
    if (!Traits::any(mask)) break;
    batch.step(mask);
    Traits::for_each_lane(mask, [&](unsigned lane) {
      ASSERT_TRUE(scalar[lane]->step_with(*daemons[lane]));
      ASSERT_EQ(batch.extract_lane(lane), scalar[lane]->config())
          << daemon_name << " n=" << ring.size() << " lanes="
          << Traits::kLanes << " lane " << lane << " step " << t;
      ASSERT_EQ(batch.steps(lane), scalar[lane]->steps());
      ASSERT_EQ(batch.moves(lane), scalar[lane]->moves());
    });
  }
}

TEST(BatchEngineWide, SsrMinWideLanesMatchScalarTraces) {
  const core::SsrMinRing ring(5, 6);
  for (const char* daemon : {"central-random", "distributed-synchronous"}) {
    expect_wide_lockstep_traces<core::BasicSlicedSsrMin<util::WideWord<4>>>(
        ring, daemon, 19, 80);
    expect_wide_lockstep_traces<core::BasicSlicedSsrMin<util::Lane512>>(
        ring, daemon, 23, 80);
  }
  // K = 2^d digit-wrap edge at 256 lanes.
  expect_wide_lockstep_traces<core::BasicSlicedSsrMin<util::WideWord<4>>>(
      core::SsrMinRing(7, 8), "distributed-synchronous", 5, 60);
}

TEST(BatchEngineWide, KStateWideLanesMatchScalarTraces) {
  expect_wide_lockstep_traces<dijkstra::BasicSlicedKState<util::WideWord<4>>>(
      dijkstra::KStateRing(5, 6), "central-random", 7, 80);
  expect_wide_lockstep_traces<dijkstra::BasicSlicedKState<util::Lane512>>(
      dijkstra::KStateRing(5, 6), "distributed-synchronous", 9, 80);
}

// ---------------------------------------------------------------------------
// Runtime dispatch: every backend (including ones the CPU lacks, which
// must silently degrade) returns byte-identical outcome vectors, and the
// SSRING_LANE_BACKEND=u64 override pins the guaranteed-portable fallback.

void expect_outcomes_equal(const std::vector<BatchTrialOutcome>& a,
                           const std::vector<BatchTrialOutcome>& b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].milestone.reached, b[t].milestone.reached)
        << what << " trial " << t;
    EXPECT_EQ(a[t].milestone.deadlocked, b[t].milestone.deadlocked)
        << what << " trial " << t;
    EXPECT_EQ(a[t].milestone.steps, b[t].milestone.steps)
        << what << " trial " << t;
    EXPECT_EQ(a[t].milestone.moves, b[t].milestone.moves)
        << what << " trial " << t;
    EXPECT_EQ(a[t].result.reached, b[t].result.reached)
        << what << " trial " << t;
    EXPECT_EQ(a[t].result.deadlocked, b[t].result.deadlocked)
        << what << " trial " << t;
    EXPECT_EQ(a[t].result.steps, b[t].result.steps) << what << " trial " << t;
    EXPECT_EQ(a[t].result.moves, b[t].result.moves) << what << " trial " << t;
  }
}

TEST(BatchDispatch, AllBackendsProduceIdenticalOutcomes) {
  const std::uint64_t trials = 150;
  {
    const core::SsrMinRing ring(6, 7);
    const std::uint64_t budget = 80ULL * 36 + 400;
    const auto spec = lane_daemon_spec("distributed-random-subset");
    const auto baseline = run_convergence_block<core::SlicedSsrMin>(
        ring, spec, 99, BlockRange{0, trials}, budget, /*two_phase=*/true);
    for (util::LaneBackend backend :
         {util::LaneBackend::kU64, util::LaneBackend::kAvx512}) {
      const auto got = run_convergence_block_ssrmin(
          ring, spec, 99, BlockRange{0, trials}, budget, /*two_phase=*/true,
          backend);
      expect_outcomes_equal(baseline, got,
                            std::string("ssrmin backend ") +
                                util::lane_backend_name(backend));
    }
  }
  {
    const dijkstra::KStateRing ring(8, 9);
    const auto spec = lane_daemon_spec("central-random");
    const auto baseline = run_convergence_block<dijkstra::SlicedKState>(
        ring, spec, 55, BlockRange{0, trials}, 2000, /*two_phase=*/false);
    for (util::LaneBackend backend :
         {util::LaneBackend::kU64, util::LaneBackend::kAvx512}) {
      const auto got = run_convergence_block_kstate(
          ring, spec, 55, BlockRange{0, trials}, 2000, /*two_phase=*/false,
          backend);
      expect_outcomes_equal(baseline, got,
                            std::string("kstate backend ") +
                                util::lane_backend_name(backend));
    }
  }
}

TEST(BatchDispatch, EnvOverridePinsTheU64Fallback) {
  // The -march=native deployment hazard: whatever the host CPU offers,
  // forcing SSRING_LANE_BACKEND=u64 must select the portable 64-lane
  // path, and that path must reproduce the widest backend's outcomes.
  ::setenv("SSRING_LANE_BACKEND", "u64", 1);
  EXPECT_EQ(util::detect_lane_backend(), util::LaneBackend::kU64);
  const core::SsrMinRing ring(5, 6);
  const auto spec = lane_daemon_spec("central-random");
  const auto forced = run_convergence_block_ssrmin(
      ring, spec, 42, BlockRange{0, 100}, 3000, /*two_phase=*/true,
      util::detect_lane_backend());
  ::unsetenv("SSRING_LANE_BACKEND");
  const auto widest = run_convergence_block_ssrmin(
      ring, spec, 42, BlockRange{0, 100}, 3000, /*two_phase=*/true,
      util::detect_lane_backend());
  expect_outcomes_equal(forced, widest, "forced-u64 vs auto");
  // The auto answer is always a usable backend; u64 is always available.
  EXPECT_TRUE(util::lane_backend_available(util::LaneBackend::kU64));
  EXPECT_TRUE(util::lane_backend_available(util::detect_lane_backend()));
  EXPECT_EQ(util::lane_backend_lanes(util::LaneBackend::kU64), 64u);
  EXPECT_EQ(std::string(util::lane_backend_name(util::LaneBackend::kU64)),
            "u64");
}

TEST(BatchDispatch, Avx2RequestDegradesToU64) {
  // There is no 256-lane backend: a request for one takes the best backend
  // at or below that width, which is u64 even on an AVX-512 host.
  ::setenv("SSRING_LANE_BACKEND", "avx2", 1);
  const util::LaneBackend got = util::detect_lane_backend();
  ::unsetenv("SSRING_LANE_BACKEND");
  EXPECT_EQ(got, util::LaneBackend::kU64);
}

}  // namespace
}  // namespace ssr::sim
