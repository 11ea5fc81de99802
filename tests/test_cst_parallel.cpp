// Serial-vs-sharded differential for the conservative parallel CST
// engine: every statistic the simulator produces — CoverageStats with its
// float fields compared bit-for-bit, final global configurations, token
// views, and the runtime::Telemetry JSON export — must be byte-identical
// at 1, 2 and 8 workers, across protocols (SSRmin / Dijkstra / dual),
// delay models, loss/duplication probabilities and scripted FaultPlan
// crash windows. This is the same determinism bar the model checker and
// TrialSweep are held to (PR 1 / PR 2), and it is what lets every bench
// or experiment flip NetworkParams::workers without re-baselining.
//
// Also runs under TSan in CI: the multi-worker runs double as a race
// detector for the shard boundaries (outbox exchange, per-node injector
// state, byte-granular flag arrays).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/legitimacy.hpp"
#include "graph/cst.hpp"
#include "graph/mis.hpp"
#include "graph/topology.hpp"
#include "msgpass/cst.hpp"
#include "msgpass/factories.hpp"
#include "runtime/telemetry.hpp"

namespace ssr::msgpass {
namespace {

constexpr std::size_t kWorkerCounts[] = {1, 2, 8};

NetworkParams base_net(std::uint64_t seed) {
  NetworkParams p;
  p.delay_min = 0.5;
  p.delay_max = 1.5;
  p.refresh_interval = 8.0;
  p.service_min = 0.4;
  p.service_max = 0.9;
  p.seed = seed;
  return p;
}

/// Everything one run produces, in exactly comparable form.
struct RunRecord {
  CoverageStats stats;
  Time now = 0.0;
  bool stopped = false;
  std::size_t holder_count = 0;
  std::vector<bool> token_view;
  std::string config;     ///< final global config, printed losslessly
  std::string telemetry;  ///< Telemetry JSON (empty if not recorded)
};

/// CoverageStats comparison. Doubles are compared with EXPECT_EQ on
/// purpose: the contract is byte-identity, not tolerance.
void expect_same_stats(const CoverageStats& ref, const CoverageStats& got) {
  EXPECT_EQ(ref.observed_time, got.observed_time);
  EXPECT_EQ(ref.zero_token_time, got.zero_token_time);
  EXPECT_EQ(ref.zero_intervals, got.zero_intervals);
  EXPECT_EQ(ref.min_holders, got.min_holders);
  EXPECT_EQ(ref.max_holders, got.max_holders);
  EXPECT_EQ(ref.events, got.events);
  EXPECT_EQ(ref.deliveries, got.deliveries);
  EXPECT_EQ(ref.transmissions, got.transmissions);
  EXPECT_EQ(ref.losses, got.losses);
  EXPECT_EQ(ref.rule_executions, got.rule_executions);
  EXPECT_EQ(ref.crash_restarts, got.crash_restarts);
  EXPECT_EQ(ref.handovers, got.handovers);
}

void expect_same(const RunRecord& ref, const RunRecord& got,
                 const std::string& label) {
  SCOPED_TRACE(label);
  expect_same_stats(ref.stats, got.stats);
  EXPECT_EQ(ref.now, got.now);
  EXPECT_EQ(ref.stopped, got.stopped);
  EXPECT_EQ(ref.holder_count, got.holder_count);
  EXPECT_EQ(ref.token_view, got.token_view);
  EXPECT_EQ(ref.config, got.config);
  EXPECT_EQ(ref.telemetry, got.telemetry);
}

std::string print_config(const core::SsrConfig& config) {
  std::string out;
  for (const auto& s : config) {
    out += std::to_string(s.x) + (s.rts ? "R" : "r") + (s.tra ? "T" : "t") +
           ";";
  }
  return out;
}

std::string print_config(const std::vector<dijkstra::KStateLocal>& config) {
  std::string out;
  for (const auto& s : config) out += std::to_string(s.x) + ";";
  return out;
}

std::string print_config(const std::vector<dijkstra::DualLocal>& config) {
  std::string out;
  for (const auto& s : config) {
    out += std::to_string(s.a) + "/" + std::to_string(s.b) + ";";
  }
  return out;
}

/// Runs @p sim for @p duration, recording telemetry when @p telemetry.
template <typename Sim>
RunRecord run_fixed(Sim& sim, Time duration, bool telemetry) {
  RunRecord rec;
  runtime::Telemetry t(sim.size());
  if (telemetry) {
    t.set_context("cst-parallel-test", "cst", 1);
    sim.set_observer([&t](Time from, Time /*to*/,
                          const std::vector<bool>& holders) {
      t.observe(from * 1000.0, holders);
    });
  }
  rec.stats = sim.run(duration);
  if (telemetry) {
    t.finish(sim.fault_clock_us());
    t.set_aggregates(rec.stats.transmissions, rec.stats.losses,
                     rec.stats.deliveries, rec.stats.rule_executions);
    rec.telemetry = t.to_json_string();
  }
  rec.now = sim.now();
  rec.holder_count = sim.holder_count();
  rec.token_view = sim.token_view();
  rec.config = print_config(sim.global_config());
  return rec;
}

void run_ssrmin_scenario(const NetworkParams& base, Time duration,
                         bool randomize, bool telemetry,
                         const std::string& label) {
  core::SsrMinRing ring(11, 12);
  RunRecord ref;
  for (std::size_t w : kWorkerCounts) {
    NetworkParams net = base;
    net.workers = w;
    auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
    EXPECT_EQ(sim.workers(), w);
    if (randomize) {
      sim.randomize_caches([](Rng& r) {
        core::SsrState s;
        s.x = static_cast<std::uint32_t>(r.below(12));
        s.rts = r.bernoulli(0.5);
        s.tra = r.bernoulli(0.5);
        return s;
      });
    }
    RunRecord rec = run_fixed(sim, duration, telemetry);
    if (w == kWorkerCounts[0]) {
      ref = rec;
      // The reference run must have actually simulated something.
      EXPECT_GT(ref.stats.events, 0u);
    } else {
      expect_same(ref, rec, label + " workers=" + std::to_string(w));
    }
  }
}

TEST(CstParallel, SsrMinFaultFree) {
  run_ssrmin_scenario(base_net(21), 400.0, false, false, "fault-free");
}

TEST(CstParallel, SsrMinLossAndDuplication) {
  NetworkParams net = base_net(22);
  net.loss_probability = 0.15;
  net.duplicate_probability = 0.1;
  run_ssrmin_scenario(net, 600.0, true, false, "loss+dup");
}

TEST(CstParallel, SsrMinExponentialTailDelays) {
  NetworkParams net = base_net(23);
  net.delay_model = DelayModel::kExponentialTail;
  net.delay_max = 3.0;
  run_ssrmin_scenario(net, 400.0, true, false, "exp-tail");
}

TEST(CstParallel, SsrMinFaultPlanWithCrashWindows) {
  // microseconds_per_tick = 1000, so tick t is millisecond t on the fault
  // clock: two crash windows, a pause and background probabilistic faults
  // all land inside the 600-tick run.
  NetworkParams net = base_net(24);
  net.loss_probability = 0.05;
  net.fault_plan = runtime::FaultPlan::parse(
      "drop=0.05;dup=0.03;reorder=0.02;"
      "crash@100ms-140ms:node=3;crash@250ms-300ms:node=7;"
      "pause@400ms-430ms:node=0;burst@480ms-500ms");
  run_ssrmin_scenario(net, 600.0, true, false, "fault-plan");
}

TEST(CstParallel, TelemetryJsonByteIdentical) {
  NetworkParams net = base_net(25);
  net.loss_probability = 0.1;
  net.fault_plan =
      runtime::FaultPlan::parse("crash@120ms-170ms:node=5;drop=0.04");
  run_ssrmin_scenario(net, 500.0, true, true, "telemetry");
}

TEST(CstParallel, DijkstraKStateWithLoss) {
  dijkstra::KStateRing ring(11, 12);
  NetworkParams base = base_net(26);
  base.loss_probability = 0.2;
  RunRecord ref;
  for (std::size_t w : kWorkerCounts) {
    NetworkParams net = base;
    net.workers = w;
    auto sim = make_kstate_cst(ring, dijkstra::KStateConfig(11), net);
    sim.randomize_caches([](Rng& r) {
      dijkstra::KStateLocal s;
      s.x = static_cast<std::uint32_t>(r.below(12));
      return s;
    });
    RunRecord rec = run_fixed(sim, 500.0, false);
    if (w == kWorkerCounts[0]) {
      ref = rec;
      EXPECT_GT(ref.stats.events, 0u);
    } else {
      expect_same(ref, rec, "dijkstra workers=" + std::to_string(w));
    }
  }
}

TEST(CstParallel, DualDijkstra) {
  dijkstra::DualKStateRing ring(10, 11);
  RunRecord ref;
  for (std::size_t w : kWorkerCounts) {
    NetworkParams net = base_net(27);
    net.loss_probability = 0.1;
    net.workers = w;
    auto sim = make_dual_cst(ring, dijkstra::DualConfig(10), net);
    RunRecord rec = run_fixed(sim, 400.0, false);
    if (w == kWorkerCounts[0]) {
      ref = rec;
      EXPECT_GT(ref.stats.events, 0u);
    } else {
      expect_same(ref, rec, "dual workers=" + std::to_string(w));
    }
  }
}

TEST(CstParallel, RunUntilStopsAtTheSameRound) {
  // run_until evaluates its predicate at round horizons, which are a
  // function of event times only — so the stop instant (and the partial
  // stats) must also be worker-count-independent.
  core::SsrMinRing ring(9, 10);
  RunRecord ref;
  for (std::size_t w : kWorkerCounts) {
    NetworkParams net = base_net(28);
    net.loss_probability = 0.25;
    net.workers = w;
    auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
    sim.randomize_caches([](Rng& r) {
      core::SsrState s;
      s.x = static_cast<std::uint32_t>(r.below(10));
      s.rts = r.bernoulli(0.5);
      s.tra = r.bernoulli(0.5);
      return s;
    });
    RunRecord rec;
    auto stop = [&ring](const CstSimulation<core::SsrMinRing>& s) {
      return s.coherent() && core::is_legitimate(ring, s.global_config());
    };
    rec.stats = sim.run_until(stop, 50000.0, &rec.stopped);
    rec.now = sim.now();
    rec.holder_count = sim.holder_count();
    rec.token_view = sim.token_view();
    rec.config = print_config(sim.global_config());
    if (w == kWorkerCounts[0]) {
      ref = rec;
      EXPECT_TRUE(ref.stopped);
      EXPECT_LT(ref.now, 50000.0);
    } else {
      expect_same(ref, rec, "run_until workers=" + std::to_string(w));
    }
  }
}

TEST(CstParallel, ConsecutiveWindowsStayAligned) {
  // Multiple run() windows on one simulation: per-window stats and the
  // carried-over engine state must stay identical, not just a single shot.
  core::SsrMinRing ring(10, 11);
  std::vector<RunRecord> ref;
  for (std::size_t w : kWorkerCounts) {
    NetworkParams net = base_net(29);
    net.loss_probability = 0.1;
    net.duplicate_probability = 0.05;
    net.workers = w;
    auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
    std::vector<RunRecord> windows;
    for (int k = 0; k < 3; ++k) windows.push_back(run_fixed(sim, 150.0, false));
    if (w == kWorkerCounts[0]) {
      ref = windows;
    } else {
      for (std::size_t k = 0; k < ref.size(); ++k) {
        expect_same(ref[k], windows[k],
                    "window " + std::to_string(k) + " workers=" +
                        std::to_string(w));
      }
    }
  }
}

// --- absolute trajectory goldens -------------------------------------------
//
// The differentials above compare worker counts within one build; these pin
// absolute statistics, so a refactor of the engine cannot drift every worker
// count in lockstep. Counts are exact integers, times hex-floats, and the
// telemetry JSON and final configuration are pinned by their FNV-1a hash.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(CstGolden, SsrMinLossyFaultPlanTrajectory) {
  // Loss, duplication, an exponential-tail delay and a crash + pause plan
  // with arbitrary caches: every branch of the ring engine's handlers.
  constexpr CoverageStats kGolden{
      .observed_time = 0x1.f4p+8, .zero_token_time = 0x1.63cc5f1829dp+0,
      .zero_intervals = 1, .min_holders = 0, .max_holders = 11,
      .events = 4263, .deliveries = 3454, .transmissions = 3325,
      .losses = 490, .rule_executions = 121, .crash_restarts = 1,
      .handovers = 88};
  NetworkParams net = base_net(41);
  net.loss_probability = 0.1;
  net.duplicate_probability = 0.05;
  net.delay_model = DelayModel::kExponentialTail;
  net.delay_max = 3.0;
  net.fault_plan = runtime::FaultPlan::parse(
      "drop=0.03;crash@120ms-170ms:node=5;pause@300ms-330ms:node=2");
  for (std::size_t w : kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(w));
    net.workers = w;
    core::SsrMinRing ring(11, 12);
    auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
    sim.randomize_caches([](Rng& r) {
      core::SsrState s;
      s.x = static_cast<std::uint32_t>(r.below(12));
      s.rts = r.bernoulli(0.5);
      s.tra = r.bernoulli(0.5);
      return s;
    });
    const RunRecord rec = run_fixed(sim, 500.0, true);
    expect_same_stats(kGolden, rec.stats);
    EXPECT_EQ(rec.now, kGolden.observed_time);
    EXPECT_EQ(rec.holder_count, 1u);
    EXPECT_EQ(fnv1a(rec.config), 0x1d57dea87b9a8e8cull);
    EXPECT_EQ(fnv1a(rec.telemetry), 0x910182bb6b52fa92ull);
  }
}

/// The modelgap workload's network (Figs. 11-13): loss-free, uniform
/// delays in [0.5, 1.0], service in [0.4, 0.9].
NetworkParams modelgap_net(std::uint64_t seed) {
  NetworkParams p = base_net(seed);
  p.delay_max = 1.0;
  return p;
}

/// Runs a fresh simulation from @p make at 1/2/8 workers for @p duration
/// and checks it against the absolute golden stats and config hash.
template <typename MakeSim>
void expect_ring_golden(MakeSim&& make, Time duration,
                        const CoverageStats& golden,
                        std::uint64_t config_hash) {
  for (std::size_t w : kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(w));
    auto sim = make(w);
    const RunRecord rec = run_fixed(sim, duration, false);
    expect_same_stats(golden, rec.stats);
    EXPECT_EQ(rec.now, golden.observed_time);
    EXPECT_EQ(fnv1a(rec.config), config_hash);
  }
}

// Fault-free Figs. 11-13 trajectories at n = 8 (the modelgap workload's
// ring and network): a loss-free plan exercises none of the fault branches,
// so these pin the plain delivery / execute / timer / link-free path of
// each protocol.

TEST(CstGolden, SsrMinModelgapTrajectory) {
  constexpr CoverageStats kGolden{
      .observed_time = 0x1.9p+8, .zero_token_time = 0x0p+0,
      .zero_intervals = 0, .min_holders = 1, .max_holders = 2,
      .events = 9119, .deliveries = 8494, .transmissions = 8510,
      .losses = 0, .rule_executions = 227, .crash_restarts = 0,
      .handovers = 151};
  const core::SsrMinRing ring(8, 9);
  expect_ring_golden(
      [&ring](std::size_t w) {
        NetworkParams net = modelgap_net(51);
        net.workers = w;
        return make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
      },
      400.0, kGolden, 0x7cf32dc724ce4c60ull);
}

TEST(CstGolden, DijkstraModelgapTrajectory) {
  constexpr CoverageStats kGolden{
      .observed_time = 0x1.9p+8, .zero_token_time = 0x1.008a13704047cp+8,
      .zero_intervals = 219, .min_holders = 0, .max_holders = 1,
      .events = 9092, .deliveries = 8472, .transmissions = 8488,
      .losses = 0, .rule_executions = 219, .crash_restarts = 0,
      .handovers = 438};
  const dijkstra::KStateRing ring(8, 9);
  expect_ring_golden(
      [&ring](std::size_t w) {
        NetworkParams net = modelgap_net(52);
        net.workers = w;
        return make_kstate_cst(ring, dijkstra::KStateConfig(8), net);
      },
      400.0, kGolden, 0x8ae5578254208c0cull);
}

TEST(CstGolden, DualDijkstraModelgapTrajectory) {
  constexpr CoverageStats kGolden{
      .observed_time = 0x1.9p+8, .zero_token_time = 0x1.36bb706f3532ap+7,
      .zero_intervals = 295, .min_holders = 0, .max_holders = 2,
      .events = 9298, .deliveries = 8448, .transmissions = 8464,
      .losses = 0, .rule_executions = 447, .crash_restarts = 0,
      .handovers = 892};
  const dijkstra::DualKStateRing ring(8, 9);
  dijkstra::DualConfig initial(8);
  for (std::size_t i = 0; i < 4; ++i) initial[i].b = 1;
  expect_ring_golden(
      [&ring, &initial](std::size_t w) {
        NetworkParams net = modelgap_net(53);
        net.workers = w;
        return make_dual_cst(ring, initial, net);
      },
      400.0, kGolden, 0x5f30d2cbd70c5aa4ull);
}

TEST(CstGolden, KStateTwoNodeRingTrajectory) {
  // n = 2: each node's predecessor is also its successor, so both of its
  // links (and both cache slots) face the same neighbour.
  constexpr CoverageStats kGolden{
      .observed_time = 0x1.2cp+8, .zero_token_time = 0x1.88dffba32d3dap+7,
      .zero_intervals = 162, .min_holders = 0, .max_holders = 1,
      .events = 1807, .deliveries = 1569, .transmissions = 1573,
      .losses = 181, .rule_executions = 162, .crash_restarts = 0,
      .handovers = 323};
  const dijkstra::KStateRing ring(2, 3);
  expect_ring_golden(
      [&ring](std::size_t w) {
        NetworkParams net = modelgap_net(54);
        net.loss_probability = 0.1;
        net.workers = w;
        dijkstra::KStateConfig initial(2);
        initial[1].x = 2;
        return make_kstate_cst(ring, initial, net);
      },
      300.0, kGolden, 0x62fe8ff9b575dfc3ull);
}

TEST(CstParallel, WorkerCountIsClampedToRingSize) {
  core::SsrMinRing ring(4, 5);
  NetworkParams net = base_net(30);
  net.workers = 64;
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
  EXPECT_EQ(sim.workers(), 4u);
  net.workers = 0;  // hardware concurrency, >= 1 and clamped to n
  auto sim0 = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 0), net);
  EXPECT_GE(sim0.workers(), 1u);
  EXPECT_LE(sim0.workers(), 4u);
}

}  // namespace
}  // namespace ssr::msgpass

namespace ssr::graph {
namespace {

TEST(CstParallel, GraphMisDifferential) {
  // Every worker count must land on the same absolute golden, captured
  // like the ring's (CstGolden above); the configuration is pinned by the
  // FNV-1a hash of its status digits.
  constexpr msgpass::CoverageStats kGolden{
      .observed_time = 0x1.9p+8, .zero_token_time = 0x0p+0,
      .zero_intervals = 0, .min_holders = 5, .max_holders = 8,
      .events = 47185, .deliveries = 46173, .transmissions = 46289,
      .losses = 6931, .rule_executions = 15, .crash_restarts = 0,
      .handovers = 6};
  Rng rng(31);
  const Topology g = Topology::random_connected(20, 0.2, rng);
  TurauMis mis(g);
  MisConfig initial;
  for (std::size_t i = 0; i < g.size(); ++i) {
    initial.push_back(MisState{static_cast<MisStatus>(rng.below(3))});
  }
  auto active = [](std::size_t, const MisState& self,
                   std::span<const MisState>) {
    return self.status == MisStatus::kIn;
  };
  std::vector<bool> ref_view;
  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("graph workers=" + std::to_string(w));
    msgpass::NetworkParams net;
    net.loss_probability = 0.15;
    net.seed = 33;
    net.workers = w;
    GraphCstSimulation<TurauMis> sim(mis, initial, active, net);
    EXPECT_EQ(sim.workers(), w);
    msgpass::expect_same_stats(kGolden, sim.run(400.0));
    EXPECT_EQ(sim.now(), kGolden.observed_time);
    EXPECT_EQ(sim.holder_count(), 6u);
    std::string config;
    for (const MisState& s : sim.global_config()) {
      config += std::to_string(static_cast<int>(s.status));
    }
    EXPECT_EQ(msgpass::fnv1a(config), 0x0b26277ebfb5cb55ull);
    if (w == 1) ref_view = sim.token_view();
    EXPECT_EQ(sim.token_view(), ref_view);
  }
}

}  // namespace
}  // namespace ssr::graph
