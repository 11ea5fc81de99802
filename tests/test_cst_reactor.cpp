// Differential test between the two independent implementations of
// Herman's cached sensornet transform (paper §5, Algorithm 4): the sharded
// CST simulator (msgpass::CstSimulation) and the multi-ring reactor's
// deterministic virtual transport (runtime::MultiRingReactor, kVirtual).
// They share the protocols and the fault-plan grammar, but caches, links,
// timers and event order are written twice, so agreement on the paper's
// observable claims is evidence that neither has drifted:
//
//   * eventual legitimacy from an arbitrary start;
//   * after stabilization, 1 <= holders <= 2 for SSRmin (Theorem 3);
//   * zero-holder dwell for Dijkstra and dual Dijkstra (Figs. 11-12).
//
// The networks are matched: one simulator tick is the reactor's fixed
// 50 us link latency, so a fixed one-tick delay, a 1 ms refresh and the
// same fault plan (loss-free, or 10% frame drop) drive both sides, on
// rings of 5 and 8 nodes with K = n + 1.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "core/legitimacy.hpp"
#include "dijkstra/dual.hpp"
#include "dijkstra/kstate.hpp"
#include "msgpass/factories.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/reactor.hpp"

namespace ssr {
namespace {

using runtime::RingProtocolKind;
using std::chrono::microseconds;
using std::chrono::milliseconds;

constexpr double kTickUs = 50.0;       ///< the reactor's virtual latency
constexpr double kRefreshUs = 1000.0;  ///< refresh interval on both sides
constexpr int kRunMs = 400;            ///< reactor run, virtual time
/// Simulator budget to stabilize, then the post-stabilization window.
constexpr msgpass::Time kSettleTicks = 20000.0;
constexpr msgpass::Time kWindowTicks = kRunMs * 1000.0 / kTickUs;

constexpr std::size_t kSizes[] = {5, 8};
constexpr const char* kPlans[] = {"", "drop=0.1"};

/// What both implementations report about one ring.
struct Outcome {
  bool legitimate = false;  ///< reached a legitimate configuration
  std::size_t min_holders = 0;
  std::size_t max_holders = 0;
  double zero_dwell = 0.0;  ///< time with no holder (either clock)
};

// --- reactor side -----------------------------------------------------------

Outcome run_reactor(RingProtocolKind kind, std::size_t n, const char* plan,
                    runtime::RingStart start, std::uint64_t seed) {
  runtime::ReactorConfig config;
  config.rings = 1;
  config.nodes = n;
  config.protocol = kind;
  config.transport = runtime::ReactorTransport::kVirtual;
  config.start = start;
  config.seed = seed;
  config.refresh_interval = microseconds(static_cast<int>(kRefreshUs));
  config.fault_plan = runtime::FaultPlan::parse(plan);
  config.per_ring_telemetry = true;
  runtime::MultiRingReactor reactor(config);
  reactor.run(milliseconds(kRunMs));
  const runtime::Telemetry& t = reactor.ring_telemetry(0);
  return {reactor.table().is_legitimate(0), t.min_holders(), t.max_holders(),
          t.zero_holder_dwell_us()};
}

// --- simulator side ---------------------------------------------------------

msgpass::NetworkParams matched_net(const char* plan, std::uint64_t seed) {
  msgpass::NetworkParams p;
  p.delay_min = 1.0;
  p.delay_max = 1.0;
  p.refresh_interval = kRefreshUs / kTickUs;
  // The reactor executes a rule inside the delivery that enables it; the
  // simulator needs a positive service time, so keep it a small fraction
  // of one hop.
  p.service_min = 0.01;
  p.service_max = 0.02;
  p.microseconds_per_tick = kTickUs;
  p.fault_plan = runtime::FaultPlan::parse(plan);
  p.seed = seed;
  return p;
}

/// Runs @p sim until its configuration is legitimate, then observes one
/// window of the reactor's run length. (Coherent caches are not required:
/// with a one-hop delay and a short service time a state change is almost
/// always in flight.)
template <typename Sim, typename LegitFn>
Outcome run_cst(Sim sim, LegitFn legit) {
  Outcome out;
  sim.run_until(
      [&legit](const Sim& s) { return legit(s.global_config()); },
      kSettleTicks, &out.legitimate);
  const msgpass::CoverageStats window = sim.run(kWindowTicks);
  out.min_holders = window.min_holders;
  out.max_holders = window.max_holders;
  out.zero_dwell = window.zero_token_time;
  return out;
}

Outcome cst_ssrmin(std::size_t n, const char* plan, std::uint64_t seed) {
  const core::SsrMinRing ring(n, static_cast<std::uint32_t>(n + 1));
  Rng rng(seed);
  core::SsrConfig initial(n);
  for (auto& s : initial) {
    s.x = static_cast<std::uint32_t>(rng.below(n + 1));
    s.rts = rng.bernoulli(0.5);
    s.tra = rng.bernoulli(0.5);
  }
  return run_cst(
      msgpass::make_ssrmin_cst(ring, initial, matched_net(plan, seed)),
      [&ring](const core::SsrConfig& c) {
        return core::is_legitimate(ring, c);
      });
}

Outcome cst_kstate(std::size_t n, const char* plan, std::uint64_t seed) {
  const dijkstra::KStateRing ring(n, static_cast<std::uint32_t>(n + 1));
  Rng rng(seed);
  dijkstra::KStateConfig initial(n);
  for (auto& s : initial) s.x = static_cast<std::uint32_t>(rng.below(n + 1));
  return run_cst(
      msgpass::make_kstate_cst(ring, initial, matched_net(plan, seed)),
      [&ring](const dijkstra::KStateConfig& c) {
        return dijkstra::is_legitimate(ring, c);
      });
}

Outcome cst_dual(std::size_t n, const char* plan, std::uint64_t seed) {
  const dijkstra::DualKStateRing ring(n, static_cast<std::uint32_t>(n + 1));
  Rng rng(seed);
  dijkstra::DualConfig initial(n);
  for (auto& s : initial) {
    s.a = static_cast<std::uint32_t>(rng.below(n + 1));
    s.b = static_cast<std::uint32_t>(rng.below(n + 1));
  }
  return run_cst(
      msgpass::make_dual_cst(ring, initial, matched_net(plan, seed)),
      [&ring](const dijkstra::DualConfig& c) {
        return dijkstra::is_legitimate(ring, c);
      });
}

std::string label(std::size_t n, const char* plan) {
  return "n=" + std::to_string(n) + " plan='" + plan + "'";
}

TEST(CstReactorDifferential, SsrMinStabilizesAndHandsOverGracefully) {
  std::uint64_t seed = 100;
  for (std::size_t n : kSizes) {
    for (const char* plan : kPlans) {
      SCOPED_TRACE(label(n, plan));
      ++seed;
      const Outcome sim = cst_ssrmin(n, plan, seed);
      EXPECT_TRUE(sim.legitimate) << "simulator";
      EXPECT_GE(sim.min_holders, 1u) << "simulator";
      EXPECT_LE(sim.max_holders, 2u) << "simulator";
      EXPECT_EQ(sim.zero_dwell, 0.0) << "simulator";

      const Outcome from_random = run_reactor(
          RingProtocolKind::kSsrMin, n, plan, runtime::RingStart::kRandom,
          seed);
      EXPECT_TRUE(from_random.legitimate) << "reactor";
      // The reactor runs once per instance, so its post-stabilization
      // window is a run from a legitimate start. Its fixed latency lands
      // deliveries on the same microsecond, and it applies them one at a
      // time: a handover whose release and gain share a microsecond passes
      // through a zero-length instant with no holder. The lower bound is
      // therefore checked on the time-weighted count (no zero dwell).
      const Outcome settled = run_reactor(
          RingProtocolKind::kSsrMin, n, plan, runtime::RingStart::kLegitimate,
          seed);
      EXPECT_TRUE(settled.legitimate) << "reactor";
      EXPECT_EQ(settled.zero_dwell, 0.0) << "reactor";
      EXPECT_LE(settled.max_holders, 2u) << "reactor";
    }
  }
}

TEST(CstReactorDifferential, DijkstraStabilizesButLosesTheTokenInTransit) {
  std::uint64_t seed = 200;
  for (std::size_t n : kSizes) {
    for (const char* plan : kPlans) {
      SCOPED_TRACE(label(n, plan));
      ++seed;
      const Outcome sim = cst_kstate(n, plan, seed);
      EXPECT_TRUE(sim.legitimate) << "simulator";
      EXPECT_GT(sim.zero_dwell, 0.0) << "simulator";
      const Outcome reactor = run_reactor(
          RingProtocolKind::kKState, n, plan, runtime::RingStart::kRandom,
          seed);
      EXPECT_TRUE(reactor.legitimate) << "reactor";
      EXPECT_GT(reactor.zero_dwell, 0.0) << "reactor";
    }
  }
}

TEST(CstReactorDifferential, DualDijkstraStabilizesButStillReachesZero) {
  std::uint64_t seed = 300;
  for (std::size_t n : kSizes) {
    for (const char* plan : kPlans) {
      SCOPED_TRACE(label(n, plan));
      ++seed;
      const Outcome sim = cst_dual(n, plan, seed);
      EXPECT_TRUE(sim.legitimate) << "simulator";
      EXPECT_GT(sim.zero_dwell, 0.0) << "simulator";
      const Outcome reactor = run_reactor(
          RingProtocolKind::kDual, n, plan, runtime::RingStart::kRandom, seed);
      EXPECT_TRUE(reactor.legitimate) << "reactor";
      EXPECT_GT(reactor.zero_dwell, 0.0) << "reactor";
    }
  }
}

}  // namespace
}  // namespace ssr
