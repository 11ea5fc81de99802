// Differential tests for the incremental enabled-set cache in stab::Engine.
//
// The engine maintains the enabled set in O(k) per step by exploiting the
// neighbourhood locality contract (a guard reads only the node and its
// neighbours). These tests drive SSRmin and Dijkstra rings, and MIS and
// leader-election graphs, through thousands of randomly daemon-selected
// steps — plus corrupt() faults and reset()s — and after every mutation
// compare the cache against an independent naive full scan (scan_rule),
// the pre-incremental oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ssrmin.hpp"
#include "dijkstra/kstate.hpp"
#include "elect/leader.hpp"
#include "graph/mis.hpp"
#include "graph/protocol.hpp"
#include "stabilizing/daemon.hpp"
#include "stabilizing/engine.hpp"
#include "util/rng.hpp"

namespace ssr::stab {
namespace {

// Independent oracle: rebuilds the enabled set from scratch with
// scan_rule and compares every per-process rule and the sorted index/rule
// lists against the cache. Deliberately does not reuse
// enabled_cache_consistent() alone, so a bug in that helper cannot mask a
// cache bug.
template <typename P, typename Nbhd>
::testing::AssertionResult cache_matches_full_scan(
    const Engine<P, Nbhd>& engine) {
  std::vector<std::size_t> indices;
  std::vector<int> rules;
  for (std::size_t i = 0; i < engine.size(); ++i) {
    const int r = engine.scan_rule(i);
    if (engine.enabled_rule(i) != r) {
      return ::testing::AssertionFailure()
             << "rule cache stale at process " << i << ": cached "
             << engine.enabled_rule(i) << ", fresh scan " << r;
    }
    if (r != kDisabled) {
      indices.push_back(i);
      rules.push_back(r);
    }
  }
  if (engine.enabled_indices() != indices) {
    return ::testing::AssertionFailure() << "enabled index list diverged";
  }
  const EnabledView view = engine.enabled_view();
  if (view.indices.size() != indices.size() || view.ring_size != engine.size()) {
    return ::testing::AssertionFailure() << "enabled_view shape diverged";
  }
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (view.indices[k] != indices[k] || view.rules[k] != rules[k]) {
      return ::testing::AssertionFailure()
             << "enabled_view entry " << k << " diverged";
    }
  }
  if (!engine.enabled_cache_consistent()) {
    return ::testing::AssertionFailure()
           << "enabled_cache_consistent() is false";
  }
  return ::testing::AssertionSuccess();
}

// Drives the engine with randomly chosen daemons, random corrupt() faults
// and occasional reset()s, checking the cache after every mutation (and,
// through the debug scan checks, inside every step).
template <typename P, typename Nbhd = RingNeighbourhood<P>,
          typename RandomState>
void differential_run(const P& protocol, Rng rng, RandomState&& random_state,
                      int steps) {
  using EngineT = Engine<P, Nbhd>;
  typename EngineT::Configuration initial;
  for (std::size_t i = 0; i < protocol.size(); ++i) {
    initial.push_back(random_state(rng));
  }
  EngineT engine(protocol, std::move(initial));
  engine.set_debug_scan_checks(true);
  ASSERT_TRUE(cache_matches_full_scan(engine));

  const std::vector<std::string> daemon_names{
      "central-random", "distributed-synchronous",
      "distributed-random-subset", "adversary-max-index"};
  std::vector<std::unique_ptr<Daemon>> daemons;
  for (const auto& name : daemon_names) {
    daemons.push_back(make_daemon(name, rng.split()));
  }

  for (int t = 0; t < steps; ++t) {
    const std::uint64_t action = rng.below(100);
    if (action < 4) {
      // Single-process transient fault.
      const std::size_t i = rng.below(engine.size());
      engine.corrupt(i, random_state(rng));
    } else if (action < 6) {
      // Full configuration replacement.
      typename EngineT::Configuration c;
      for (std::size_t i = 0; i < engine.size(); ++i) {
        c.push_back(random_state(rng));
      }
      engine.reset(std::move(c));
    } else {
      Daemon& daemon = *daemons[rng.below(daemons.size())];
      if (!engine.step_with(daemon)) {
        // A ring deadlock would falsify the paper's no-deadlock lemma; a
        // silent graph protocol has converged. Re-randomize either way.
        typename EngineT::Configuration c;
        for (std::size_t i = 0; i < engine.size(); ++i) {
          c.push_back(random_state(rng));
        }
        engine.reset(std::move(c));
      }
    }
    ASSERT_TRUE(cache_matches_full_scan(engine)) << "after mutation " << t;
  }
}

TEST(EngineIncremental, DifferentialSsrMinRings) {
  for (std::size_t n : {3, 4, 7, 12}) {
    const core::SsrMinRing ring(n, static_cast<std::uint32_t>(n + 1));
    differential_run(
        ring, Rng(1000 + n),
        [&ring](Rng& rng) {
          return core::random_config(ring, rng)[0];
        },
        1500);
  }
}

TEST(EngineIncremental, DifferentialDijkstraRings) {
  for (std::size_t n : {2, 3, 5, 9}) {
    const dijkstra::KStateRing ring(n, static_cast<std::uint32_t>(n + 1));
    differential_run(
        ring, Rng(2000 + n),
        [&ring](Rng& rng) {
          return dijkstra::KStateLocal{
              static_cast<std::uint32_t>(rng.below(ring.modulus()))};
        },
        1500);
  }
}

// Graph protocols on the CSR neighbourhood: a move at node i must repair
// every neighbour of i, whatever its degree.
TEST(EngineIncremental, DifferentialMisGraphs) {
  Rng topology_rng(3000);
  for (std::size_t n : {5, 12, 24}) {
    const graph::Topology g =
        graph::Topology::random_connected(n, 0.25, topology_rng);
    differential_run<graph::TurauMis,
                     graph::GraphNeighbourhood<graph::TurauMis>>(
        graph::TurauMis(g), Rng(3000 + n),
        [](Rng& rng) {
          return graph::MisState{static_cast<graph::MisStatus>(rng.below(3))};
        },
        1500);
  }
}

TEST(EngineIncremental, DifferentialLeaderRings) {
  Rng ids_rng(4000);
  for (std::size_t n : {3, 6, 11}) {
    std::vector<std::uint32_t> ids(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<std::uint32_t>(2 * i + 1);
    }
    ids_rng.shuffle(ids);
    const elect::MinIdLeader ring(ids);
    differential_run<elect::MinIdLeader,
                     graph::GraphNeighbourhood<elect::MinIdLeader>>(
        ring, Rng(4000 + n),
        [&ring](Rng& rng) {
          return elect::LeaderState{
              static_cast<std::uint32_t>(rng.below(ring.max_id() + 1)),
              static_cast<std::uint32_t>(rng.below(ring.size()))};
        },
        1500);
  }
}

TEST(EngineIncremental, DebugScanChecksAcceptHonestSteps) {
  const dijkstra::KStateRing ring(5, 6);
  Engine<dijkstra::KStateRing> engine(
      ring, {dijkstra::KStateLocal{3}, dijkstra::KStateLocal{1},
             dijkstra::KStateLocal{4}, dijkstra::KStateLocal{1},
             dijkstra::KStateLocal{5}});
  engine.set_debug_scan_checks(true);
  Rng rng(7);
  auto daemon = make_daemon("central-random", rng.split());
  for (int t = 0; t < 200; ++t) {
    ASSERT_TRUE(engine.step_with(*daemon));
  }
  EXPECT_EQ(engine.steps(), 200u);
}

TEST(EngineIncremental, EnabledIndicesIsAllocationFreeReference) {
  const dijkstra::KStateRing ring(4, 5);
  Engine<dijkstra::KStateRing> engine(
      ring, {dijkstra::KStateLocal{2}, dijkstra::KStateLocal{0},
             dijkstra::KStateLocal{0}, dijkstra::KStateLocal{0}});
  // Same persistent cache object on every call — no per-call allocation.
  EXPECT_EQ(&engine.enabled_indices(), &engine.enabled_indices());
  EXPECT_EQ(engine.enabled_count(), engine.enabled_indices().size());
}

TEST(EngineIncremental, StepAcceptsAliasedEnabledIndices) {
  // Synchronous schedule written the natural way: select everything the
  // engine says is enabled, passing the engine's own cached vector back
  // into step(). The step rewrites that cache, so this exercises the
  // documented aliasing guarantee.
  const dijkstra::KStateRing ring(6, 7);
  Engine<dijkstra::KStateRing> engine(
      ring, {dijkstra::KStateLocal{3}, dijkstra::KStateLocal{0},
             dijkstra::KStateLocal{6}, dijkstra::KStateLocal{2},
             dijkstra::KStateLocal{2}, dijkstra::KStateLocal{5}});
  engine.set_debug_scan_checks(true);
  for (int t = 0; t < 100 && engine.enabled_count() > 0; ++t) {
    engine.step(engine.enabled_indices());
    ASSERT_TRUE(engine.enabled_cache_consistent());
  }
  // The Dijkstra ring must still hold exactly one token once legitimate;
  // either way the cache stayed coherent throughout.
  EXPECT_TRUE(engine.enabled_cache_consistent());
}

TEST(EngineIncremental, CorruptRepairsOnlyNeighborhoodButStaysGlobal) {
  const core::SsrMinRing ring(8, 9);
  Rng rng(31);
  Engine<core::SsrMinRing> engine(ring, core::random_config(ring, rng));
  for (int t = 0; t < 300; ++t) {
    const std::size_t i = rng.below(engine.size());
    auto fault = core::random_config(ring, rng)[i];
    engine.corrupt(i, fault);
    ASSERT_TRUE(cache_matches_full_scan(engine)) << "after corrupt " << t;
  }
}

TEST(EngineIncremental, ResetRebuildsCache) {
  const dijkstra::KStateRing ring(5, 6);
  Engine<dijkstra::KStateRing> engine(
      ring, {dijkstra::KStateLocal{0}, dijkstra::KStateLocal{0},
             dijkstra::KStateLocal{0}, dijkstra::KStateLocal{0},
             dijkstra::KStateLocal{0}});
  Rng rng(41);
  for (int t = 0; t < 50; ++t) {
    std::vector<dijkstra::KStateLocal> c;
    for (std::size_t i = 0; i < engine.size(); ++i) {
      c.push_back(
          dijkstra::KStateLocal{static_cast<std::uint32_t>(rng.below(6))});
    }
    engine.reset(std::move(c));
    ASSERT_TRUE(cache_matches_full_scan(engine));
  }
}

}  // namespace
}  // namespace ssr::stab
