// Tests for the general-graph execution engine itself (the MIS tests
// exercise it indirectly; these pin the engine API semantics).
#include "graph/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "elect/leader.hpp"
#include "graph/cst.hpp"
#include "graph/mis.hpp"
#include "stabilizing/daemon.hpp"

namespace ssr::graph {
namespace {

constexpr auto kOut = MisStatus::kOut;
constexpr auto kWait = MisStatus::kWait;
constexpr auto kIn = MisStatus::kIn;

MisConfig statuses(std::initializer_list<MisStatus> list) {
  MisConfig c;
  for (auto s : list) c.push_back(MisState{s});
  return c;
}

TEST(GraphEngine, RejectsSizeMismatch) {
  TurauMis mis(Topology::path(3));
  EXPECT_THROW(GraphEngine<TurauMis>(mis, MisConfig(2)),
               std::invalid_argument);
}

TEST(GraphEngine, CountersTrackStepsAndMoves) {
  TurauMis mis(Topology::path(3));
  GraphEngine<TurauMis> engine(mis, statuses({kOut, kOut, kOut}));
  stab::SynchronousDaemon daemon;
  ASSERT_TRUE(engine.step_with(daemon));  // all three volunteer
  EXPECT_EQ(engine.steps(), 1u);
  EXPECT_EQ(engine.moves(), 3u);
}

TEST(GraphEngine, CompositeAtomicitySnapshotSemantics) {
  // Nodes 0 and 2 of a path both commit simultaneously (they are not
  // adjacent); node 1 must still see the OLD (WAIT) states this step.
  TurauMis mis(Topology::path(3));
  GraphEngine<TurauMis> engine(mis, statuses({kWait, kOut, kWait}));
  // Node 1 is OUT with no IN neighbor: enabled (volunteer). 0 and 2 are
  // WAIT with no IN neighbor and no smaller WAIT neighbor (1 is OUT):
  // both commit.
  const auto enabled = engine.enabled_indices();
  EXPECT_EQ(enabled, (std::vector<std::size_t>{0, 1, 2}));
  const std::vector<std::size_t> all{0, 1, 2};
  engine.step(all);
  EXPECT_EQ(engine.config()[0].status, kIn);
  EXPECT_EQ(engine.config()[2].status, kIn);
  // Node 1 volunteered against the pre-step snapshot (no IN neighbor yet).
  EXPECT_EQ(engine.config()[1].status, kWait);
  // Next step it retreats: both neighbors are IN now.
  EXPECT_EQ(engine.enabled_rule(1), TurauMis::kRuleRetreat);
}

TEST(GraphEngine, StepRejectsDisabledNode) {
  TurauMis mis(Topology::path(3));
  GraphEngine<TurauMis> engine(mis, statuses({kIn, kOut, kOut}));
  // Node 1 is OUT with an IN neighbor: disabled.
  const std::vector<std::size_t> sel{1};
  EXPECT_THROW(engine.step(sel), std::invalid_argument);
}

TEST(GraphEngine, ResetAndCorrupt) {
  TurauMis mis(Topology::path(4));
  GraphEngine<TurauMis> engine(mis, statuses({kIn, kOut, kIn, kOut}));
  engine.corrupt(1, MisState{kIn});
  EXPECT_EQ(engine.config()[1].status, kIn);
  EXPECT_THROW(engine.corrupt(9, MisState{}), std::invalid_argument);
  engine.reset(statuses({kOut, kOut, kOut, kOut}));
  EXPECT_EQ(engine.config()[0].status, kOut);
  EXPECT_THROW(engine.reset(MisConfig(2)), std::invalid_argument);
}

TEST(GraphEngine, RunToSilenceReportsBudgetExhaustion) {
  // A zero budget on a non-silent start reports exhaustion and takes no
  // step at all.
  TurauMis mis(Topology::path(3));
  GraphEngine<TurauMis> engine(mis, statuses({kOut, kOut, kOut}));
  stab::SynchronousDaemon daemon;
  EXPECT_EQ(run_to_silence(engine, daemon, 0), std::nullopt);
  EXPECT_EQ(engine.steps(), 0u);
}

TEST(GraphEngine, RunToSilenceHonoursTheBudgetExactly) {
  // From all-OUT on path(3) the synchronous daemon needs exactly 4 steps
  // to reach silence. A budget of 3 takes 3 steps and fails; a budget of 4
  // succeeds on its last step.
  TurauMis mis(Topology::path(3));
  stab::SynchronousDaemon daemon;
  GraphEngine<TurauMis> short_engine(mis, statuses({kOut, kOut, kOut}));
  EXPECT_EQ(run_to_silence(short_engine, daemon, 3), std::nullopt);
  EXPECT_EQ(short_engine.steps(), 3u);
  GraphEngine<TurauMis> engine(mis, statuses({kOut, kOut, kOut}));
  EXPECT_EQ(run_to_silence(engine, daemon, 4), std::optional<std::uint64_t>{4});
  EXPECT_EQ(engine.steps(), 4u);
  EXPECT_TRUE(engine.enabled_indices().empty());
}

TEST(GraphEngine, AcceptsDegreesBeyondTheCstLinkField) {
  // The 16-bit event link field is the CST simulator's limit, not the
  // engine's: a star whose hub has 70,000 neighbours runs, and only the
  // CST constructor rejects it.
  const std::size_t n = 70001;
  TurauMis mis(Topology::star(n));
  GraphEngine<TurauMis> engine(mis, MisConfig(n));
  EXPECT_EQ(engine.enabled_count(), n);  // every OUT node volunteers
  stab::SynchronousDaemon daemon;
  ASSERT_TRUE(engine.step_with(daemon));
  EXPECT_TRUE(engine.enabled_cache_consistent());
  EXPECT_THROW(GraphCstSimulation<TurauMis>(mis, MisConfig(n), {},
                                            msgpass::NetworkParams{}),
               std::invalid_argument);
}

// --- absolute trajectory goldens -------------------------------------------
//
// Step counts and the FNV-1a hash of the final configuration, so a change
// to how the engine derives the enabled set or reads neighbour states
// cannot shift a daemon's choices unnoticed.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(GraphEngineGolden, MisRandomSubsetWithFaults) {
  Rng rng(71);
  const Topology g = Topology::random_connected(40, 0.1, rng);
  TurauMis mis(g);
  GraphEngine<TurauMis> engine(mis, random_config(g, rng));
  stab::RandomSubsetDaemon daemon{rng.split(), 0.5};
  std::vector<std::uint64_t> steps;
  const auto first = run_to_silence(engine, daemon, 100000);
  ASSERT_TRUE(first.has_value());
  steps.push_back(*first);
  for (int fault = 0; fault < 5; ++fault) {
    engine.corrupt(rng.below(g.size()),
                   MisState{static_cast<MisStatus>(rng.below(3))});
    const auto again = run_to_silence(engine, daemon, 100000);
    ASSERT_TRUE(again.has_value());
    steps.push_back(*again);
  }
  EXPECT_EQ(steps, (std::vector<std::uint64_t>{7, 2, 1, 1, 0, 1}));
  EXPECT_EQ(engine.moves(), 26u);
  std::string config;
  for (const MisState& s : engine.config()) {
    config += std::to_string(static_cast<int>(s.status));
  }
  EXPECT_EQ(fnv1a(config), 0xf7a34889b43dbc55ull);
  EXPECT_TRUE(is_stable_mis(g, engine.config()));
}

TEST(GraphEngineGolden, LeaderSynchronous) {
  Rng rng(73);
  std::vector<std::uint32_t> ids(16);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::uint32_t>(i) * 5 + 2;
  }
  rng.shuffle(ids);
  const elect::MinIdLeader ring(ids);
  GraphEngine<elect::MinIdLeader> engine(ring, elect::random_config(ring, rng));
  stab::SynchronousDaemon daemon;
  const auto steps = run_to_silence(engine, daemon, 100000);
  ASSERT_TRUE(steps.has_value());
  EXPECT_EQ(*steps, 16u);
  EXPECT_EQ(engine.moves(), 69u);
  std::string config;
  for (const elect::LeaderState& s : engine.config()) {
    config += std::to_string(s.lid) + ":" + std::to_string(s.dist) + ",";
  }
  EXPECT_EQ(fnv1a(config), 0xa60233f6854b0cb7ull);
  EXPECT_TRUE(elect::is_legitimate(ring, engine.config()));
}

}  // namespace
}  // namespace ssr::graph
