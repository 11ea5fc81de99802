// Tests for the self-stabilizing MIS (local mutual inclusion on general
// topologies): rule semantics, exhaustive verification on several
// topologies via the graph model checker, randomized convergence, and the
// MIS => local-mutual-inclusion connection.
#include "graph/mis.hpp"

#include <gtest/gtest.h>

#include "graph/check.hpp"
#include "graph/cst.hpp"
#include "graph/protocol.hpp"
#include "stabilizing/daemon.hpp"

namespace ssr::graph {
namespace {

MisConfig make_config(std::initializer_list<MisStatus> statuses) {
  MisConfig c;
  for (auto s : statuses) c.push_back(MisState{s});
  return c;
}

constexpr auto kOut = MisStatus::kOut;
constexpr auto kWait = MisStatus::kWait;
constexpr auto kIn = MisStatus::kIn;

TEST(MisRules, VolunteerWhenUncovered) {
  const Topology g = Topology::path(3);
  TurauMis mis(g);
  const MisConfig c = make_config({kOut, kOut, kOut});
  GraphEngine<TurauMis> engine(mis, c);
  // All three uncovered OUTs volunteer.
  EXPECT_EQ(engine.enabled_rule(0), TurauMis::kRuleVolunteer);
  EXPECT_EQ(engine.enabled_rule(1), TurauMis::kRuleVolunteer);
  EXPECT_EQ(engine.enabled_rule(2), TurauMis::kRuleVolunteer);
}

TEST(MisRules, CommitOnlyForSmallestWaitingNeighborhood) {
  const Topology g = Topology::path(3);
  TurauMis mis(g);
  GraphEngine<TurauMis> engine(mis, make_config({kWait, kWait, kWait}));
  EXPECT_EQ(engine.enabled_rule(0), TurauMis::kRuleCommit);
  EXPECT_EQ(engine.enabled_rule(1), kDisabled);  // 0 is a smaller WAIT
  EXPECT_EQ(engine.enabled_rule(2), kDisabled);  // 1 is a smaller WAIT
}

TEST(MisRules, RetreatBeatsCommit) {
  const Topology g = Topology::path(3);
  TurauMis mis(g);
  GraphEngine<TurauMis> engine(mis, make_config({kWait, kIn, kOut}));
  EXPECT_EQ(engine.enabled_rule(0), TurauMis::kRuleRetreat);
}

TEST(MisRules, LargerOfAdjacentInsYields) {
  const Topology g = Topology::path(3);
  TurauMis mis(g);
  GraphEngine<TurauMis> engine(mis, make_config({kIn, kIn, kOut}));
  EXPECT_EQ(engine.enabled_rule(0), kDisabled);  // smaller id keeps it
  EXPECT_EQ(engine.enabled_rule(1), TurauMis::kRuleYield);
}

TEST(MisPredicates, StableMisRecognized) {
  const Topology g = Topology::path(4);
  EXPECT_TRUE(is_stable_mis(g, make_config({kIn, kOut, kIn, kOut})));
  EXPECT_TRUE(is_stable_mis(g, make_config({kOut, kIn, kOut, kIn})));
  // Not dominating: node 3 uncovered.
  EXPECT_FALSE(is_stable_mis(g, make_config({kIn, kOut, kOut, kOut})));
  // Not independent.
  EXPECT_FALSE(is_stable_mis(g, make_config({kIn, kIn, kOut, kIn})));
  // Residual WAIT.
  EXPECT_FALSE(is_stable_mis(g, make_config({kIn, kOut, kWait, kIn})));
}

TEST(MisPredicates, LocalInclusionFromMis) {
  const Topology g = Topology::star(5);
  // Hub IN dominates everyone.
  std::vector<bool> active{true, false, false, false, false};
  EXPECT_TRUE(local_inclusion_holds(g, active));
  // Leaves IN dominate the hub and themselves.
  active = {false, true, true, true, true};
  EXPECT_TRUE(local_inclusion_holds(g, active));
  active = {false, true, false, false, false};
  EXPECT_FALSE(local_inclusion_holds(g, active));  // leaf 2 uncovered
}

struct TopoCase {
  std::string name;
  Topology topology;
};

std::vector<TopoCase> exhaustive_topologies() {
  Rng rng(5);
  std::vector<TopoCase> cases;
  cases.push_back({"ring5", Topology::ring(5)});
  cases.push_back({"path6", Topology::path(6)});
  cases.push_back({"star6", Topology::star(6)});
  cases.push_back({"complete5", Topology::complete(5)});
  cases.push_back({"grid2x3", Topology::grid(2, 3)});
  cases.push_back({"random7", Topology::random_connected(7, 0.3, rng)});
  return cases;
}

class MisExhaustive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MisExhaustive, FixpointsAreExactlyStableMisAndAlwaysReached) {
  const TopoCase tc = exhaustive_topologies()[GetParam()];
  auto checker = make_mis_checker(tc.topology);
  const GraphCheckReport report = checker.run();
  EXPECT_TRUE(report.fixpoints_sound) << tc.name << ": " << report.summary();
  EXPECT_TRUE(report.fixpoints_complete) << tc.name;
  EXPECT_TRUE(report.convergence_holds) << tc.name;
  EXPECT_GT(report.silent_configs, 0u);
  EXPECT_EQ(report.silent_configs, report.legitimate_configs);
  EXPECT_GT(report.worst_case_steps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Topologies, MisExhaustive,
                         ::testing::Range<std::size_t>(0, 6),
                         [](const ::testing::TestParamInfo<std::size_t>& param_info) {
                           return exhaustive_topologies()[param_info.param].name;
                         });

TEST(MisConvergence, RandomizedLargerGraphs) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const Topology g = Topology::random_connected(24, 0.15, rng);
    TurauMis mis(g);
    GraphEngine<TurauMis> engine(mis, random_config(g, rng));
    stab::RandomSubsetDaemon daemon{rng.split(), 0.5};
    const auto steps = run_to_silence(engine, daemon, 100000);
    ASSERT_TRUE(steps.has_value()) << "trial " << trial;
    EXPECT_TRUE(is_stable_mis(g, engine.config()));
    // The MIS is a dominating set: local mutual inclusion holds.
    std::vector<bool> active(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      active[i] = engine.config()[i].status == MisStatus::kIn;
    }
    EXPECT_TRUE(local_inclusion_holds(g, active));
  }
}

TEST(MisConvergence, SilentAfterStabilization) {
  Rng rng(13);
  const Topology g = Topology::grid(3, 4);
  TurauMis mis(g);
  GraphEngine<TurauMis> engine(mis, random_config(g, rng));
  stab::SynchronousDaemon daemon;
  const auto steps = run_to_silence(engine, daemon, 100000);
  ASSERT_TRUE(steps.has_value());
  // Once silent, stays silent (no enabled node).
  EXPECT_TRUE(engine.enabled_indices().empty());
  EXPECT_FALSE(engine.step_with(daemon));
}

TEST(MisConvergence, SingleFaultRecovers) {
  Rng rng(17);
  const Topology g = Topology::ring(9);
  TurauMis mis(g);
  GraphEngine<TurauMis> engine(mis, random_config(g, rng));
  stab::CentralRandomDaemon daemon{rng.split()};
  ASSERT_TRUE(run_to_silence(engine, daemon, 100000).has_value());
  for (int fault = 0; fault < 20; ++fault) {
    const auto victim = static_cast<std::size_t>(rng.below(g.size()));
    engine.corrupt(victim, MisState{static_cast<MisStatus>(rng.below(3))});
    const auto steps = run_to_silence(engine, daemon, 100000);
    ASSERT_TRUE(steps.has_value());
    EXPECT_TRUE(is_stable_mis(g, engine.config()));
  }
}

TEST(MisRounds, ConvergesUnderLossyWsnExecution) {
  // Reference [17]'s setting: synchronous rounds, lossy broadcast,
  // randomized firing. The MIS must reach a stable configuration with
  // coherent caches and then stay silent.
  Rng rng(23);
  for (auto [loss, exec_p] : {std::pair<double, double>{0.0, 1.0},
                              std::pair<double, double>{0.2, 0.8},
                              std::pair<double, double>{0.4, 0.5}}) {
    const Topology g = Topology::random_connected(12, 0.2, rng);
    TurauMis mis(g);
    msgpass::RoundParams params;
    params.loss = loss;
    params.exec_probability = exec_p;
    params.seed = rng();
    GraphRoundSimulation<TurauMis> sim(mis, random_config(g, rng), params);
    bool settled = false;
    for (std::uint64_t round = 0; round < 50000 && !settled; ++round) {
      sim.step();
      settled = sim.coherent() && is_stable_mis(g, sim.global_config());
    }
    ASSERT_TRUE(settled) << "loss=" << loss << " exec_p=" << exec_p;
    // Silent thereafter: the configuration never changes again.
    const MisConfig frozen = sim.global_config();
    for (int r = 0; r < 200; ++r) {
      sim.step();
      ASSERT_EQ(sim.global_config(), frozen) << "round +" << r;
    }
  }
}

TEST(MisRounds, RandomizedCachesRepaired) {
  Rng rng(29);
  const Topology g = Topology::grid(3, 3);
  TurauMis mis(g);
  msgpass::RoundParams params;
  params.loss = 0.3;
  params.seed = 7;
  GraphRoundSimulation<TurauMis> sim(mis, random_config(g, rng), params);
  sim.randomize_caches([&](Rng& r) {
    return MisState{static_cast<MisStatus>(r.below(3))};
  });
  bool settled = false;
  for (std::uint64_t round = 0; round < 50000 && !settled; ++round) {
    sim.step();
    settled = sim.coherent() && is_stable_mis(g, sim.global_config());
  }
  EXPECT_TRUE(settled);
}

GraphCstSimulation<TurauMis> make_mis_cst(const Topology& topo,
                                          MisConfig initial,
                                          msgpass::NetworkParams net) {
  TurauMis mis(topo);
  auto active = [](std::size_t, const MisState& self,
                   std::span<const MisState>) {
    return self.status == MisStatus::kIn;
  };
  return GraphCstSimulation<TurauMis>(std::move(mis), std::move(initial),
                                      active, net);
}

TEST(MisCst, EventDrivenMessagePassingStabilizes) {
  Rng rng(31);
  for (double loss : {0.0, 0.2}) {
    const Topology g = Topology::random_connected(10, 0.25, rng);
    msgpass::NetworkParams net;
    net.loss_probability = loss;
    net.seed = rng();
    auto sim = make_mis_cst(g, random_config(g, rng), net);
    bool settled = false;
    auto stop = [&g](const GraphCstSimulation<TurauMis>& s) {
      return s.coherent() && is_stable_mis(g, s.global_config());
    };
    sim.run_until(stop, 50000.0, &settled);
    ASSERT_TRUE(settled) << "loss=" << loss;
    // Silent + coherent: nothing ever changes again; local mutual
    // inclusion holds at every subsequent instant.
    const MisConfig frozen = sim.global_config();
    const auto stats = sim.run(500.0);
    EXPECT_EQ(sim.global_config(), frozen);
    EXPECT_EQ(stats.rule_executions, 0u);
    std::vector<bool> active(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      active[i] = frozen[i].status == MisStatus::kIn;
    }
    EXPECT_TRUE(local_inclusion_holds(g, active));
  }
}

TEST(MisCst, CorruptedCachesRepaired) {
  Rng rng(37);
  const Topology g = Topology::grid(2, 4);
  msgpass::NetworkParams net;
  net.loss_probability = 0.1;
  net.seed = 5;
  auto sim = make_mis_cst(g, random_config(g, rng), net);
  sim.randomize_caches([](Rng& r) {
    return MisState{static_cast<MisStatus>(r.below(3))};
  });
  bool settled = false;
  auto stop = [&g](const GraphCstSimulation<TurauMis>& s) {
    return s.coherent() && is_stable_mis(g, s.global_config());
  };
  sim.run_until(stop, 50000.0, &settled);
  EXPECT_TRUE(settled);
}

TEST(MisStatusNames, Distinct) {
  EXPECT_EQ(to_string(kOut), "OUT");
  EXPECT_EQ(to_string(kWait), "WAIT");
  EXPECT_EQ(to_string(kIn), "IN");
}

TEST(MisApply, RejectsWrongRule) {
  const Topology g = Topology::path(3);
  TurauMis mis(g);
  const MisConfig c = make_config({kOut, kOut, kOut});
  std::vector<MisState> neigh{c[1]};
  EXPECT_THROW(mis.apply(0, TurauMis::kRuleCommit, c[0], neigh),
               std::invalid_argument);
}

}  // namespace
}  // namespace ssr::graph
