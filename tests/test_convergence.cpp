// Convergence tests (Lemma 6 / Lemma 7 / Theorem 2): from arbitrary
// initial configurations, under every daemon family including unfair
// adversaries, SSRmin reaches a legitimate configuration within the O(n^2)
// budget — and stays legitimate afterwards.
#include <gtest/gtest.h>

#include "core/legitimacy.hpp"
#include "core/ssrmin.hpp"
#include "stabilizing/daemon.hpp"
#include "stabilizing/engine.hpp"

namespace ssr::core {
namespace {

/// Step budget: Lemma 7/8 give 3n^2 + 3n(n-1)/2 * (constant) steps; we use
/// a generous constant factor so the test asserts the *order*, not the
/// exact constants of the paper's accounting.
std::uint64_t budget(std::size_t n) {
  return 60ULL * n * n + 200;
}

struct Case {
  std::size_t n;
  std::string daemon;
  std::uint64_t seed;
};

class SsrConvergence : public ::testing::TestWithParam<Case> {};

TEST_P(SsrConvergence, RandomInitialConfigurationStabilizes) {
  const auto& param = GetParam();
  const auto K = static_cast<std::uint32_t>(param.n + 1);
  const SsrMinRing ring(param.n, K);
  Rng rng(param.seed);
  stab::Engine<SsrMinRing> engine(ring, random_config(ring, rng));
  auto daemon = stab::make_daemon(param.daemon, Rng(param.seed * 31 + 7));
  auto legit = [&ring](const SsrConfig& c) { return is_legitimate(ring, c); };
  const auto result = stab::run_until(engine, *daemon, legit, budget(param.n));
  ASSERT_TRUE(result.reached)
      << "n=" << param.n << " daemon=" << param.daemon
      << " seed=" << param.seed;
  ASSERT_FALSE(result.deadlocked);
  // Closure after convergence: remain legitimate for a full revolution.
  for (std::size_t t = 0; t < 3 * param.n; ++t) {
    ASSERT_TRUE(engine.step_with(*daemon));
    ASSERT_TRUE(is_legitimate(ring, engine.config()));
  }
}

std::vector<Case> sweep() {
  std::vector<Case> cases;
  for (std::size_t n : {3u, 4u, 6u, 10u, 16u}) {
    for (const auto& d :
         {"central-round-robin", "central-random", "distributed-synchronous",
          "distributed-random-subset", "adversary-max-index"}) {
      for (std::uint64_t seed : {11u, 22u, 33u}) cases.push_back({n, d, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SsrConvergence, ::testing::ValuesIn(sweep()),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      std::string name = std::string("n")
                             .append(std::to_string(param_info.param.n))
                             .append("_")
                             .append(param_info.param.daemon)
                             .append("_s")
                             .append(std::to_string(param_info.param.seed));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Convergence, NoDeadlockAlongAnyObservedExecution) {
  // Lemma 4 corollary: step_with never reports an empty enabled set.
  const SsrMinRing ring(6, 7);
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    stab::Engine<SsrMinRing> engine(ring, random_config(ring, rng));
    stab::RandomSubsetDaemon daemon{rng.split(), 0.4};
    for (int t = 0; t < 300; ++t) {
      ASSERT_TRUE(engine.step_with(daemon)) << "deadlock at step " << t;
    }
  }
}

TEST(Convergence, Lemma7FromDijkstraLegitimateXPart) {
  // When the x-part is already a legitimate Dijkstra configuration, SSRmin
  // converges within 3n*n + 4 steps (Lemma 7). Start from such
  // configurations with adversarial rts/tra noise.
  const std::size_t n = 8;
  const SsrMinRing ring(n, 9);
  Rng rng(55);
  for (int trial = 0; trial < 40; ++trial) {
    // Dijkstra-legitimate x-part with the token at a random t.
    const auto t = static_cast<std::size_t>(rng.below(n));
    const auto x = static_cast<std::uint32_t>(rng.below(9));
    SsrConfig config(n);
    for (std::size_t i = 0; i < n; ++i) {
      config[i].x = (i < t) ? (x + 1) % 9 : x;
      config[i].rts = rng.bernoulli(0.5);
      config[i].tra = rng.bernoulli(0.5);
    }
    ASSERT_TRUE(dijkstra_part_legitimate(ring, config));
    stab::Engine<SsrMinRing> engine(ring, config);
    stab::CentralRandomDaemon daemon{rng.split()};
    auto legit = [&ring](const SsrConfig& c) {
      return is_legitimate(ring, c);
    };
    const auto result =
        stab::run_until(engine, daemon, legit, 3 * n * n + 4);
    EXPECT_TRUE(result.reached) << "trial " << trial;
  }
}

TEST(Convergence, DijkstraPartStaysLegitimateOnceReached) {
  // Lemma 8 / Theorem 2 structure: once the embedded Dijkstra ring is
  // legitimate it remains so under any further SSRmin execution.
  const std::size_t n = 7;
  const SsrMinRing ring(n, 8);
  Rng rng(77);
  stab::Engine<SsrMinRing> engine(ring, random_config(ring, rng));
  stab::RandomSubsetDaemon daemon{Rng(5), 0.6};
  bool reached = false;
  for (int t = 0; t < 5000; ++t) {
    if (!reached && dijkstra_part_legitimate(ring, engine.config())) {
      reached = true;
    }
    if (reached) {
      ASSERT_TRUE(dijkstra_part_legitimate(ring, engine.config()))
          << "x-part left the legitimate set at step " << t;
    }
    ASSERT_TRUE(engine.step_with(daemon));
  }
  EXPECT_TRUE(reached);
}

TEST(Convergence, SingleBitCorruptionRecoversQuickly) {
  // Transient-fault scenario: flip one flag in a legitimate configuration;
  // the system returns to legitimacy well within the O(n^2) budget.
  const std::size_t n = 10;
  const SsrMinRing ring(n, 11);
  Rng rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    stab::Engine<SsrMinRing> engine(ring, canonical_legitimate(ring, 2));
    // Corrupt a random process with a random state.
    const auto victim = static_cast<std::size_t>(rng.below(n));
    SsrState bad;
    bad.x = static_cast<std::uint32_t>(rng.below(11));
    bad.rts = rng.bernoulli(0.5);
    bad.tra = rng.bernoulli(0.5);
    engine.corrupt(victim, bad);
    stab::CentralRandomDaemon daemon{rng.split()};
    auto legit = [&ring](const SsrConfig& c) {
      return is_legitimate(ring, c);
    };
    const auto result = stab::run_until(engine, daemon, legit, budget(n));
    EXPECT_TRUE(result.reached) << "trial " << trial;
  }
}

TEST(Convergence, EmpiricalStepsScaleSubQuadratically) {
  // Theorem 2 sanity: mean observed convergence steps divided by n^2 must
  // not grow with n (i.e. the empirical exponent is at most 2).
  std::vector<double> normalized;
  for (std::size_t n : {8u, 16u, 32u}) {
    const auto K = static_cast<std::uint32_t>(n + 1);
    const SsrMinRing ring(n, K);
    Rng rng(900 + n);
    double total = 0;
    const int kTrials = 20;
    for (int trial = 0; trial < kTrials; ++trial) {
      stab::Engine<SsrMinRing> engine(ring, random_config(ring, rng));
      stab::CentralRandomDaemon daemon{rng.split()};
      auto legit = [&ring](const SsrConfig& c) {
        return is_legitimate(ring, c);
      };
      const auto result = stab::run_until(engine, daemon, legit, budget(n));
      ASSERT_TRUE(result.reached);
      total += static_cast<double>(result.steps);
    }
    normalized.push_back(total / kTrials / (static_cast<double>(n) * n));
  }
  // Allow noise, but the n^2-normalized cost must not blow up.
  EXPECT_LT(normalized[2], normalized[0] * 4.0 + 1.0);
}

}  // namespace
}  // namespace ssr::core
