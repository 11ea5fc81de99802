// Lemma 9 / Theorem 4: starting from an ARBITRARY configuration with
// ARBITRARY cache contents, under uniform random message loss, the CST
// execution of SSRmin eventually reaches a legitimate configuration with
// cache coherence — and from then on the token count stays in [1, 2]
// forever.
#include <gtest/gtest.h>

#include "core/legitimacy.hpp"
#include "msgpass/factories.hpp"

namespace ssr::msgpass {
namespace {

NetworkParams lossy_net(std::uint64_t seed, double loss) {
  NetworkParams p;
  p.delay_min = 0.5;
  p.delay_max = 1.5;
  p.loss_probability = loss;
  p.refresh_interval = 6.0;
  p.service_min = 0.3;
  p.service_max = 0.8;
  p.seed = seed;
  return p;
}

core::SsrState random_state(Rng& rng, std::uint32_t K) {
  core::SsrState s;
  s.x = static_cast<std::uint32_t>(rng.below(K));
  s.rts = rng.bernoulli(0.5);
  s.tra = rng.bernoulli(0.5);
  return s;
}

struct Case {
  std::uint64_t seed;
  double loss;
};

class LossRecovery : public ::testing::TestWithParam<Case> {};

TEST_P(LossRecovery, Theorem4ArbitraryStartStabilizesAndStaysCovered) {
  const auto [seed, loss] = GetParam();
  const std::size_t n = 5;
  const std::uint32_t K = 6;
  core::SsrMinRing ring(n, K);
  Rng rng(seed);
  core::SsrConfig init = core::random_config(ring, rng);
  auto sim = make_ssrmin_cst(ring, init, lossy_net(seed, loss));
  sim.randomize_caches([K](Rng& r) { return random_state(r, K); });

  // Phase 1: run until legitimate + coherent (Lemma 9).
  bool stabilized = false;
  auto stop = [&ring](const CstSimulation<core::SsrMinRing>& s) {
    return s.coherent() && core::is_legitimate(ring, s.global_config());
  };
  sim.run_until(stop, 60000.0, &stabilized);
  ASSERT_TRUE(stabilized) << "seed=" << seed << " loss=" << loss
                          << " did not stabilize in simulated budget";

  // Phase 2: from here on, the holder count never leaves [1, 2]
  // (Theorem 4's "remains so forever", observed over a long window).
  const CoverageStats after = sim.run(3000.0);
  EXPECT_EQ(after.min_holders, 1u);
  EXPECT_LE(after.max_holders, 2u);
  EXPECT_EQ(after.zero_intervals, 0u);
  EXPECT_DOUBLE_EQ(after.zero_token_time, 0.0);
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (std::uint64_t seed : {3u, 17u, 29u, 41u}) {
    for (double loss : {0.0, 0.1, 0.3}) out.push_back({seed, loss});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LossRecovery, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return std::string("s")
          .append(std::to_string(param_info.param.seed))
          .append("_loss")
          .append(
              std::to_string(static_cast<int>(param_info.param.loss * 100)));
    });

TEST(LossRecovery, HigherLossDelaysButDoesNotPreventStabilization) {
  const std::size_t n = 4;
  const std::uint32_t K = 5;
  core::SsrMinRing ring(n, K);
  double previous_time = -1.0;
  (void)previous_time;
  for (double loss : {0.0, 0.4}) {
    Rng rng(8);
    auto sim = make_ssrmin_cst(ring, core::random_config(ring, rng),
                               lossy_net(123, loss));
    sim.randomize_caches([K](Rng& r) { return random_state(r, K); });
    bool stabilized = false;
    auto stop = [&ring](const CstSimulation<core::SsrMinRing>& s) {
      return s.coherent() && core::is_legitimate(ring, s.global_config());
    };
    sim.run_until(stop, 120000.0, &stabilized);
    EXPECT_TRUE(stabilized) << "loss " << loss;
  }
}

TEST(LossRecovery, BadCacheIncoherenceAloneIsRepaired) {
  // Legitimate global configuration but garbage caches ("bad
  // incoherence"): the refresh traffic alone must restore coherence.
  const std::size_t n = 5;
  const std::uint32_t K = 6;
  core::SsrMinRing ring(n, K);
  auto sim = make_ssrmin_cst(ring, core::canonical_legitimate(ring, 1),
                             lossy_net(77, 0.1));
  sim.randomize_caches([K](Rng& r) { return random_state(r, K); });
  bool stabilized = false;
  auto stop = [&ring](const CstSimulation<core::SsrMinRing>& s) {
    return s.coherent() && core::is_legitimate(ring, s.global_config());
  };
  sim.run_until(stop, 60000.0, &stabilized);
  EXPECT_TRUE(stabilized);
}

}  // namespace
}  // namespace ssr::msgpass
