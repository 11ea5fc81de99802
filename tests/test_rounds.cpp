// Tests for the synchronous-round execution model ([17]-style transformed
// execution with randomized rule firing and lossy broadcast).
#include "msgpass/rounds.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/legitimacy.hpp"
#include "msgpass/factories.hpp"

namespace ssr::msgpass {
namespace {

TEST(RoundParams, Validation) {
  RoundParams p;
  EXPECT_NO_THROW(p.validate());
  p.loss = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RoundParams{};
  p.exec_probability = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Rounds, LosslessFullExecutionMatchesSynchronousDaemon) {
  // With loss = 0 and exec probability 1, each round is exactly one
  // synchronous-daemon step of the state-reading model: from the canonical
  // legitimate start the configuration after 3n rounds has every x
  // incremented.
  const std::size_t n = 5;
  core::SsrMinRing ring(n, 6);
  RoundParams p;
  auto sim = make_ssrmin_rounds(ring, core::canonical_legitimate(ring, 0), p);
  for (std::size_t t = 0; t < 3 * n; ++t) {
    EXPECT_EQ(sim.step(), 1u);  // one enabled process in Lambda
  }
  EXPECT_EQ(sim.global_config(), core::canonical_legitimate(ring, 1));
  // Caches lag the last execution by one broadcast phase; one more
  // broadcast-only observation point is after the next round's phase 1 —
  // coherence is an intra-round notion here, checked in the loss test.
}

TEST(Rounds, HolderCountStaysInBandFromLegitStart) {
  const std::size_t n = 6;
  core::SsrMinRing ring(n, 7);
  RoundParams p;
  p.exec_probability = 0.7;
  p.seed = 5;
  auto sim = make_ssrmin_rounds(ring, core::canonical_legitimate(ring, 0), p);
  for (int t = 0; t < 500; ++t) {
    const std::size_t holders = sim.holder_count();
    ASSERT_GE(holders, 1u) << "round " << t;
    ASSERT_LE(holders, 2u) << "round " << t;
    sim.step();
  }
}

class RoundsConvergence
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RoundsConvergence, ArbitraryStartStabilizes) {
  const auto [loss, exec_p] = GetParam();
  const std::size_t n = 5;
  const std::uint32_t K = 6;
  core::SsrMinRing ring(n, K);
  RoundParams p;
  p.loss = loss;
  p.exec_probability = exec_p;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    p.seed = seed;
    Rng rng(seed + 100);
    auto sim = make_ssrmin_rounds(ring, core::random_config(ring, rng), p);
    sim.randomize_caches([K](Rng& r) {
      core::SsrState s;
      s.x = static_cast<std::uint32_t>(r.below(K));
      s.rts = r.bernoulli(0.5);
      s.tra = r.bernoulli(0.5);
      return s;
    });
    auto legit = [&ring](const core::SsrConfig& c) {
      return core::is_legitimate(ring, c);
    };
    const auto rounds = sim.run_until(legit, 100000);
    EXPECT_TRUE(rounds.has_value())
        << "loss=" << loss << " exec_p=" << exec_p << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoundsConvergence,
    ::testing::Values(std::make_tuple(0.0, 1.0), std::make_tuple(0.0, 0.5),
                      std::make_tuple(0.2, 1.0), std::make_tuple(0.2, 0.5),
                      std::make_tuple(0.4, 0.8)));

TEST(Rounds, DijkstraConvergesToo) {
  const std::size_t n = 6;
  dijkstra::KStateRing ring(n, 7);
  RoundParams p;
  p.loss = 0.1;
  p.exec_probability = 0.8;
  p.seed = 9;
  Rng rng(17);
  auto sim = make_kstate_rounds(ring, dijkstra::random_config(ring, rng), p);
  auto legit = [&ring](const dijkstra::KStateConfig& c) {
    return dijkstra::is_legitimate(ring, c);
  };
  EXPECT_TRUE(sim.run_until(legit, 100000).has_value());
}

TEST(Rounds, RunUntilAlreadySatisfiedIsZeroRounds) {
  core::SsrMinRing ring(4, 5);
  RoundParams p;
  auto sim = make_ssrmin_rounds(ring, core::canonical_legitimate(ring, 2), p);
  auto legit = [&ring](const core::SsrConfig& c) {
    return core::is_legitimate(ring, c);
  };
  const auto rounds = sim.run_until(legit, 10);
  ASSERT_TRUE(rounds.has_value());
  EXPECT_EQ(*rounds, 0u);
}

TEST(Rounds, LossyBroadcastBreaksCoherenceTemporarily) {
  core::SsrMinRing ring(5, 6);
  RoundParams p;
  p.loss = 0.5;
  p.seed = 3;
  auto sim = make_ssrmin_rounds(ring, core::canonical_legitimate(ring, 0), p);
  int incoherent = 0;
  for (int t = 0; t < 200; ++t) {
    sim.step();
    if (!sim.coherent()) ++incoherent;
  }
  EXPECT_GT(incoherent, 0);
}

TEST(Rounds, CacheAccessorsTrackNeighbors) {
  core::SsrMinRing ring(4, 5);
  core::SsrConfig init(4);
  for (std::size_t i = 0; i < 4; ++i) init[i].x = static_cast<std::uint32_t>(i);
  RoundParams p;
  auto sim = make_ssrmin_rounds(ring, init, p);
  EXPECT_EQ(sim.cache_pred(0).x, 3u);
  EXPECT_EQ(sim.cache_succ(0).x, 1u);
  EXPECT_EQ(sim.cache_pred(2).x, 1u);
  EXPECT_TRUE(sim.coherent());
  sim.randomize_caches([](Rng& r) {
    core::SsrState s;
    s.x = static_cast<std::uint32_t>(r.below(5));
    s.rts = r.bernoulli(0.5);
    s.tra = r.bernoulli(0.5);
    return s;
  });
  // One lossless round's broadcast phase restores coherence of the caches
  // used in phase 2... after the round completes, caches reflect the
  // pre-round states, so coherence holds iff nothing fired. Just check
  // the accessors are live.
  sim.step();
  EXPECT_EQ(sim.rounds(), 1u);
}

TEST(Rounds, SizeMismatchRejected) {
  core::SsrMinRing ring(5, 6);
  RoundParams p;
  EXPECT_THROW(make_ssrmin_rounds(ring, core::SsrConfig(3), p),
               std::invalid_argument);
}

// --- absolute trajectory goldens -------------------------------------------
//
// Lossy rounds with randomized firing from arbitrary states and arbitrary
// caches: the rounds to legitimacy and the FNV-1a hash of the final
// configuration pin every loss and firing draw, so a refactor of the round
// simulator cannot reorder its random stream unnoticed.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string encode(const core::SsrConfig& c) {
  std::string out;
  for (const core::SsrState& s : c) {
    out += std::to_string(s.x) + (s.rts ? "r" : "-") + (s.tra ? "t" : "-");
  }
  return out;
}

std::string encode(const dijkstra::KStateConfig& c) {
  std::string out;
  for (const dijkstra::KStateLocal& s : c) out += std::to_string(s.x) + ",";
  return out;
}

RoundParams golden_params(std::uint64_t seed) {
  RoundParams p;
  p.loss = 0.2;
  p.exec_probability = 0.8;
  p.seed = seed;
  return p;
}

TEST(RoundsGolden, SsrMinLossyRandomizedCaches) {
  const core::SsrMinRing ring(9, 10);
  Rng rng(61);
  auto sim = make_ssrmin_rounds(ring, core::random_config(ring, rng),
                                golden_params(62));
  sim.randomize_caches([](Rng& r) {
    core::SsrState s;
    s.x = static_cast<std::uint32_t>(r.below(10));
    s.rts = r.bernoulli(0.5);
    s.tra = r.bernoulli(0.5);
    return s;
  });
  const auto rounds = sim.run_until(
      [&ring](const core::SsrConfig& c) {
        return core::is_legitimate(ring, c);
      },
      100000);
  ASSERT_TRUE(rounds.has_value());
  EXPECT_EQ(*rounds, 32u);
  EXPECT_EQ(fnv1a(encode(sim.global_config())), 0xd1123f7c5a4bce65ull);
  // Closure under further lossy rounds, pinned too.
  for (int r = 0; r < 100; ++r) sim.step();
  EXPECT_EQ(sim.holder_count(), 2u);
  EXPECT_EQ(fnv1a(encode(sim.global_config())), 0xb6c294a1eca008bcull);
}

TEST(RoundsGolden, KStateLossyRandomizedCaches) {
  const dijkstra::KStateRing ring(9, 10);
  Rng rng(63);
  auto sim = make_kstate_rounds(ring, dijkstra::random_config(ring, rng),
                                golden_params(64));
  sim.randomize_caches([](Rng& r) {
    return dijkstra::KStateLocal{static_cast<std::uint32_t>(r.below(10))};
  });
  const auto rounds = sim.run_until(
      [&ring](const dijkstra::KStateConfig& c) {
        return dijkstra::is_legitimate(ring, c);
      },
      100000);
  ASSERT_TRUE(rounds.has_value());
  EXPECT_EQ(*rounds, 10u);
  EXPECT_EQ(fnv1a(encode(sim.global_config())), 0x6ad6d80093ec1a7full);
  for (int r = 0; r < 100; ++r) sim.step();
  EXPECT_EQ(sim.holder_count(), 0u);
  EXPECT_EQ(fnv1a(encode(sim.global_config())), 0x80094f0778eebdc5ull);
}

}  // namespace
}  // namespace ssr::msgpass
