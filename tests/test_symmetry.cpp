// The counter-shift quotient. sigma_c adds c (mod K) to every process's
// counter and keeps the flags. The checker may visit one configuration
// per Z_K orbit only because every daemon step, the legitimacy predicate
// and the privileged count commute with sigma. The first tests check that
// exhaustively for the library's protocols on small (n, K). The rest
// build each checker a second time with a shift-free codec (the orbit-size
// 1 case of the same loops) and require the two reports, and every
// full-space height, to agree across thread counts, Phase B storage modes
// and Phase A engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "verify/adversary.hpp"
#include "verify/checkers.hpp"

namespace {

using namespace ssr;

core::SsrState bump(core::SsrState s, std::uint32_t K) {
  s.x = (s.x + 1) % K;
  return s;
}

dijkstra::KStateLocal bump(dijkstra::KStateLocal s, std::uint32_t K) {
  s.x = (s.x + 1) % K;
  return s;
}

/// sigma_1 applied to a whole configuration, state by state.
template <typename Config>
Config shifted(Config config, std::uint32_t K) {
  for (auto& s : config) s = bump(s, K);
  return config;
}

/// For every configuration gamma: succ(sigma_1 gamma) = sigma_1 succ(gamma)
/// as sets, legitimacy and the privileged count are shift-invariant, and
/// the codec's representative is the lowest code of gamma's orbit.
template <typename Checker>
void expect_commutes(const Checker& checker, std::uint32_t K,
                     const char* what) {
  const auto& codec = checker.codec();
  ASSERT_EQ(codec.orbit_size(), K) << what;
  ASSERT_EQ(codec.representatives() * K, codec.total()) << what;
  const std::size_t n = codec.ring_size();
  std::uint64_t mismatches = 0;
  for (std::uint64_t c = 0; c < codec.total(); ++c) {
    const auto config = codec.decode(c);
    const auto moved = shifted(config, K);
    std::vector<std::uint64_t> expected;
    for (std::uint64_t sc : checker.successor_codes(config)) {
      expected.push_back(codec.encode(shifted(codec.decode(sc), K)));
    }
    std::sort(expected.begin(), expected.end());
    const bool ok =
        checker.successor_codes(moved) == expected &&
        checker.legitimate(moved) == checker.legitimate(config) &&
        checker.privileged(moved) == checker.privileged(config);
    std::uint64_t lowest = c;
    auto member = config;
    for (std::uint32_t k = 1; k < K; ++k) {
      member = shifted(member, K);
      lowest = std::min(lowest, codec.encode(member));
    }
    const std::uint64_t rep =
        codec.shift().canonical(c, n, codec.radix());
    if (!ok || rep != lowest || rep >= codec.representatives()) {
      if (mismatches++ == 0) {
        ADD_FAILURE() << what << ": first mismatch at configuration " << c;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

TEST(Symmetry, SsrMinStepsCommuteWithTheCounterShift) {
  expect_commutes(verify::make_ssrmin_checker(3, 4), 4, "ssrmin(3,4)");
  expect_commutes(verify::make_ssrmin_checker(4, 5), 5, "ssrmin(4,5)");
}

TEST(Symmetry, DijkstraStepsCommuteWithTheCounterShift) {
  expect_commutes(verify::make_kstate_checker(4, 4), 4, "dijkstra(4,4)");
  expect_commutes(verify::make_kstate_checker(5, 6), 6, "dijkstra(5,6)");
}

TEST(Symmetry, CodecRejectsAShiftThatDoesNotTileTheDigit) {
  auto encode = [](const dijkstra::KStateLocal& s) { return s.x; };
  auto decode = [](std::uint32_t d) { return dijkstra::KStateLocal{d}; };
  using Codec = verify::ConfigCodec<dijkstra::KStateLocal>;
  EXPECT_THROW(Codec(3, 6, encode, decode, verify::CounterShift{4, 1}),
               std::invalid_argument);
  EXPECT_EQ(Codec(3, 6, encode, decode, verify::CounterShift{3, 2})
                .representatives(),
            72u);
  EXPECT_EQ(Codec(3, 6, encode, decode).orbit_size(), 1u);
}

// --- quotient on vs off ----------------------------------------------------

/// The same protocol, predicates and Phase A engine as @p base, built with
/// a shift-free codec: the quotient switched off. The sliced Phase A takes
/// configuration codes, not orbits, so @p base's slices serve both.
template <typename P>
verify::ModelChecker<P> shift_free(const verify::ModelChecker<P>& base) {
  using State = typename P::State;
  const auto codec = base.codec();
  verify::ConfigCodec<State> plain(
      codec.ring_size(), static_cast<std::uint32_t>(codec.radix()),
      [codec](const State& s) { return codec.encode_digit(s); },
      [codec](std::uint32_t d) { return codec.decode_digit(d); });
  const auto keep = std::make_shared<const verify::ModelChecker<P>>(base);
  verify::ModelChecker<P> out(
      base.protocol(), std::move(plain),
      [keep](const auto& c) { return keep->legitimate(c); },
      [keep](const auto& c) { return keep->privileged(c); });
  if (base.phase_a_slices()) out.set_phase_a_slices(base.phase_a_slices());
  return out;
}

void expect_same(const verify::CheckReport& off, const verify::CheckReport& on,
                 const std::string& what) {
  EXPECT_EQ(off.total_configs, on.total_configs) << what;
  EXPECT_EQ(off.legitimate_configs, on.legitimate_configs) << what;
  EXPECT_EQ(off.deadlock_free, on.deadlock_free) << what;
  EXPECT_EQ(off.deadlock_witness, on.deadlock_witness) << what;
  EXPECT_EQ(off.closure_holds, on.closure_holds) << what;
  EXPECT_EQ(off.closure_witness, on.closure_witness) << what;
  EXPECT_EQ(off.token_bounds_hold, on.token_bounds_hold) << what;
  EXPECT_EQ(off.token_witness, on.token_witness) << what;
  EXPECT_EQ(off.convergence_holds, on.convergence_holds) << what;
  EXPECT_EQ(off.cycle_witness, on.cycle_witness) << what;
  EXPECT_EQ(off.worst_case_steps, on.worst_case_steps) << what;
  EXPECT_EQ(off.worst_case_witness, on.worst_case_witness) << what;
  EXPECT_EQ(off.min_privileged_anywhere, on.min_privileged_anywhere) << what;
  EXPECT_EQ(off.summary(), on.summary()) << what;
  ASSERT_EQ(off.heights.size(), on.heights.size()) << what;
  std::uint64_t mismatches = 0;
  std::uint64_t first = 0;
  for (std::uint64_t c = 0; c < off.heights.size(); ++c) {
    if (off.heights[c] != on.heights[c] && mismatches++ == 0) first = c;
  }
  EXPECT_EQ(mismatches, 0u) << what << " (first at configuration " << first
                            << ")";
}

/// Runs the quotient checker @p on and its shift-free twin @p off at 1/2/8
/// workers, in every storage mode and with both Phase A engines (the
/// sliced one only when installed), against the shift-free scalar
/// single-worker baseline.
template <typename P>
void expect_quotient_invisible(const verify::ModelChecker<P>& on,
                               const verify::ModelChecker<P>& off,
                               verify::CheckOptions options,
                               const std::string& what) {
  ASSERT_GT(on.codec().orbit_size(), 1u) << what;
  ASSERT_EQ(off.codec().orbit_size(), 1u) << what;
  options.keep_heights = true;
  options.threads = 1;
  options.phase_a = verify::PhaseAMode::kScalar;
  options.storage = verify::PhaseBStorage::kCompressed;
  const verify::CheckReport baseline = off.run(options);
  EXPECT_EQ(baseline.stats.orbit_size, 1u) << what;
  EXPECT_EQ(baseline.heights.orbit_size(), 1u) << what;
  std::vector<verify::PhaseAMode> engines = {verify::PhaseAMode::kScalar};
  if (on.phase_a_slices()) engines.push_back(verify::PhaseAMode::kSliced);
  for (verify::PhaseAMode engine : engines) {
    options.phase_a = engine;
    for (verify::PhaseBStorage storage : {verify::PhaseBStorage::kCompressed,
                                          verify::PhaseBStorage::kCsrFree,
                                          verify::PhaseBStorage::kSpill}) {
      options.storage = storage;
      for (std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        options.threads = threads;
        const std::string label =
            what + " phase_a=" +
            (engine == verify::PhaseAMode::kScalar ? "scalar" : "sliced") +
            " storage=" + verify::to_string(storage) +
            " threads=" + std::to_string(threads);
        const verify::CheckReport quotient = on.run(options);
        EXPECT_EQ(quotient.stats.orbit_size, on.codec().orbit_size())
            << label;
        EXPECT_NE(quotient.stats.summary().find(
                      "orbit_size=" +
                      std::to_string(on.codec().orbit_size())),
                  std::string::npos)
            << label;
        expect_same(baseline, quotient, label + " quotient");
        expect_same(baseline, off.run(options), label + " full space");
      }
    }
  }
}

TEST(QuotientIdentity, SsrMinReportsMatchTheFullSpace) {
  const verify::CheckOptions options;  // privileged in [1, 2]
  for (auto [n, K] : {std::pair<std::size_t, std::uint32_t>{3, 4},
                      {3, 6},
                      {4, 5}}) {
    const auto on = verify::make_ssrmin_checker(n, K);
    const auto off = shift_free(on);
    expect_quotient_invisible(on, off, options,
                              "ssrmin(" + std::to_string(n) + "," +
                                  std::to_string(K) + ")");
  }
}

TEST(QuotientIdentity, DijkstraReportsMatchTheFullSpace) {
  verify::CheckOptions options;
  options.min_privileged = 1;
  options.max_privileged = 1;
  for (auto [n, K] : {std::pair<std::size_t, std::uint32_t>{3, 4},
                      {4, 4},
                      {5, 5},
                      {5, 6}}) {
    const auto on = verify::make_kstate_checker(n, K);
    const auto off = shift_free(on);
    expect_quotient_invisible(on, off, options,
                              "dijkstra(" + std::to_string(n) + "," +
                                  std::to_string(K) + ")");
  }
}

TEST(QuotientIdentity, FailingPropertiesKeepTheirLowestWitnesses) {
  // Witnesses are the lowest full-space code; the quotient must find the
  // same ones. A token bound of 1 fails SSRmin's legitimate two-holder
  // configurations, and narrowing Dijkstra's Lambda to "process 0 holds
  // the token" (still shift-invariant) breaks closure. Custom predicates
  // keep the scalar Phase A.
  verify::CheckOptions one_token;
  one_token.max_privileged = 1;
  const auto ssr = verify::make_ssrmin_checker(3, 5);
  const verify::CheckReport tokens = ssr.run(one_token);
  EXPECT_FALSE(tokens.token_bounds_hold);
  expect_quotient_invisible(ssr, shift_free(ssr),
                            one_token, "ssrmin(3,5) max_privileged=1");

  const dijkstra::KStateRing ring(4, 5);
  verify::ConfigCodec<dijkstra::KStateLocal> codec(
      4, 5, [](const dijkstra::KStateLocal& s) { return s.x; },
      [](std::uint32_t d) { return dijkstra::KStateLocal{d}; },
      verify::CounterShift{5, 1});
  const verify::ModelChecker<dijkstra::KStateRing> narrow(
      ring, std::move(codec),
      [ring](const dijkstra::KStateConfig& c) {
        return dijkstra::is_legitimate(ring, c) && c.front().x == c.back().x;
      },
      [ring](const dijkstra::KStateConfig& c) {
        return dijkstra::token_count(ring, c);
      });
  verify::CheckOptions dij;
  dij.min_privileged = 1;
  dij.max_privileged = 1;
  const verify::CheckReport closure = narrow.run(dij);
  EXPECT_FALSE(closure.closure_holds);
  EXPECT_TRUE(closure.closure_witness.has_value());
  expect_quotient_invisible(narrow, shift_free(narrow), dij,
                            "dijkstra(4,5) token-at-0 Lambda");
}

TEST(QuotientIdentity, AdversaryReplaysThroughTheQuotientHeights) {
  // The worst-case replay walks real configurations and reads heights of
  // full-space codes; under the quotient every read canonicalizes.
  const auto checker = verify::make_ssrmin_checker(4, 5);
  verify::CheckOptions options;
  options.keep_heights = true;
  const verify::CheckReport report = checker.run(options);
  ASSERT_EQ(report.heights.orbit_size(), 5u);
  EXPECT_EQ(report.heights.size(), checker.codec().total());
  EXPECT_EQ(report.heights.representatives(),
            checker.codec().representatives());
  const std::uint64_t start = *report.worst_case_witness;
  // Start from a non-representative member of the worst orbit too.
  const auto moved = shifted(checker.codec().decode(start), 5);
  for (std::uint64_t code : {start, checker.codec().encode(moved)}) {
    const auto replay = verify::replay_worst_execution(checker, report, code);
    EXPECT_TRUE(replay.potential_decreased_by_one) << code;
    EXPECT_EQ(replay.steps, 43u) << code;
  }
}

}  // namespace
