// Edge-case and differential tests for the bit-plane primitives in
// util/bitplane.hpp — the substrate under core::SlicedSsrMin,
// dijkstra::SlicedKState and the sliced model-checker Phase A.
//
// The two historical hazard zones get exhaustive treatment:
//
//  * digit_inc_mod's wrap logic has TWO distinct witnesses: the neq_k
//    compare (x + 1 == K while the sum still fits in d planes) and the
//    ripple carry-out (K == 2^d, where the +1 overflows the planes and
//    K mod 2^d == 0 makes the compare vacuous). Every modulus in
//    [2, 1024] is checked at every value in [0, K), so both paths and
//    their boundary are pinned, plus spot checks at the u32 extremes.
//
//  * apply_command's rolling-save: one saved digit carries each
//    overwritten predecessor to its successor. n == 2 and n == 3 are the
//    smallest rings where every save/skip interleaving exists; all 2^n
//    per-lane selection subsets are laid across the lanes and rotated so
//    every lane exercises every shape, differentially against a scalar
//    model of C_i.
//
#include "util/bitplane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ssr::util {
namespace {

// ---------------------------------------------------------------------------
// digit_inc_mod: exhaustive differential over all K in [2, 1024].

TEST(DigitIncMod, ExhaustiveAllModuliAllValues) {
  for (std::uint32_t K = 2; K <= 1024; ++K) {
    const unsigned d = digit_plane_count(K);
    std::vector<std::uint64_t> x(d), out(d);
    for (std::uint32_t base = 0; base < K; base += 64) {
      const auto lanes = std::min<std::uint32_t>(64, K - base);
      // Unloaded tail lanes keep value 0, so every lane stays in range.
      std::fill(x.begin(), x.end(), 0);
      for (std::uint32_t l = 0; l < lanes; ++l) {
        digit_set_lane(x.data(), d, l, base + l);
      }
      digit_inc_mod(x.data(), out.data(), d, K);
      for (std::uint32_t l = 0; l < 64; ++l) {
        const std::uint32_t v = l < lanes ? base + l : 0;
        ASSERT_EQ(digit_get_lane(out.data(), d, l), (v + 1) % K)
            << "K=" << K << " x=" << v;
      }
    }
  }
}

TEST(DigitIncMod, PowerOfTwoCarryOutIsTheOnlyWrapWitness) {
  // K == 2^d: x = K-1 is all-ones across the d planes, so the +1 leaves
  // out[] == 0 == K mod 2^d and the neq_k compare cannot see the wrap;
  // only the ripple carry-out can. Mix wrap and non-wrap lanes so a
  // carry word leaking into other lanes would be caught too.
  for (unsigned dpow = 1; dpow <= 10; ++dpow) {
    const std::uint32_t K = 1u << dpow;
    const unsigned d = digit_plane_count(K);
    ASSERT_EQ(d, dpow);
    std::vector<std::uint64_t> x(d), out(d);
    for (std::uint32_t l = 0; l < 64; ++l) {
      digit_set_lane(x.data(), d, l, l % 2 == 0 ? K - 1 : l % K);
    }
    digit_inc_mod(x.data(), out.data(), d, K);
    for (std::uint32_t l = 0; l < 64; ++l) {
      const std::uint32_t v = l % 2 == 0 ? K - 1 : l % K;
      ASSERT_EQ(digit_get_lane(out.data(), d, l), (v + 1) % K)
          << "K=" << K << " lane=" << l;
    }
  }
}

TEST(DigitIncMod, U32ExtremesStayExact) {
  // The widest moduli a u32 permits: 2^31 (carry-out wrap at d == 31),
  // 2^32 - 1 (d == 32, compare-witnessed wrap) and a 2^16 midpoint.
  for (std::uint32_t K : {0x80000000u, 0xFFFFFFFFu, 0x10000u}) {
    const unsigned d = digit_plane_count(K);
    ASSERT_LE(d, kMaxDigitPlanes);
    std::vector<std::uint64_t> x(d), out(d);
    const std::uint32_t probes[] = {0, 1, K / 2, K - 2, K - 1};
    for (unsigned l = 0; l < 5; ++l) digit_set_lane(x.data(), d, l, probes[l]);
    digit_inc_mod(x.data(), out.data(), d, K);
    for (unsigned l = 0; l < 5; ++l) {
      ASSERT_EQ(digit_get_lane(out.data(), d, l),
                probes[l] + 1 == K ? 0 : probes[l] + 1)
          << "K=" << K << " x=" << probes[l];
    }
  }
}

// ---------------------------------------------------------------------------
// apply_command: rolling-save differential against a scalar model of C_i.

/// Applies C_i to one lane's scalar configuration: P_0 takes
/// (old x_{n-1} + 1) mod K, P_i copies old x_{i-1}; all reads pre-step.
std::vector<std::uint32_t> scalar_command(const std::vector<std::uint32_t>& x,
                                          std::uint32_t subset,
                                          std::uint32_t K) {
  const std::size_t n = x.size();
  std::vector<std::uint32_t> out = x;
  for (std::size_t i = 0; i < n; ++i) {
    if ((subset >> i) & 1u) {
      out[i] = i == 0 ? (x[n - 1] + 1) % K : x[i - 1];
    }
  }
  return out;
}

void expect_apply_matches_scalar(std::size_t n, std::uint32_t K,
                                 std::uint64_t seed) {
  const std::uint32_t subsets = 1u << n;
  ASSERT_LE(subsets, kLanes);
  SlicedDigits digits(n, K);
  Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> lane(kLanes,
                                               std::vector<std::uint32_t>(n));
  for (unsigned l = 0; l < kLanes; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      lane[l][i] = static_cast<std::uint32_t>(rng() % K);
      digits.set_lane(i, l, lane[l][i]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) digits.update_neq(i);
  // Rotating the subset assignment over `subsets` rounds puts every
  // selection shape (including the empty one) in every lane position, so
  // each rolling-save interleaving meets each lane alignment.
  for (std::uint32_t round = 0; round < subsets; ++round) {
    std::vector<std::uint64_t> mx(n, 0);
    for (unsigned l = 0; l < kLanes; ++l) {
      const std::uint32_t subset = (l + round) % subsets;
      for (std::size_t i = 0; i < n; ++i) {
        if ((subset >> i) & 1u) mx[i] |= 1ULL << l;
      }
      lane[l] = scalar_command(lane[l], subset, K);
    }
    digits.apply_command(mx.data());
    for (std::size_t i = 0; i < n; ++i) digits.update_neq(i);
    for (unsigned l = 0; l < kLanes; ++l) {
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(digits.get_lane(i, l), lane[l][i])
            << "n=" << n << " K=" << K << " round=" << round << " lane=" << l
            << " i=" << i;
        const std::size_t p = i == 0 ? n - 1 : i - 1;
        ASSERT_EQ((digits.neq(i) >> l) & 1u,
                  lane[l][i] != lane[l][p] ? 1u : 0u)
            << "n=" << n << " K=" << K << " round=" << round << " lane=" << l
            << " i=" << i;
      }
    }
  }
}

TEST(SlicedDigitsApply, RollingSaveMatchesScalarAtN2AndN3) {
  // n == 2: P_1's predecessor is P_0, which may itself have just moved —
  // the save must hand P_1 the pre-increment x_0. n == 3 adds the
  // skip-then-save resync. K covers power-of-two wrap and odd moduli.
  for (std::size_t n : {2u, 3u}) {
    for (std::uint32_t K : {3u, 4u, 5u, 6u, 7u, 8u}) {
      expect_apply_matches_scalar(n, K, 100 * n + K);
    }
  }
}

TEST(SlicedDigitsApply, RollingSaveMatchesScalarAtWiderRings) {
  for (std::size_t n : {4u, 6u}) {
    expect_apply_matches_scalar(n, n + 1, 500 + n);
  }
}

// ---------------------------------------------------------------------------
// Constructor / range guards.

TEST(SlicedDigits, GuardsRejectBadArguments) {
  EXPECT_THROW(SlicedDigits(1, 4), std::invalid_argument);
  EXPECT_THROW(digit_plane_count(0), std::invalid_argument);
  EXPECT_THROW(digit_plane_count(1), std::invalid_argument);
  SlicedDigits d(2, 5);
  EXPECT_THROW(d.set_lane(0, 0, 5), std::invalid_argument);
  EXPECT_THROW(d.set_lanes_masked(0, ~0ULL, 5), std::invalid_argument);
}

TEST(SlicedDigits, U32ExtremesFitTheScratchBound) {
  // The fixed kMaxDigitPlanes scratch in apply_command/step_shape must
  // cover any u32 modulus: bit_width(K - 1) maxes out at 32.
  SlicedDigits top(2, 0xFFFFFFFFu);
  EXPECT_EQ(top.digits(), 32u);
  EXPECT_LE(top.digits(), kMaxDigitPlanes);
  SlicedDigits pow31(2, 0x80000000u);
  EXPECT_EQ(pow31.digits(), 31u);
  top.set_lane(0, 7, 0xFFFFFFFEu);
  EXPECT_EQ(top.get_lane(0, 7), 0xFFFFFFFEu);
  const std::uint64_t mx[2] = {1ULL << 7, 0};
  top.apply_command(mx);  // P_0 bumps x_1 = 0 to 1 in lane 7 only
  EXPECT_EQ(top.get_lane(0, 7), 1u);
  EXPECT_EQ(top.get_lane(0, 6), 0u);
}

// ---------------------------------------------------------------------------
// Lane helpers.

TEST(LaneHelpers, RangeMaskAndLaneWalkMatchPerLaneDefinition) {
  // lane_range_mask: every (lo, hi) shape against the per-lane definition,
  // including empty, full and hi-at-the-end windows.
  const unsigned probes[] = {0, 1, 5, 31, 32, 63, 64};
  for (unsigned lo : probes) {
    for (unsigned hi : probes) {
      if (hi < lo) continue;
      const std::uint64_t m = lane_range_mask(lo, hi);
      for (unsigned lane = 0; lane < kLanes; ++lane) {
        ASSERT_EQ((m >> lane) & 1u, lane >= lo && lane < hi ? 1u : 0u)
            << "lo=" << lo << " hi=" << hi << " lane=" << lane;
      }
    }
  }
  // for_each_lane visits exactly the set lanes, in ascending order.
  std::vector<unsigned> got;
  for_each_lane((1ULL << 63) | (1ULL << 3) | 1ULL,
                [&](unsigned lane) { got.push_back(lane); });
  EXPECT_EQ(got, (std::vector<unsigned>{0, 3, 63}));
  for_each_lane(0, [&](unsigned) { ADD_FAILURE() << "empty word visited"; });
  // lanes_where turns per-lane counts back into a lane word.
  std::uint32_t count[kLanes] = {};
  count[2] = 1;
  count[40] = 3;
  count[63] = 1;
  EXPECT_EQ(lanes_where(count, [](std::uint32_t c) { return c == 1; }),
            (1ULL << 2) | (1ULL << 63));
  EXPECT_EQ(lanes_where(count, [](std::uint32_t c) { return c != 0; }),
            (1ULL << 2) | (1ULL << 40) | (1ULL << 63));
}

TEST(BitplaneHelpers, MaskedOpsMatchPerLaneModel) {
  Rng rng(51);
  const std::uint32_t K = 11;
  const unsigned d = digit_plane_count(K);
  std::vector<std::uint64_t> dst(d, 0), src(d, 0);
  std::vector<std::uint32_t> dv(kLanes), sv(kLanes);
  for (unsigned l = 0; l < kLanes; ++l) {
    dv[l] = static_cast<std::uint32_t>(rng() % K);
    sv[l] = static_cast<std::uint32_t>(rng() % K);
    digit_set_lane(dst.data(), d, l, dv[l]);
    digit_set_lane(src.data(), d, l, sv[l]);
  }
  const std::uint64_t neq = digit_neq(dst.data(), src.data(), d);
  for (unsigned l = 0; l < kLanes; ++l) {
    ASSERT_EQ(((neq >> l) & 1u) != 0, dv[l] != sv[l]) << "lane " << l;
  }
  const std::uint64_t mask = rng();
  const auto masked = [mask](unsigned l) { return ((mask >> l) & 1u) != 0; };
  digit_copy_masked(dst.data(), src.data(), d, mask);
  for (unsigned l = 0; l < kLanes; ++l) {
    ASSERT_EQ(digit_get_lane(dst.data(), d, l), masked(l) ? sv[l] : dv[l])
        << "lane " << l;
  }
  digit_fill_masked(dst.data(), 7, d, mask);
  for (unsigned l = 0; l < kLanes; ++l) {
    ASSERT_EQ(digit_get_lane(dst.data(), d, l), masked(l) ? 7u : dv[l])
        << "lane " << l;
  }
}

}  // namespace
}  // namespace ssr::util
