// Bit-plane primitives for the bit-sliced batch kernels.
//
// Layout convention (shared by core::SlicedSsrMin and dijkstra::SlicedKState):
// one u64 lane word holds one bit of one process across 64 Monte-Carlo
// lanes ("trial-major"); bit `l` of the word belongs to lane `l`. A b-bit
// per-process quantity (the Dijkstra digit) becomes b consecutive plane
// words per process, least-significant bit first. All helpers here are
// straight-line bitwise code over that layout: lanewise compare, lanewise
// +1 mod K, masked plane copy, and the 64x64 transpose that converts the
// process-major enabled planes into per-lane bitmaps for daemon selection.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace ssr::util {

/// Lanes per plane word.
inline constexpr unsigned kLanes = 64;

/// Upper bound on digit planes per process. K is a u32, so bit_width(K-1)
/// never exceeds 32; the fixed-size digit scratch buffers below rely on it
/// and the SlicedDigits constructor enforces it explicitly.
inline constexpr unsigned kMaxDigitPlanes = 32;

/// Number of bit planes needed for values in [0, K). K >= 2.
inline unsigned digit_plane_count(std::uint32_t K) {
  SSR_REQUIRE(K >= 2, "digit planes need a modulus of at least 2");
  return static_cast<unsigned>(std::bit_width(K - 1));
}

/// In-place 64x64 bit-matrix transpose (Hacker's Delight §7-3, oriented so
/// bit position == column index): after the call, bit r of a[c] equals the
/// old bit c of a[r].
inline void transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

/// Mask of lanes [lo, hi). Both bounds saturate at kLanes, so an empty
/// window at the very end (lo == hi == 64) is a valid empty mask rather
/// than a shift-by-width.
inline constexpr std::uint64_t lane_range_mask(unsigned lo, unsigned hi) {
  const std::uint64_t upto = hi >= kLanes ? ~0ULL : (1ULL << hi) - 1;
  const std::uint64_t below = lo >= kLanes ? ~0ULL : (1ULL << lo) - 1;
  return upto & ~below;
}

/// Calls fn(lane) for every set lane of w, in ascending order.
template <typename Fn>
inline void for_each_lane(std::uint64_t w, Fn&& fn) {
  while (w != 0) {
    fn(static_cast<unsigned>(std::countr_zero(w)));
    w &= w - 1;
  }
}

/// Mask of the lanes whose per-lane count satisfies pred: bit l is
/// pred(count[l]). The kernels keep guard/enabled counts per lane and turn
/// them back into lane words with this.
template <typename Pred>
inline std::uint64_t lanes_where(const std::uint32_t* count, Pred&& pred) {
  std::uint64_t bits = 0;
  for (unsigned l = 0; l < kLanes; ++l) {
    bits |= static_cast<std::uint64_t>(pred(count[l])) << l;
  }
  return bits;
}

/// Lanewise inequality of two d-plane digits: lane l of the result is set
/// iff lane l's values differ.
inline std::uint64_t digit_neq(const std::uint64_t* a, const std::uint64_t* b,
                               unsigned d) {
  std::uint64_t neq = 0;
  for (unsigned bit = 0; bit < d; ++bit) neq |= a[bit] ^ b[bit];
  return neq;
}

/// Lanewise (x + 1) mod K into out[0..d). Inputs must hold values < K;
/// handles both the x+1 == K wrap and the K == 2^d carry-out case (there
/// the +1 overflows the d planes and the all-ones carry word is the only
/// wrap witness, since K mod 2^d == 0 makes the neq_k compare vacuous for
/// the overflowed lanes).
inline void digit_inc_mod(const std::uint64_t* x, std::uint64_t* out,
                          unsigned d, std::uint32_t K) {
  std::uint64_t carry = ~0ULL;
  for (unsigned bit = 0; bit < d; ++bit) {
    out[bit] = x[bit] ^ carry;
    carry &= x[bit];
  }
  std::uint64_t neq_k = 0;
  for (unsigned bit = 0; bit < d; ++bit) {
    neq_k |= (K >> bit) & 1u ? ~out[bit] : out[bit];
  }
  const std::uint64_t wrap = carry | ~neq_k;
  for (unsigned bit = 0; bit < d; ++bit) out[bit] &= ~wrap;
}

/// dst = (dst & ~mask) | (src & mask), plane by plane.
inline void digit_copy_masked(std::uint64_t* dst, const std::uint64_t* src,
                              unsigned d, std::uint64_t mask) {
  for (unsigned bit = 0; bit < d; ++bit) {
    dst[bit] = (dst[bit] & ~mask) | (src[bit] & mask);
  }
}

/// dst = (dst & ~mask) | (value broadcast & mask): writes one constant
/// digit into every masked lane. The bulk form the run-decomposed fills
/// (batch refill, sliced Phase A) use.
inline void digit_fill_masked(std::uint64_t* dst, std::uint32_t value,
                              unsigned d, std::uint64_t mask) {
  for (unsigned bit = 0; bit < d; ++bit) {
    dst[bit] = (value >> bit) & 1u ? (dst[bit] | mask) : (dst[bit] & ~mask);
  }
}

/// Writes lane `lane` of a d-plane digit.
inline void digit_set_lane(std::uint64_t* x, unsigned d, unsigned lane,
                           std::uint32_t value) {
  const std::uint64_t bit = 1ULL << lane;
  for (unsigned b = 0; b < d; ++b) {
    x[b] = (value >> b) & 1u ? (x[b] | bit) : (x[b] & ~bit);
  }
}

/// Reads lane `lane` of a d-plane digit.
inline std::uint32_t digit_get_lane(const std::uint64_t* x, unsigned d,
                                    unsigned lane) {
  std::uint32_t value = 0;
  for (unsigned b = 0; b < d; ++b) {
    value |= static_cast<std::uint32_t>((x[b] >> lane) & 1u) << b;
  }
  return value;
}

/// The shared Dijkstra-digit portion of the sliced kernels: the x counter
/// of every process as bit planes, its lanewise x_i != x_{i-1} words, the
/// masked command application (P_0 increments its predecessor's value mod
/// K, everyone else copies it), and the lanewise "legitimate step shape"
/// predicate over the x-part.
class SlicedDigits {
 public:
  SlicedDigits(std::size_t n, std::uint32_t K)
      : n_(n),
        k_(K),
        d_(digit_plane_count(K)),
        x_(n * d_, 0),
        neq_(n, 0) {
    SSR_REQUIRE(n >= 2, "sliced digit ring needs at least two processes");
    // The rolling-save scratch in apply_command/step_shape is sized for
    // kMaxDigitPlanes planes; a u32 modulus can never need more, but keep
    // the bound checked rather than silently assumed.
    SSR_REQUIRE(d_ <= kMaxDigitPlanes,
                "digit planes exceed the fixed scratch bound");
    // All-zero planes are a valid configuration (every lane x = 0), so
    // unloaded lanes always hold in-range values.
    for (std::size_t i = 0; i < n_; ++i) update_neq(i);
  }

  std::size_t size() const { return n_; }
  std::uint32_t modulus() const { return k_; }
  unsigned digits() const { return d_; }

  const std::uint64_t* digit(std::size_t i) const { return &x_[i * d_]; }

  void set_lane(std::size_t i, unsigned lane, std::uint32_t value) {
    SSR_REQUIRE(value < k_, "digit value out of range for modulus K");
    digit_set_lane(&x_[i * d_], d_, lane, value);
  }

  std::uint32_t get_lane(std::size_t i, unsigned lane) const {
    return digit_get_lane(&x_[i * d_], d_, lane);
  }

  /// Writes one constant value into every masked lane of process i's digit
  /// in a single plane pass (the bulk form of set_lane for run-decomposed
  /// fills). Does NOT refresh neq; the caller repairs the dirtied entries.
  void set_lanes_masked(std::size_t i, std::uint64_t mask,
                        std::uint32_t value) {
    SSR_REQUIRE(value < k_, "digit value out of range for modulus K");
    digit_fill_masked(&x_[i * d_], value, d_, mask);
  }

  /// Lanewise x_i != x_{i-1} (the raw material of G_i). neq(0) compares
  /// against x_{n-1}.
  std::uint64_t neq(std::size_t i) const { return neq_[i]; }

  /// Recomputes neq(i) from the current planes.
  void update_neq(std::size_t i) {
    const std::size_t p = i == 0 ? n_ - 1 : i - 1;
    neq_[i] = digit_neq(&x_[i * d_], &x_[p * d_], d_);
  }

  /// Applies C_i under the per-process lane masks `mx` (n words): in every
  /// masked lane, P_0 takes (old x_{n-1} + 1) mod K and P_i (i > 0) copies
  /// old x_{i-1}. Reads are pre-step: a single rolling saved digit carries
  /// each overwritten predecessor to its successor. Does NOT refresh neq;
  /// the caller repairs the dirtied entries.
  void apply_command(const std::uint64_t* mx) {
    std::uint64_t saved[kMaxDigitPlanes];
    std::uint64_t inc[kMaxDigitPlanes];
    bool saved_is_pred = false;  // saved[] holds the pre-step x_{i-1}
    for (std::size_t i = 0; i < n_; ++i) {
      std::uint64_t* self = &x_[i * d_];
      // P_{i+1} reads the pre-step x_i; stash it before overwriting. P_0
      // never needs a stash for x_{n-1}: it is processed first, and x_{n-1}
      // is written last.
      const bool succ_needs_old = i + 1 < n_ && mx[i + 1] != 0;
      if (mx[i] != 0) {
        const std::uint64_t* pred = i == 0 ? &x_[(n_ - 1) * d_]
                               : (saved_is_pred ? saved : &x_[(i - 1) * d_]);
        if (succ_needs_old) {
          for (unsigned b = 0; b < d_; ++b) inc[b] = self[b];
        }
        if (i == 0) {
          std::uint64_t bumped[kMaxDigitPlanes];
          digit_inc_mod(pred, bumped, d_, k_);
          digit_copy_masked(self, bumped, d_, mx[i]);
        } else {
          digit_copy_masked(self, pred, d_, mx[i]);
        }
        if (succ_needs_old) {
          for (unsigned b = 0; b < d_; ++b) saved[b] = inc[b];
          saved_is_pred = true;
          continue;
        }
      } else if (succ_needs_old) {
        for (unsigned b = 0; b < d_; ++b) saved[b] = self[b];
        saved_is_pred = true;
        continue;
      }
      saved_is_pred = false;
    }
  }

  /// Restricted to the candidate lanes, which of them have an x-part of
  /// the legitimate step shape: every boundary with x_i != x_{i-1} at
  /// i >= 1 must satisfy x_{i-1} == (x_i + 1) mod K. Combined with
  /// "exactly one guard" this is exactly Dijkstra legitimacy (all equal,
  /// or one +1-step with the token at the unique mismatch / at P_0).
  /// Requires neq to be current.
  std::uint64_t step_shape(std::uint64_t candidates) const {
    std::uint64_t ok = candidates;
    std::uint64_t inc[kMaxDigitPlanes];
    for (std::size_t i = 1; i < n_ && ok != 0; ++i) {
      const std::uint64_t need = neq_[i] & ok;
      if (need == 0) continue;
      digit_inc_mod(&x_[i * d_], inc, d_, k_);
      const std::uint64_t bad = digit_neq(&x_[(i - 1) * d_], inc, d_);
      ok &= ~(need & bad);
    }
    return ok;
  }

 private:
  std::size_t n_;
  std::uint32_t k_;
  unsigned d_;
  std::vector<std::uint64_t> x_;    // process-major: x_[i * d_ + bit]
  std::vector<std::uint64_t> neq_;  // lanewise x_i != x_{i-1}
};

}  // namespace ssr::util
