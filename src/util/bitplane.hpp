// Bit-plane primitives for the bit-sliced batch kernels.
//
// Layout convention (shared by core::BasicSlicedSsrMin and
// dijkstra::BasicSlicedKState): one lane word holds one bit of one process
// across kLanes Monte-Carlo lanes ("trial-major"); bit `l` of the word
// belongs to lane `l`. A b-bit per-process quantity (the Dijkstra digit)
// becomes b consecutive plane words per process, least-significant bit
// first. All helpers here are straight-line bitwise code over that layout:
// lanewise compare, lanewise +1 mod K, masked plane copy, and the 64x64
// transpose that converts the process-major enabled planes into per-lane
// bitmaps for daemon selection.
//
// The lane word is a template parameter: `std::uint64_t` gives the classic
// 64-lane engine, `WideWord<NW>` gives 64*NW lanes (`Lane512 = WideWord<8>`
// is the AVX-512 backend's word). WideWord
// is a plain array of u64 limbs with bitwise operators written as limb
// loops — no intrinsics — so the same header compiles everywhere and the
// per-TU SIMD backend (see sim/batch_dispatch.cpp) gets its vector
// codegen purely from compiler flags on those translation units.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace ssr::util {

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
/// old bit c of a[r]. Wider lane words transpose one 64-lane limb group at
/// a time through this same routine.
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

/// A lane word of 64 * NW lanes: a plain limb array with bitwise operators.
/// Limb g covers lanes [64g, 64g + 64). The alignment matches the natural
/// vector register width so the auto-vectorized limb loops load aligned.
template <std::size_t NW>
struct alignas(8 * NW) WideWord {
  static_assert(NW >= 2 && (NW & (NW - 1)) == 0,
                "WideWord limb count must be a power of two >= 2");
  std::uint64_t limb[NW];

  friend WideWord operator&(WideWord a, const WideWord& b) {
    for (std::size_t g = 0; g < NW; ++g) a.limb[g] &= b.limb[g];
    return a;
  }
  friend WideWord operator|(WideWord a, const WideWord& b) {
    for (std::size_t g = 0; g < NW; ++g) a.limb[g] |= b.limb[g];
    return a;
  }
  friend WideWord operator^(WideWord a, const WideWord& b) {
    for (std::size_t g = 0; g < NW; ++g) a.limb[g] ^= b.limb[g];
    return a;
  }
  WideWord operator~() const {
    WideWord r;
    for (std::size_t g = 0; g < NW; ++g) r.limb[g] = ~limb[g];
    return r;
  }
  WideWord& operator&=(const WideWord& b) {
    for (std::size_t g = 0; g < NW; ++g) limb[g] &= b.limb[g];
    return *this;
  }
  WideWord& operator|=(const WideWord& b) {
    for (std::size_t g = 0; g < NW; ++g) limb[g] |= b.limb[g];
    return *this;
  }
  WideWord& operator^=(const WideWord& b) {
    for (std::size_t g = 0; g < NW; ++g) limb[g] ^= b.limb[g];
    return *this;
  }
  friend bool operator==(const WideWord&, const WideWord&) = default;
};

using Lane512 = WideWord<8>;

/// Uniform lane access over the lane-word types. Everything the sliced
/// kernels need beyond the bitwise operators lives here, so generic code
/// never branches on the concrete word type.
template <typename W>
struct LaneTraits;

template <>
struct LaneTraits<std::uint64_t> {
  using Word = std::uint64_t;
  static constexpr unsigned kLanes = 64;
  static constexpr unsigned kLimbs = 1;

  static constexpr Word zero() { return 0; }
  static constexpr Word ones() { return ~0ULL; }
  static constexpr bool any(Word w) { return w != 0; }
  static constexpr bool test(Word w, unsigned lane) {
    return (w >> lane) & 1u;
  }
  static constexpr Word lane_bit(unsigned lane) { return 1ULL << lane; }
  static constexpr void set(Word& w, unsigned lane) { w |= 1ULL << lane; }
  /// Mask of lanes [lo, hi). Both bounds saturate at 64, so an empty
  /// window at the very end (lo == hi == 64) is a valid empty mask rather
  /// than a shift-by-width.
  static constexpr Word range_mask(unsigned lo, unsigned hi) {
    const Word upto = hi >= 64 ? ~0ULL : (1ULL << hi) - 1;
    const Word below = lo >= 64 ? ~0ULL : (1ULL << lo) - 1;
    return upto & ~below;
  }
  static constexpr unsigned popcount(Word w) {
    return static_cast<unsigned>(std::popcount(w));
  }
  static constexpr std::uint64_t limb(Word w, unsigned) { return w; }
  static constexpr void set_limb(Word& w, unsigned, std::uint64_t v) { w = v; }
  template <typename Fn>
  static void for_each_lane(Word w, Fn&& fn) {
    while (w != 0) {
      fn(static_cast<unsigned>(std::countr_zero(w)));
      w &= w - 1;
    }
  }
};

template <std::size_t NW>
struct LaneTraits<WideWord<NW>> {
  using Word = WideWord<NW>;
  static constexpr unsigned kLanes = 64 * NW;
  static constexpr unsigned kLimbs = NW;

  static constexpr Word zero() { return Word{}; }
  static constexpr Word ones() {
    Word w{};
    for (std::size_t g = 0; g < NW; ++g) w.limb[g] = ~0ULL;
    return w;
  }
  static constexpr bool any(const Word& w) {
    std::uint64_t acc = 0;
    for (std::size_t g = 0; g < NW; ++g) acc |= w.limb[g];
    return acc != 0;
  }
  static constexpr bool test(const Word& w, unsigned lane) {
    return (w.limb[lane / 64] >> (lane % 64)) & 1u;
  }
  static constexpr Word lane_bit(unsigned lane) {
    Word w{};
    w.limb[lane / 64] = 1ULL << (lane % 64);
    return w;
  }
  static constexpr void set(Word& w, unsigned lane) {
    w.limb[lane / 64] |= 1ULL << (lane % 64);
  }
  /// Mask of lanes [lo, hi).
  static constexpr Word range_mask(unsigned lo, unsigned hi) {
    Word w{};
    for (unsigned g = 0; g < NW; ++g) {
      const unsigned base = g * 64;
      const unsigned a = lo > base ? lo - base : 0;
      const unsigned b = hi > base ? hi - base : 0;
      if (a >= 64 || b == 0) continue;
      w.limb[g] = LaneTraits<std::uint64_t>::range_mask(a, b > 64 ? 64 : b);
    }
    return w;
  }
  static constexpr unsigned popcount(const Word& w) {
    unsigned c = 0;
    for (std::size_t g = 0; g < NW; ++g) {
      c += static_cast<unsigned>(std::popcount(w.limb[g]));
    }
    return c;
  }
  static constexpr std::uint64_t limb(const Word& w, unsigned g) {
    return w.limb[g];
  }
  static constexpr void set_limb(Word& w, unsigned g, std::uint64_t v) {
    w.limb[g] = v;
  }
  template <typename Fn>
  static void for_each_lane(const Word& w, Fn&& fn) {
    for (std::size_t g = 0; g < NW; ++g) {
      std::uint64_t bits = w.limb[g];
      const unsigned base = static_cast<unsigned>(g) * 64;
      while (bits != 0) {
        fn(base + static_cast<unsigned>(std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
  }
};

/// Lanewise inequality of two d-plane digits: lane l of the result is set
/// iff lane l's values differ.
template <typename W>
inline W digit_neq(const W* a, const W* b, unsigned d) {
  W neq = LaneTraits<W>::zero();
  for (unsigned bit = 0; bit < d; ++bit) neq |= a[bit] ^ b[bit];
  return neq;
}

/// Lanewise (x + 1) mod K into out[0..d). Inputs must hold values < K;
/// handles both the x+1 == K wrap and the K == 2^d carry-out case (there
/// the +1 overflows the d planes and the all-ones carry word is the only
/// wrap witness, since K mod 2^d == 0 makes the neq_k compare vacuous for
/// the overflowed lanes).
template <typename W>
inline void digit_inc_mod(const W* x, W* out, unsigned d, std::uint32_t K) {
  using T = LaneTraits<W>;
  W carry = T::ones();
  for (unsigned bit = 0; bit < d; ++bit) {
    out[bit] = x[bit] ^ carry;
    carry &= x[bit];
  }
  W neq_k = T::zero();
  for (unsigned bit = 0; bit < d; ++bit) {
    neq_k |= (K >> bit) & 1u ? ~out[bit] : out[bit];
  }
  const W wrap = carry | ~neq_k;
  for (unsigned bit = 0; bit < d; ++bit) out[bit] &= ~wrap;
}

/// dst = (dst & ~mask) | (src & mask), plane by plane.
template <typename W>
inline void digit_copy_masked(W* dst, const W* src, unsigned d,
                              const W& mask) {
  for (unsigned bit = 0; bit < d; ++bit) {
    dst[bit] = (dst[bit] & ~mask) | (src[bit] & mask);
  }
}

/// dst = (dst & ~mask) | (value broadcast & mask): writes one constant
/// digit into every masked lane. The bulk form the run-decomposed fills
/// (batch refill, sliced Phase A) use.
template <typename W>
inline void digit_fill_masked(W* dst, std::uint32_t value, unsigned d,
                              const W& mask) {
  for (unsigned bit = 0; bit < d; ++bit) {
    dst[bit] = (value >> bit) & 1u ? (dst[bit] | mask) : (dst[bit] & ~mask);
  }
}

/// Writes lane `lane` of a d-plane digit.
template <typename W>
inline void digit_set_lane(W* x, unsigned d, unsigned lane,
                           std::uint32_t value) {
  using T = LaneTraits<W>;
  const unsigned g = lane / 64;
  const std::uint64_t bit = 1ULL << (lane % 64);
  for (unsigned b = 0; b < d; ++b) {
    std::uint64_t w = T::limb(x[b], g);
    w = (value >> b) & 1u ? (w | bit) : (w & ~bit);
    T::set_limb(x[b], g, w);
  }
}

/// Reads lane `lane` of a d-plane digit.
template <typename W>
inline std::uint32_t digit_get_lane(const W* x, unsigned d, unsigned lane) {
  using T = LaneTraits<W>;
  const unsigned g = lane / 64;
  const unsigned b0 = lane % 64;
  std::uint32_t value = 0;
  for (unsigned b = 0; b < d; ++b) {
    value |= static_cast<std::uint32_t>((T::limb(x[b], g) >> b0) & 1u) << b;
  }
  return value;
}

/// The shared Dijkstra-digit portion of the sliced kernels: the x counter
/// of every process as bit planes, its lanewise x_i != x_{i-1} words, the
/// masked command application (P_0 increments its predecessor's value mod
/// K, everyone else copies it), and the lanewise "legitimate step shape"
/// predicate over the x-part.
template <typename W>
class BasicSlicedDigits {
 public:
  using Word = W;
  using Traits = LaneTraits<W>;

  BasicSlicedDigits(std::size_t n, std::uint32_t K)
      : n_(n),
        k_(K),
        d_(digit_plane_count(K)),
        x_(n * d_, Traits::zero()),
        neq_(n, Traits::zero()) {
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

  const W* digit(std::size_t i) const { return &x_[i * d_]; }

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
  void set_lanes_masked(std::size_t i, const W& mask, std::uint32_t value) {
    SSR_REQUIRE(value < k_, "digit value out of range for modulus K");
    digit_fill_masked(&x_[i * d_], value, d_, mask);
  }

  /// Lanewise x_i != x_{i-1} (the raw material of G_i). neq(0) compares
  /// against x_{n-1}.
  const W& neq(std::size_t i) const { return neq_[i]; }

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
  void apply_command(const W* mx) {
    W saved[kMaxDigitPlanes];
    W inc[kMaxDigitPlanes];
    bool saved_is_pred = false;  // saved[] holds the pre-step x_{i-1}
    for (std::size_t i = 0; i < n_; ++i) {
      W* self = &x_[i * d_];
      // P_{i+1} reads the pre-step x_i; stash it before overwriting. P_0
      // never needs a stash for x_{n-1}: it is processed first, and x_{n-1}
      // is written last.
      const bool succ_needs_old = i + 1 < n_ && Traits::any(mx[i + 1]);
      if (Traits::any(mx[i])) {
        const W* pred = i == 0 ? &x_[(n_ - 1) * d_]
                               : (saved_is_pred ? saved : &x_[(i - 1) * d_]);
        if (succ_needs_old) {
          for (unsigned b = 0; b < d_; ++b) inc[b] = self[b];
        }
        if (i == 0) {
          W bumped[kMaxDigitPlanes];
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
  W step_shape(const W& candidates) const {
    W ok = candidates;
    W inc[kMaxDigitPlanes];
    for (std::size_t i = 1; i < n_ && Traits::any(ok); ++i) {
      const W need = neq_[i] & ok;
      if (!Traits::any(need)) continue;
      digit_inc_mod(&x_[i * d_], inc, d_, k_);
      const W bad = digit_neq(&x_[(i - 1) * d_], inc, d_);
      ok &= ~(need & bad);
    }
    return ok;
  }

 private:
  std::size_t n_;
  std::uint32_t k_;
  unsigned d_;
  std::vector<W> x_;    // process-major: x_[i * d_ + bit]
  std::vector<W> neq_;  // lanewise x_i != x_{i-1}
};

/// The classic 64-lane engine everything scalar-u64 keeps using by name.
using SlicedDigits = BasicSlicedDigits<std::uint64_t>;

}  // namespace ssr::util
