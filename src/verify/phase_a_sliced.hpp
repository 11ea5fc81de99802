// Bit-sliced Phase A for the exhaustive model checker.
//
// The scalar Phase A walks every configuration with a ConfigOdometer and
// pays one guard sweep plus one std::function legitimacy/privilege call per
// configuration. The sliced variant instead fills a bit-plane kernel with
// kLanes *consecutive* configuration codes (lane l of window `base` is
// configuration base + l), so one kernel pass evaluates guards, legitimacy
// and privilege for a whole lane word of configurations:
//
//   * A1 (Lambda membership)  — legit_bits() returns the kernel's
//     legitimacy mask as plain u64 words, which the checker ORs into the
//     shared TwoLevelBitset (64 configurations per store).
//   * A2 (deadlock / token / closure sweep) — sweep() derives the
//     deadlocked lanes from the kernel's any-enabled mask, counts
//     privileged processes per lane with a bit-sliced vertical counter
//     (O(n log n) word ops per window instead of O(n) scalar work per
//     configuration), and reports legitimate-and-enabled lanes as closure
//     *candidates* for the caller to resolve scalar against the complete
//     Lambda bitset. Lambda is tiny for a correct protocol, so the scalar
//     fallback touches a vanishing fraction of the space.
//
// Filling is run-decomposed: the digit of process i is constant over runs
// of radix^i consecutive codes, so a window refill is O(n + runs) masked
// bulk writes (BasicSlicedSsrMin::fill_lanes), not kLanes scalar loads —
// and a process whose digit pattern is unchanged since the previous window
// (base mod radix^(i+1) unchanged) is skipped entirely, which keeps the
// kernel's compute() incremental across consecutive windows.
//
// The interface is type-erased (PhaseASlice) so ModelChecker::run stays
// generic; concrete slices are built by verify/phase_a_dispatch.cpp, which
// picks the widest lane word the CPU supports (u64 / AVX-512) via
// util::detect_lane_backend. Only the library's own checker factories
// install a slice: a checker constructed with custom legitimacy or
// privilege predicates must keep the scalar path, or the sliced sweep
// would silently answer a different question.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/bitplane.hpp"

namespace ssr::verify {

/// Phase A execution strategy (CheckOptions::phase_a).
enum class PhaseAMode {
  kAuto,    ///< sliced when the checker has a slice factory, else scalar
  kScalar,  ///< force the odometer walk (the differential baseline)
  kSliced,  ///< require the sliced path; error if no factory is installed
};

/// Which A2 checks to run and the token bounds to enforce (mirrors the
/// corresponding CheckOptions fields).
struct SliceQuery {
  bool check_deadlock = true;
  bool check_token = true;
  bool check_closure = true;
  std::size_t min_privileged = 1;
  std::size_t max_privileged = 2;
};

/// Accumulator a worker threads through its sweep() calls. Witness fields
/// hold the lowest code seen so far (UINT64_MAX = none); sweep() skips the
/// per-window witness search once a window starts past the current best.
struct SliceResult {
  std::uint64_t deadlock = UINT64_MAX;  ///< lowest deadlocked config
  std::uint64_t token = UINT64_MAX;     ///< lowest token-bound violation
  std::size_t min_priv = SIZE_MAX;      ///< min privileged over all configs
  /// Legitimate configurations with at least one enabled process, appended
  /// in ascending code order — the caller re-derives their successors
  /// scalar and tests them against the complete Lambda bitset.
  std::vector<std::uint64_t> closure_candidates;
};

/// One worker's bit-sliced Phase A engine. Not thread-safe; the checker
/// builds one per worker. Windows may arrive in any order (dynamic chunk
/// claiming), but consecutive bases are the common case the incremental
/// refill is tuned for.
class PhaseASlice {
 public:
  virtual ~PhaseASlice() = default;

  /// Lane count per window (64 / 512). Always a power of two that
  /// divides TwoLevelBitset::kBlockBits, so windows never straddle chunk
  /// boundaries except at the final total tail.
  virtual unsigned lanes() const = 0;
  /// Backend label for telemetry ("u64", "avx512").
  virtual const char* backend_name() const = 0;

  /// Legitimacy of configurations [base, base + count) as u64 words:
  /// bit l of out[j] is configuration base + 64 j + l. count <= lanes();
  /// bits at or past count are zero. base must be 64-aligned.
  virtual void legit_bits(std::uint64_t base, std::uint64_t count,
                          std::uint64_t* out) = 0;

  /// A2 sweep of configurations [base, base + count): merges deadlock and
  /// token witnesses and the privilege minimum into @p r, and appends
  /// closure candidates. base must be 64-aligned, count <= lanes().
  virtual void sweep(std::uint64_t base, std::uint64_t count,
                     const SliceQuery& q, SliceResult& r) = 0;
};

/// Builds one PhaseASlice per worker (called once per worker per run).
using PhaseASliceFactory = std::function<std::unique_ptr<PhaseASlice>()>;

/// Generic sliced Phase A over any bit-plane kernel exposing the batched
/// protocol surface (fill_lanes via @p Fill, compute, any_enabled_mask,
/// privileged_plane, legit_masks). @p Fill maps a dense digit in
/// [0, radix) to a masked kernel fill: fill(kernel, i, mask, digit).
template <typename Kernel, typename Fill>
class BasicPhaseASlice final : public PhaseASlice {
 public:
  using W = typename Kernel::Word;
  using Traits = util::LaneTraits<W>;
  static constexpr unsigned kLanes = Kernel::kLanes;

  BasicPhaseASlice(Kernel kernel, std::uint64_t radix, Fill fill,
                   const char* backend)
      : kernel_(std::move(kernel)),
        n_(kernel_.size()),
        radix_(radix),
        fill_(std::move(fill)),
        backend_(backend),
        cnt_(std::bit_width(n_), Traits::zero()) {
    SSR_REQUIRE(radix_ >= 2, "need at least two states per process");
    // Positional weights radix^0 .. radix^n; the codec already proved
    // radix^n fits u64 for any checkable space.
    weights_.reserve(n_ + 1);
    std::uint64_t w = 1;
    for (std::size_t i = 0; i < n_; ++i) {
      weights_.push_back(w);
      SSR_REQUIRE(w <= UINT64_MAX / radix_,
                  "configuration space exceeds 2^64");
      w *= radix_;
    }
    weights_.push_back(w);
  }

  unsigned lanes() const override { return kLanes; }
  const char* backend_name() const override { return backend_; }

  void legit_bits(std::uint64_t base, std::uint64_t count,
                  std::uint64_t* out) override {
    refill(base);
    const auto masks = kernel_.legit_masks();
    const std::uint64_t words = (count + 63) / 64;
    for (std::uint64_t j = 0; j < words; ++j) {
      out[j] = Traits::limb(masks.legitimate, static_cast<unsigned>(j));
    }
    // Tail lanes past count hold the wrapped configurations coded
    // base + l >= total; mask them off.
    const unsigned tail = static_cast<unsigned>(count & 63);
    if (tail != 0) out[words - 1] &= (std::uint64_t{1} << tail) - 1;
  }

  void sweep(std::uint64_t base, std::uint64_t count, const SliceQuery& q,
             SliceResult& r) override {
    refill(base);
    const W valid = Traits::range_mask(0, static_cast<unsigned>(count));
    const W any_en = kernel_.any_enabled_mask();

    if (q.check_deadlock && base < r.deadlock) {
      const W dead = valid & ~any_en;
      if (Traits::any(dead)) {
        r.deadlock = std::min(r.deadlock, base + first_lane(dead));
      }
    }

    count_privileged();
    r.min_priv = std::min(r.min_priv, min_count(valid));

    const auto masks = kernel_.legit_masks();
    const W legit = masks.legitimate & valid;
    if (!Traits::any(legit)) return;

    if (q.check_token && base < r.token) {
      const W viol = legit & (count_lt(q.min_privileged) |
                              count_gt(q.max_privileged));
      if (Traits::any(viol)) {
        r.token = std::min(r.token, base + first_lane(viol));
      }
    }
    if (q.check_closure) {
      Traits::for_each_lane(legit & any_en, [&](unsigned l) {
        r.closure_candidates.push_back(base + l);
      });
    }
  }

 private:
  /// Installs configurations base .. base + kLanes - 1 into the lanes.
  /// Process i's digit is ((base + l) / radix^i) mod radix — constant over
  /// runs of radix^i lanes, and as a function of base + l periodic with
  /// period radix^(i+1), so a process whose residue is unchanged since the
  /// previous refill is skipped (its planes already hold the right
  /// pattern) and the rest are written as masked runs.
  void refill(std::uint64_t base) {
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint64_t q = weights_[i + 1];
      if (has_prev_ && base % q == prev_ % q) continue;
      const std::uint64_t p = weights_[i];
      auto v = static_cast<std::uint32_t>((base / p) % radix_);
      unsigned l = 0;
      while (l < kLanes) {
        const std::uint64_t left = p - (base + l) % p;
        const auto run = static_cast<unsigned>(
            std::min<std::uint64_t>(kLanes - l, left));
        fill_(kernel_, i, Traits::range_mask(l, l + run), v);
        l += run;
        v = v + 1 == radix_ ? 0 : v + 1;
      }
    }
    prev_ = base;
    has_prev_ = true;
    kernel_.compute();
  }

  /// Lowest set lane of a nonempty word.
  static std::uint64_t first_lane(const W& w) {
    for (unsigned g = 0; g < Traits::kLimbs; ++g) {
      const std::uint64_t bits = Traits::limb(w, g);
      if (bits != 0) {
        return g * 64 +
               static_cast<std::uint64_t>(std::countr_zero(bits));
      }
    }
    SSR_ASSERT(false, "first_lane on an empty word");
    return 0;
  }

  /// Per-lane privileged-process counts as a vertical (bit-sliced) counter:
  /// cnt_[j] holds bit j of every lane's count. Ripple-carry add of each
  /// privileged plane; bit_width(n) planes suffice since counts <= n.
  void count_privileged() {
    for (W& c : cnt_) c = Traits::zero();
    for (std::size_t i = 0; i < n_; ++i) {
      W carry = kernel_.privileged_plane(i);
      for (std::size_t j = 0; j < cnt_.size() && Traits::any(carry); ++j) {
        const W t = cnt_[j] & carry;
        cnt_[j] ^= carry;
        carry = t;
      }
    }
  }

  /// Minimum counter value over the lanes of @p mask (nonempty), found
  /// MSB-first: if any candidate lane has bit j clear, the minimum does
  /// too, and lanes with it set stop being candidates.
  std::size_t min_count(const W& mask) const {
    W cand = mask;
    std::size_t val = 0;
    for (std::size_t j = cnt_.size(); j-- > 0;) {
      const W low = cand & ~cnt_[j];
      if (Traits::any(low)) {
        cand = low;
      } else {
        val |= std::size_t{1} << j;
      }
    }
    return val;
  }

  /// Lanes whose counter is < c (bit-sliced magnitude comparison).
  W count_lt(std::size_t c) const {
    if ((c >> cnt_.size()) != 0) return Traits::ones();  // every count < c
    W lt = Traits::zero();
    W eq = Traits::ones();
    for (std::size_t j = cnt_.size(); j-- > 0;) {
      if ((c >> j) & 1) {
        lt |= eq & ~cnt_[j];
        eq &= cnt_[j];
      } else {
        eq &= ~cnt_[j];
      }
    }
    return lt;
  }

  /// Lanes whose counter is > c.
  W count_gt(std::size_t c) const {
    if ((c >> cnt_.size()) != 0) return Traits::zero();  // no count > c
    W gt = Traits::zero();
    W eq = Traits::ones();
    for (std::size_t j = cnt_.size(); j-- > 0;) {
      if ((c >> j) & 1) {
        eq &= cnt_[j];
      } else {
        gt |= eq & cnt_[j];
        eq &= ~cnt_[j];
      }
    }
    return gt;
  }

  Kernel kernel_;
  std::size_t n_;
  std::uint64_t radix_;
  Fill fill_;
  const char* backend_;
  std::vector<W> cnt_;  ///< vertical privilege counter planes
  std::vector<std::uint64_t> weights_;  ///< radix^0 .. radix^n
  std::uint64_t prev_ = 0;
  bool has_prev_ = false;
};

}  // namespace ssr::verify
