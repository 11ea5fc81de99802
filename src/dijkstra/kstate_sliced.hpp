// Bit-sliced Dijkstra K-state kernel: 64 lanes, one per bit of a u64 plane
// word.
//
// The K-state protocol is the degenerate case of the sliced SSRmin kernel:
// one rule ("if G_i then C_i"), no flag planes. It exists so the batched
// benches can run their Dijkstra baselines through the same sim::BatchEngine
// harness, and so the differential tests cover two protocols, not one.
//
// Legitimacy bit-parallel: is_legitimate (all equal, or a single +1 step)
// is exactly "exactly one guard holds" AND "every x_i != x_{i-1} boundary
// at i >= 1 steps by +1 mod K" — the incremental per-lane counts plus
// util::SlicedDigits::step_shape reduction SSRmin uses for its x-part.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dijkstra/kstate.hpp"
#include "util/assert.hpp"
#include "util/bitplane.hpp"

namespace ssr::dijkstra {

class SlicedKState {
 public:
  using Ring = KStateRing;
  using Config = KStateConfig;

  static constexpr int kRuleCount = 1;

  explicit SlicedKState(const KStateRing& ring)
      : ring_(ring),
        n_(ring.size()),
        digits_(n_, ring.modulus()),
        enabled_(n_, 0),
        dirty_mark_(n_, 0) {}

  std::size_t size() const { return n_; }
  const KStateRing& ring() const { return ring_; }

  void load_lane(unsigned lane, const Config& config) {
    SSR_REQUIRE(config.size() == n_, "configuration/ring size mismatch");
    for (std::size_t i = 0; i < n_; ++i) digits_.set_lane(i, lane, config[i].x);
    all_dirty_ = true;
  }

  /// Bulk masked write of one process's counter: every lane in `mask`
  /// takes digit `x`. Dirties only the process and its successor (the two
  /// guards reading x_i), so a run-decomposed refill (sliced Phase A)
  /// keeps compute() incremental.
  void fill_lanes(std::size_t i, std::uint64_t mask, std::uint32_t x) {
    digits_.set_lanes_masked(i, mask, x);
    mark_dirty(i);
    mark_dirty(i + 1 == n_ ? 0 : i + 1);
  }

  Config extract_lane(unsigned lane) const {
    Config config(n_);
    for (std::size_t i = 0; i < n_; ++i) config[i].x = digits_.get_lane(i, lane);
    return config;
  }

  void compute() {
    enabled_changes_.clear();
    if (all_dirty_) {
      for (std::size_t i = 0; i < n_; ++i) refresh_guard(i);
      all_dirty_ = false;
      full_rebuild_ = true;
      en_count_.fill(0);
      for (std::size_t i = 0; i < n_; ++i) {
        util::for_each_lane(enabled_[i],
                              [&](unsigned lane) { ++en_count_[lane]; });
      }
    } else {
      full_rebuild_ = false;
      for (std::size_t i : dirty_) {
        const std::uint64_t old = enabled_[i];
        refresh_guard(i);
        const std::uint64_t diff = old ^ enabled_[i];
        if (diff == 0) continue;
        enabled_changes_.emplace_back(i, diff);
        util::for_each_lane(enabled_[i] & ~old,
                              [&](unsigned lane) { ++en_count_[lane]; });
        util::for_each_lane(old & ~enabled_[i],
                              [&](unsigned lane) { --en_count_[lane]; });
      }
    }
    for (std::size_t i : dirty_) dirty_mark_[i] = 0;
    dirty_.clear();
  }

  /// True iff the last compute() rebuilt every plane (enabled_changes()
  /// is then meaningless and any cached transposition must be redone).
  bool full_rebuild() const { return full_rebuild_; }

  /// (index, old XOR new) pairs for every enabled-plane word the last
  /// incremental compute() changed — what lets BatchEngine patch its
  /// lane-major bitmaps in O(changed bits) instead of re-transposing.
  const std::vector<std::pair<std::size_t, std::uint64_t>>& enabled_changes()
      const {
    return enabled_changes_;
  }

  void mark_all_dirty() { all_dirty_ = true; }

  /// Lanewise G_i — identically the enabled plane (the single rule).
  const std::vector<std::uint64_t>& enabled() const { return enabled_; }

  /// Per-lane token (= enabled) count, maintained incrementally.
  std::uint32_t enabled_count(unsigned lane) const { return en_count_[lane]; }

  /// Lanewise "P_i holds the token" — for K-state that is the guard plane
  /// itself; named to match the SSRmin kernel for the sliced Phase A.
  std::uint64_t privileged_plane(std::size_t i) const { return enabled_[i]; }

  /// Lanewise "at least one process enabled", from the per-lane counts.
  std::uint64_t any_enabled_mask() const {
    return util::lanes_where(en_count_.data(),
                             [](std::uint32_t c) { return c != 0; });
  }

  const std::vector<std::uint64_t>& rule(int r) const {
    SSR_REQUIRE(r == KStateRing::kRule, "K-state has a single rule");
    return enabled_;
  }

  void apply(const std::vector<std::uint64_t>& sel) {
    SSR_REQUIRE(sel.size() == n_, "selection/ring size mismatch");
    digits_.apply_command(sel.data());
    for (std::size_t i = 0; i < n_; ++i) {
      if (sel[i] == 0) continue;
      SSR_ASSERT((sel[i] & ~enabled_[i]) == 0,
                 "selected a disabled (process, lane)");
      mark_dirty(i);
      mark_dirty(i + 1 == n_ ? 0 : i + 1);
    }
  }

  struct LegitMasks {
    std::uint64_t milestone = 0;   ///< same as legitimate for K-state
    std::uint64_t legitimate = 0;  ///< dijkstra::is_legitimate per lane
  };

  LegitMasks legit_masks() const {
    // "Exactly one token" straight from the incremental per-lane counts.
    const std::uint64_t one = util::lanes_where(
        en_count_.data(), [](std::uint32_t c) { return c == 1; });
    if (one == 0) return {};
    const std::uint64_t legit = digits_.step_shape(one);
    return {legit, legit};
  }

 private:
  void refresh_guard(std::size_t i) {
    digits_.update_neq(i);
    enabled_[i] = i == 0 ? ~digits_.neq(0) : digits_.neq(i);
  }

  void mark_dirty(std::size_t i) {
    if (all_dirty_ || dirty_mark_[i]) return;
    dirty_mark_[i] = 1;
    dirty_.push_back(i);
  }

  KStateRing ring_;  // small value type; copied so the kernel is movable
  std::size_t n_;
  util::SlicedDigits digits_;
  std::vector<std::uint64_t> enabled_;
  // Per-lane enabled counts.
  std::array<std::uint32_t, util::kLanes> en_count_{};
  std::vector<std::pair<std::size_t, std::uint64_t>> enabled_changes_;
  std::vector<std::uint8_t> dirty_mark_;
  std::vector<std::size_t> dirty_;
  bool all_dirty_ = true;
  bool full_rebuild_ = false;
};

}  // namespace ssr::dijkstra
