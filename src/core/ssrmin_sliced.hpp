// Bit-sliced SSRmin kernel: 64 lanes, one per bit of a u64 plane word.
//
// The per-process state of Algorithm 3 is 2 + ceil(log2 K) bits (rts, tra,
// and the Dijkstra digit), so the whole protocol bit-slices: every plane
// word holds one bit of one process across 64 independent trials, and
// the five prioritized rules become straight-line bitwise expressions
// derived from SsrMinRing::enabled_rule. With G = G_i, f<ab>self/pred/succ
// the <rts.tra> flag tests, and priority made explicit (a plane only covers
// configurations no higher rule claims):
//
//   rule1 =  G & ~f10self
//   rule2 =  G &  f10self &  f01succ
//   rule4 =  G &  f10self & ~f01succ & ~(f00pred & f00succ)
//   rule3 = ~G &  f10pred & ~f01self
//   rule5 = ~G & ~f10pred & ~f00self
//
// (rule5's published guard overlaps rule 3; the plane above is the guard
// minus rule 3, which is what the scalar priority chain computes.) The
// planes are provably disjoint, and a differential test pins every plane
// against SsrMinRing::enabled_rule per lane per step.
//
// Legitimacy (Definition 1) is also evaluated bit-parallel: "exactly one
// guard" by the incrementally maintained per-lane guard counts, the
// Dijkstra x-part step shape by util::SlicedDigits::step_shape, and
// the flag families (a)-(c) by one AND-reduced word per process:
//
//   ok_i = (G_i & (f01 | f10))                        — the holder
//        | (~G_i & (f00 | (G_pred & f01 & f10pred)))  — others / shape (c)
//
// Plane maintenance is incremental, mirroring stab::Engine: a step that
// moves the lanes of processes in set M only dirties M and its ring
// neighbors, so compute() re-derives neq/G/rule words for those indices
// only. load_lane touches arbitrary planes and marks everything dirty;
// fill_lanes (the bulk run-decomposed fill the sliced Phase A uses) only
// dirties the touched process and its neighbors.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/ssrmin.hpp"
#include "core/state.hpp"
#include "util/assert.hpp"
#include "util/bitplane.hpp"

namespace ssr::core {

class SlicedSsrMin {
 public:
  using Ring = SsrMinRing;
  using Config = SsrConfig;

  static constexpr int kRuleCount = 5;

  explicit SlicedSsrMin(const SsrMinRing& ring)
      : ring_(ring),
        n_(ring.size()),
        digits_(n_, ring.modulus()),
        rts_(n_, 0),
        tra_(n_, 0),
        g_(n_, 0),
        enabled_(n_, 0),
        mx_(n_, 0),
        dirty_mark_(n_, 0) {
    for (auto& plane : rules_) plane.assign(n_, 0);
  }

  std::size_t size() const { return n_; }
  const SsrMinRing& ring() const { return ring_; }

  /// Installs a full scalar configuration into one lane. Marks every plane
  /// dirty (lane refill is rare; correctness beats incrementality here).
  void load_lane(unsigned lane, const Config& config) {
    SSR_REQUIRE(config.size() == n_, "configuration/ring size mismatch");
    const std::uint64_t bit = 1ULL << lane;
    for (std::size_t i = 0; i < n_; ++i) {
      digits_.set_lane(i, lane, config[i].x);
      rts_[i] = config[i].rts ? (rts_[i] | bit) : (rts_[i] & ~bit);
      tra_[i] = config[i].tra ? (tra_[i] | bit) : (tra_[i] & ~bit);
    }
    all_dirty_ = true;
  }

  /// Bulk masked write of one process's state: every lane in `mask` takes
  /// digit `x` and flags `rts`/`tra`. Dirties only the process and its
  /// ring neighbors, so a run-decomposed refill (sliced Phase A) keeps
  /// compute() incremental. Flags outside the mask are untouched.
  void fill_lanes(std::size_t i, std::uint64_t mask, std::uint32_t x, bool rts,
                  bool tra) {
    digits_.set_lanes_masked(i, mask, x);
    rts_[i] = rts ? (rts_[i] | mask) : (rts_[i] & ~mask);
    tra_[i] = tra ? (tra_[i] | mask) : (tra_[i] & ~mask);
    mark_dirty(i == 0 ? n_ - 1 : i - 1);
    mark_dirty(i);
    mark_dirty(i + 1 == n_ ? 0 : i + 1);
  }

  /// Reads one lane back out as a scalar configuration.
  Config extract_lane(unsigned lane) const {
    Config config(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      config[i].x = digits_.get_lane(i, lane);
      config[i].rts = (rts_[i] >> lane) & 1u;
      config[i].tra = (tra_[i] >> lane) & 1u;
    }
    return config;
  }

  /// Re-derives the neq/G/rule planes for every index dirtied since the
  /// last compute (or all of them after construction/load_lane). Must be
  /// called before enabled()/rule()/legit_masks() and between apply()s.
  void compute() {
    enabled_changes_.clear();
    if (all_dirty_) {
      for (std::size_t i = 0; i < n_; ++i) refresh_guard(i);
      for (std::size_t i = 0; i < n_; ++i) refresh_rules(i);
      all_dirty_ = false;
      full_rebuild_ = true;
      recount();
    } else {
      full_rebuild_ = false;
      for (std::size_t i : dirty_) {
        const std::uint64_t old = g_[i];
        refresh_guard(i);
        bump(g_count_, old, g_[i]);
      }
      for (std::size_t i : dirty_) {
        const std::uint64_t old = enabled_[i];
        refresh_rules(i);
        const std::uint64_t diff = old ^ enabled_[i];
        if (diff != 0) {
          bump(en_count_, old, enabled_[i]);
          enabled_changes_.emplace_back(i, diff);
        }
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

  /// Forces the next compute() to rebuild every plane; the incremental-vs-
  /// full differential test uses this as its oracle switch.
  void mark_all_dirty() { all_dirty_ = true; }

  /// Lanewise "some rule enabled" per process (n words).
  const std::vector<std::uint64_t>& enabled() const { return enabled_; }

  /// Enabled-process count of one lane, maintained incrementally from the
  /// plane diffs (fresh after compute()). O(1) per query — this is what
  /// keeps the per-step daemon bookkeeping off the O(n) plane passes.
  std::uint32_t enabled_count(unsigned lane) const { return en_count_[lane]; }

  /// Lanewise "at least one process enabled" mask, derived from the
  /// per-lane counts (64 reads instead of an n-word OR pass).
  std::uint64_t any_enabled_mask() const {
    return util::lanes_where(en_count_.data(),
                             [](std::uint32_t c) { return c != 0; });
  }

  /// Lanewise plane of rule r (1..5) per process.
  const std::vector<std::uint64_t>& rule(int r) const {
    SSR_REQUIRE(r >= 1 && r <= kRuleCount, "SSRmin rule id out of range");
    return rules_[static_cast<std::size_t>(r - 1)];
  }

  /// Lanewise G_i planes (fresh after compute()).
  const std::vector<std::uint64_t>& guards() const { return g_; }

  /// Lanewise "P_i holds a token" (Definition 2: the primary guard or a
  /// secondary handover flag): G_i | tra_i | (rts_i & f00succ). Fresh
  /// after compute(); the sliced Phase A transposes these planes to count
  /// privileged processes per configuration lane.
  std::uint64_t privileged_plane(std::size_t i) const {
    const std::size_t s = i + 1 == n_ ? 0 : i + 1;
    const std::uint64_t f00succ = ~(rts_[s] | tra_[s]);
    return g_[i] | tra_[i] | (rts_[i] & f00succ);
  }

  /// One composite-atomicity step: sel[i] is the lane mask of processes
  /// moving at i. Every selected (process, lane) must be enabled per the
  /// planes of the last compute(); all reads are pre-step.
  void apply(const std::vector<std::uint64_t>& sel) {
    SSR_REQUIRE(sel.size() == n_, "selection/ring size mismatch");
    moved_.clear();
    for (std::size_t i = 0; i < n_; ++i) {
      if (sel[i] != 0) moved_.push_back(i);
    }
    for (std::size_t i : moved_) {
      const std::uint64_t s = sel[i];
      SSR_ASSERT((s & ~enabled_[i]) == 0,
                 "selected a disabled (process, lane)");
      // Rules 2..5 clear both flags; rule 1 sets <1.0>, rule 3 sets <0.1>.
      rts_[i] = (rts_[i] & ~s) | (s & rules_[0][i]);
      tra_[i] = (tra_[i] & ~s) | (s & rules_[2][i]);
      // Rules 2 and 4 additionally run C_i.
      mx_[i] = s & (rules_[1][i] | rules_[3][i]);
    }
    digits_.apply_command(mx_.data());
    for (std::size_t i : moved_) {
      mx_[i] = 0;
      mark_dirty(i == 0 ? n_ - 1 : i - 1);
      mark_dirty(i);
      mark_dirty(i + 1 == n_ ? 0 : i + 1);
    }
  }

  struct LegitMasks {
    std::uint64_t milestone = 0;   ///< dijkstra_part_legitimate per lane
    std::uint64_t legitimate = 0;  ///< Definition 1 per lane
  };

  /// Lanewise legitimacy of the current planes (fresh after compute()).
  /// "Exactly one guard" comes from the incrementally maintained per-lane
  /// guard counts (64 reads, not an n-word vertical counter); the
  /// expensive x-shape and flag reductions only run for lanes that pass
  /// it, which is rare before convergence.
  LegitMasks legit_masks() const {
    const std::uint64_t one = util::lanes_where(
        g_count_.data(), [](std::uint32_t c) { return c == 1; });
    if (one == 0) return {};
    LegitMasks masks;
    masks.milestone = digits_.step_shape(one);
    std::uint64_t ok = masks.milestone;
    for (std::size_t i = 0; i < n_ && ok != 0; ++i) {
      const std::size_t p = i == 0 ? n_ - 1 : i - 1;
      const std::uint64_t f01 = ~rts_[i] & tra_[i];
      const std::uint64_t f10 = rts_[i] & ~tra_[i];
      const std::uint64_t f00 = ~(rts_[i] | tra_[i]);
      const std::uint64_t f10p = rts_[p] & ~tra_[p];
      ok &= (g_[i] & (f01 | f10)) | (~g_[i] & (f00 | (g_[p] & f01 & f10p)));
    }
    masks.legitimate = ok;
    return masks;
  }

 private:
  void refresh_guard(std::size_t i) {
    digits_.update_neq(i);
    g_[i] = i == 0 ? ~digits_.neq(0) : digits_.neq(i);
  }

  void refresh_rules(std::size_t i) {
    const std::size_t p = i == 0 ? n_ - 1 : i - 1;
    const std::size_t s = i + 1 == n_ ? 0 : i + 1;
    const std::uint64_t g = g_[i];
    const std::uint64_t f10self = rts_[i] & ~tra_[i];
    const std::uint64_t f01self = ~rts_[i] & tra_[i];
    const std::uint64_t f00self = ~(rts_[i] | tra_[i]);
    const std::uint64_t f10pred = rts_[p] & ~tra_[p];
    const std::uint64_t f00pred = ~(rts_[p] | tra_[p]);
    const std::uint64_t f01succ = ~rts_[s] & tra_[s];
    const std::uint64_t f00succ = ~(rts_[s] | tra_[s]);
    const std::uint64_t r1 = g & ~f10self;
    const std::uint64_t r2 = g & f10self & f01succ;
    const std::uint64_t r4 = g & f10self & ~f01succ & ~(f00pred & f00succ);
    const std::uint64_t r3 = ~g & f10pred & ~f01self;
    const std::uint64_t r5 = ~g & ~f10pred & ~f00self;
    rules_[0][i] = r1;
    rules_[1][i] = r2;
    rules_[2][i] = r3;
    rules_[3][i] = r4;
    rules_[4][i] = r5;
    enabled_[i] = r1 | r2 | r3 | r4 | r5;
  }

  void mark_dirty(std::size_t i) {
    if (all_dirty_ || dirty_mark_[i]) return;
    dirty_mark_[i] = 1;
    dirty_.push_back(i);
  }

  /// Applies a one-word plane change to a per-lane count array.
  static void bump(std::array<std::uint32_t, util::kLanes>& count,
                   std::uint64_t before, std::uint64_t after) {
    util::for_each_lane(after & ~before,
                          [&](unsigned lane) { ++count[lane]; });
    util::for_each_lane(before & ~after,
                          [&](unsigned lane) { --count[lane]; });
  }

  /// Full recount after an all-dirty rebuild (lane loads are rare).
  void recount() {
    g_count_.fill(0);
    en_count_.fill(0);
    for (std::size_t i = 0; i < n_; ++i) {
      util::for_each_lane(g_[i], [&](unsigned lane) { ++g_count_[lane]; });
      util::for_each_lane(enabled_[i],
                            [&](unsigned lane) { ++en_count_[lane]; });
    }
  }

  SsrMinRing ring_;  // small value type; copied so the kernel is movable
  std::size_t n_;
  util::SlicedDigits digits_;
  std::vector<std::uint64_t> rts_;
  std::vector<std::uint64_t> tra_;
  std::vector<std::uint64_t> g_;
  std::vector<std::uint64_t> rules_[kRuleCount];
  std::vector<std::uint64_t> enabled_;
  // Per-lane guard / enabled-process counts, kept in lockstep with the
  // planes by compute() (diff-bumped incrementally, recounted on loads).
  std::array<std::uint32_t, util::kLanes> g_count_{};
  std::array<std::uint32_t, util::kLanes> en_count_{};
  std::vector<std::pair<std::size_t, std::uint64_t>> enabled_changes_;
  bool full_rebuild_ = false;
  // Scratch: C_i lane masks (kept zeroed between steps) and the dirty set.
  std::vector<std::uint64_t> mx_;
  std::vector<std::uint8_t> dirty_mark_;
  std::vector<std::size_t> dirty_;
  std::vector<std::size_t> moved_;
  bool all_dirty_ = true;
};

}  // namespace ssr::core
