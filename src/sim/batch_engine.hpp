// sim::BatchEngine — step 64 Monte-Carlo trials at a time, one per bit of
// a u64 plane word.
//
// A bit-sliced kernel (core::SlicedSsrMin, dijkstra::SlicedKState) holds
// 64 independent trials ("lanes") as bit planes; BatchEngine drives the
// daemon side: per-lane scheduler state, per-lane RNG streams, an
// active-lane mask for retiring converged trials, and continuous refill
// from the trial queue.
//
// The load-bearing contract is *bit-identical lanes*: lane l of a batched
// run consumes exactly the trial_rng(seed, t) stream the scalar path does —
// same draw order (random_config first, then one split() for the daemon),
// same per-step daemon draws (see step()) — so every lane's step trace
// equals a scalar stab::Engine run of the same trial, and batched sweep
// tables are byte-identical to scalar ones at any worker count (the
// trial->stream mapping never depends on which lane or block the trial
// lands in). A differential test (tests/test_batch_engine.cpp) pins this
// across protocols x daemons x ring sizes x seeds.
//
// Parallelism composes, not competes: one BatchEngine block per TrialSweep
// unit, so `--threads` multiplies the per-word win.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweep.hpp"
#include "stabilizing/engine.hpp"
#include "util/assert.hpp"
#include "util/bitplane.hpp"
#include "util/rng.hpp"

namespace ssr::sim {

/// The daemon flavors a lane can replay. Mirrors stab::make_daemon plus the
/// rule-avoiding adversary bench_lemma5 constructs directly.
enum class LaneDaemonKind {
  kCentralRoundRobin,
  kCentralRandom,
  kSynchronous,
  kRandomSubset,
  kRuleAvoiding,
  kMaxIndex,
};

struct LaneDaemonSpec {
  LaneDaemonKind kind = LaneDaemonKind::kCentralRandom;
  double subset_p = 0.5;        ///< kRandomSubset acceptance probability
  std::vector<int> avoid_rules; ///< kRuleAvoiding avoided rule ids
};

/// True iff the named stab::make_daemon daemon has a lane replay (the
/// --batched legality test; adversary-starving has none, and new daemons
/// default to scalar until a replay is added and differentially pinned).
bool batch_daemon_supported(const std::string& name);

/// The lane spec replaying make_daemon(name, rng). REQUIREs supported.
LaneDaemonSpec lane_daemon_spec(const std::string& name);

/// Spec replaying stab::RuleAvoidingDaemon{rng, avoid_rules}.
LaneDaemonSpec rule_avoiding_spec(std::vector<int> avoid_rules);

/// A contiguous range of trial indices, the unit handed to one TrialSweep
/// worker (one BatchEngine per block; > 64 trials exercise lane refill).
struct BlockRange {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

/// Splits `trials` into contiguous blocks: enough to feed `workers`, few
/// enough that blocks exceed one 64-lane generation where possible (so
/// refill actually happens and per-block fixed costs amortize). The split
/// depends only on (trials, workers); per-trial determinism never depends
/// on the blocking. `lanes` only keeps the benchmark harness (perfbench/)
/// source-compatible; the library never passes it.
std::vector<BlockRange> plan_blocks(std::uint64_t trials, std::size_t workers,
                                    unsigned lanes = util::kLanes);

template <typename Kernel>
class BatchEngine {
 public:
  using Config = typename Kernel::Config;

  BatchEngine(Kernel kernel, LaneDaemonSpec spec)
      : kernel_(std::move(kernel)),
        spec_(std::move(spec)),
        n_(kernel_.size()),
        words_((n_ + 63) / 64),
        sel_(n_, 0),
        lane_bits_(util::kLanes * words_, 0),
        pref_bits_(spec_.kind == LaneDaemonKind::kRuleAvoiding
                       ? util::kLanes * words_
                       : 0,
                   0),
        pref_plane_(spec_.kind == LaneDaemonKind::kRuleAvoiding ? n_ : 0,
                    0) {}

  std::size_t size() const { return n_; }
  const Kernel& kernel() const { return kernel_; }
  Kernel& kernel() { return kernel_; }

  /// Mask of lanes currently carrying a live trial.
  std::uint64_t active() const { return active_; }

  /// Installs a trial into a lane: the scalar-path equivalent of
  /// constructing the engine from `config` and make_daemon(..., rng).
  /// Resets the lane's step/move/forced counters and scheduler state.
  void load_lane(unsigned lane, const Config& config, Rng daemon_rng) {
    SSR_REQUIRE(lane < util::kLanes, "lane index out of range");
    kernel_.load_lane(lane, config);
    lanes_[lane] = LaneState{};
    lanes_[lane].rng = daemon_rng;
    active_ |= 1ULL << lane;
  }

  /// Removes a finished trial from the active mask (its planes become
  /// garbage until the lane is reloaded).
  void retire_lane(unsigned lane) { active_ &= ~(1ULL << lane); }

  /// Recomputes the kernel planes and the per-lane enabled bitmaps. Must
  /// be called after load_lane/step and before any_enabled/legit/step.
  void refresh() {
    kernel_.compute();
    const auto& en = kernel_.enabled();
    any_enabled_ = kernel_.any_enabled_mask();
    // Synchronous selection is plane-parallel and the per-lane move
    // accounting comes from the kernel counts, so only daemons that pick
    // individual processes need the lane-major bitmaps. Those are only
    // transposed in full when the kernel rebuilt every plane (lane loads);
    // a normal step touches O(moved lanes) plane words, and the kernel's
    // change list lets us XOR-patch just those bits.
    if (spec_.kind != LaneDaemonKind::kSynchronous) {
      if (kernel_.full_rebuild()) {
        transpose_planes(en.data(), lane_bits_.data());
      } else {
        for (const auto& [i, diff] : kernel_.enabled_changes()) {
          const std::size_t w = i >> 6;
          const std::uint64_t bit = 1ULL << (i & 63);
          util::for_each_lane(diff, [&](unsigned lane) {
            lane_bits_[static_cast<std::size_t>(lane) * words_ + w] ^= bit;
          });
        }
      }
    }
    if (spec_.kind == LaneDaemonKind::kRuleAvoiding) {
      for (std::size_t i = 0; i < n_; ++i) {
        std::uint64_t avoided = 0;
        for (int r : spec_.avoid_rules) avoided |= kernel_.rule(r)[i];
        pref_plane_[i] = en[i] & ~avoided;
      }
      transpose_planes(pref_plane_.data(), pref_bits_.data());
    }
  }

  /// Lanewise "at least one process enabled" (a zero bit means the lane's
  /// trial is deadlocked). Valid after refresh().
  std::uint64_t any_enabled() const { return any_enabled_; }

  /// Lanewise legitimacy masks, forwarded from the kernel.
  auto legit_masks() const { return kernel_.legit_masks(); }

  /// One daemon step for every lane in `mask` (each must be active with at
  /// least one enabled process). Replays the scalar daemon draw-for-draw:
  ///   central-random:  one below(enabled_count), pick the k-th enabled;
  ///   random-subset:   one bernoulli(p) per enabled id ascending, then a
  ///                    below(count) fallback if none accepted;
  ///   rule-avoiding:   below over preferred ids if any, else a forced
  ///                    below over all enabled;
  ///   round-robin / max-index / synchronous: no draws.
  void step(std::uint64_t mask) {
    SSR_REQUIRE(mask != 0, "a batched step must move at least one lane");
    SSR_REQUIRE((mask & ~active_) == 0, "stepping an inactive lane");
    for (std::size_t i : touched_) sel_[i] = 0;
    touched_.clear();
    if (spec_.kind == LaneDaemonKind::kSynchronous) {
      const auto& en = kernel_.enabled();
      for (std::size_t i = 0; i < n_; ++i) {
        const std::uint64_t s = en[i] & mask;
        if (s != 0) {
          sel_[i] = s;
          touched_.push_back(i);
        }
      }
      util::for_each_lane(mask, [&](unsigned lane) {
        lanes_[lane].moves += kernel_.enabled_count(lane);
      });
    } else {
      util::for_each_lane(mask,
                            [&](unsigned lane) { select_for_lane(lane); });
    }
    kernel_.apply(sel_);
    util::for_each_lane(mask, [&](unsigned lane) { ++lanes_[lane].steps; });
  }

  /// Lane mask of lanes whose *last step* executed one of the given rules
  /// (bench_lemma5's gap metric). Valid between step() and the next
  /// refresh(): it reads the pre-step rule planes the step selected from.
  std::uint64_t last_moved_mask(std::initializer_list<int> rules) const {
    std::uint64_t acc = 0;
    for (std::size_t i : touched_) {
      std::uint64_t plane = 0;
      for (int r : rules) plane |= kernel_.rule(r)[i];
      acc |= sel_[i] & plane;
    }
    return acc;
  }

  /// Reads one lane back as a scalar configuration.
  Config extract_lane(unsigned lane) const { return kernel_.extract_lane(lane); }

  /// Daemon steps taken by the lane since its load_lane.
  std::uint64_t steps(unsigned lane) const { return lanes_[lane].steps; }
  /// Process moves executed by the lane since its load_lane.
  std::uint64_t moves(unsigned lane) const { return lanes_[lane].moves; }
  /// Rule-avoiding forced steps (every enabled process had an avoided
  /// rule) since the lane's load_lane.
  std::uint64_t forced_steps(unsigned lane) const { return lanes_[lane].forced; }

 private:
  struct LaneState {
    Rng rng{0};
    std::size_t cursor = 0;  // round-robin scan position
    std::uint64_t steps = 0;
    std::uint64_t moves = 0;
    std::uint64_t forced = 0;
  };

  const std::uint64_t* row(unsigned lane) const {
    return &lane_bits_[lane * words_];
  }

  /// Process-major planes -> lane-major bitmaps, one 64x64 transpose per
  /// word column. Rows past n_ are zero, so per-lane bitmaps never carry
  /// phantom processes.
  void transpose_planes(const std::uint64_t* planes, std::uint64_t* out) {
    std::uint64_t tmp[64];
    for (std::size_t w = 0; w < words_; ++w) {
      const std::size_t base = w * 64;
      const std::size_t rows = n_ - base < 64 ? n_ - base : 64;
      for (std::size_t r = 0; r < rows; ++r) tmp[r] = planes[base + r];
      for (std::size_t r = rows; r < 64; ++r) tmp[r] = 0;
      util::transpose64(tmp);
      for (unsigned l = 0; l < 64; ++l) out[l * words_ + w] = tmp[l];
    }
  }

  std::uint64_t row_count(const std::uint64_t* bits) const {
    std::uint64_t count = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      count += static_cast<std::uint64_t>(std::popcount(bits[w]));
    }
    return count;
  }

  /// Index of the k-th set bit (ascending) of a lane bitmap.
  std::size_t select_kth(const std::uint64_t* bits, std::uint64_t k) const {
    for (std::size_t w = 0; w < words_; ++w) {
      const auto count = static_cast<std::uint64_t>(std::popcount(bits[w]));
      if (k < count) {
        std::uint64_t word = bits[w];
        for (; k != 0; --k) word &= word - 1;
        return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      }
      k -= count;
    }
    SSR_ASSERT(false, "lane bitmap rank out of range");
  }

  /// First set bit at or cyclically after `start` (round-robin scan).
  std::size_t first_from(const std::uint64_t* bits, std::size_t start) const {
    std::size_t w = start / 64;
    const unsigned off = start % 64;
    std::uint64_t word = bits[w] & (~0ULL << off);
    // words_ + 1 slots: the start word is revisited in full after the wrap.
    for (std::size_t slot = 0; slot <= words_; ++slot) {
      if (word != 0) return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      w = w + 1 == words_ ? 0 : w + 1;
      word = bits[w];
    }
    SSR_ASSERT(false, "round-robin scan found no enabled process");
  }

  std::size_t highest(const std::uint64_t* bits) const {
    for (std::size_t w = words_; w-- > 0;) {
      if (bits[w] != 0) {
        return w * 64 + 63 - static_cast<std::size_t>(std::countl_zero(bits[w]));
      }
    }
    SSR_ASSERT(false, "max-index scan found no enabled process");
  }

  void mark(std::size_t i, std::uint64_t lane_bit) {
    if (sel_[i] == 0) touched_.push_back(i);
    sel_[i] |= lane_bit;
  }

  void select_for_lane(unsigned lane) {
    const std::uint64_t lane_bit = 1ULL << lane;
    const std::uint64_t* enabled = row(lane);
    LaneState& state = lanes_[lane];
    switch (spec_.kind) {
      case LaneDaemonKind::kCentralRoundRobin: {
        const std::size_t id = first_from(enabled, state.cursor);
        state.cursor = id + 1 == n_ ? 0 : id + 1;
        mark(id, lane_bit);
        state.moves += 1;
        break;
      }
      case LaneDaemonKind::kCentralRandom: {
        const std::uint64_t k = state.rng.below(kernel_.enabled_count(lane));
        mark(select_kth(enabled, k), lane_bit);
        state.moves += 1;
        break;
      }
      case LaneDaemonKind::kRandomSubset: {
        std::uint64_t total = 0;
        std::uint64_t accepted = 0;
        for (std::size_t w = 0; w < words_; ++w) {
          std::uint64_t word = enabled[w];
          while (word != 0) {
            const auto b = static_cast<std::size_t>(std::countr_zero(word));
            word &= word - 1;
            ++total;
            if (state.rng.bernoulli(spec_.subset_p)) {
              mark(w * 64 + b, lane_bit);
              ++accepted;
            }
          }
        }
        if (accepted == 0) {
          mark(select_kth(enabled, state.rng.below(total)), lane_bit);
        }
        state.moves += accepted != 0 ? accepted : 1;
        break;
      }
      case LaneDaemonKind::kRuleAvoiding: {
        const std::uint64_t* preferred = &pref_bits_[lane * words_];
        const std::uint64_t preferred_count = row_count(preferred);
        if (preferred_count != 0) {
          mark(select_kth(preferred, state.rng.below(preferred_count)),
               lane_bit);
        } else {
          ++state.forced;
          mark(select_kth(enabled,
                          state.rng.below(kernel_.enabled_count(lane))),
               lane_bit);
        }
        state.moves += 1;
        break;
      }
      case LaneDaemonKind::kMaxIndex:
        mark(highest(enabled), lane_bit);
        state.moves += 1;
        break;
      case LaneDaemonKind::kSynchronous:
        SSR_ASSERT(false, "synchronous selection is plane-parallel");
    }
  }

  Kernel kernel_;
  LaneDaemonSpec spec_;
  std::size_t n_;
  std::size_t words_;
  std::uint64_t active_ = 0;
  std::uint64_t any_enabled_ = 0;
  std::array<LaneState, util::kLanes> lanes_{};
  // Per-process lane masks of the current selection; only touched_ entries
  // are nonzero (cleared lazily at the next step to keep O(moved) cost).
  std::vector<std::uint64_t> sel_;
  std::vector<std::size_t> touched_;
  std::vector<std::uint64_t> lane_bits_;   // lane-major enabled bitmaps
  std::vector<std::uint64_t> pref_bits_;   // lane-major non-avoided bitmaps
  std::vector<std::uint64_t> pref_plane_;  // process-major scratch
};

/// Outcome of one batched convergence trial (mirrors the scalar bench
/// composition: an optional milestone leg, then the final leg).
struct BatchTrialOutcome {
  stab::RunResult milestone;  ///< first leg (two-phase runs only)
  stab::RunResult result;     ///< final (or only) leg
};

/// Runs one block of convergence trials through a BatchEngine, replaying
/// the scalar recipe per lane: config = random_config(ring, trial_rng(seed,
/// t)), daemon rng = one split() of the same stream, then stab::run_until
/// semantics (predicate before each step, budget `max_steps` per leg,
/// deadlock detection). Two-phase runs measure the dijkstra-part milestone
/// leg first and always run the legitimacy leg after it, each with the
/// full budget — exactly the scalar bench_convergence composition.
/// Finished lanes retire and refill from the block's remaining trials.
template <typename Kernel>
std::vector<BatchTrialOutcome> run_convergence_block(
    const typename Kernel::Ring& ring, const LaneDaemonSpec& spec,
    std::uint64_t seed, BlockRange block, std::uint64_t max_steps,
    bool two_phase) {
  std::vector<BatchTrialOutcome> out(block.count);
  if (block.count == 0) return out;
  BatchEngine<Kernel> engine{Kernel(ring), spec};
  struct Slot {
    std::uint64_t trial = 0;
    int phase = 0;
    std::uint64_t leg_steps = 0;
    std::uint64_t leg_moves0 = 0;
  };
  std::array<Slot, util::kLanes> slots{};
  std::uint64_t next = 0;
  const auto load_next = [&](unsigned lane) {
    const std::uint64_t trial = block.first + next++;
    Rng rng = trial_rng(seed, trial);
    auto config = random_config(ring, rng);  // ADL: core:: or dijkstra::
    engine.load_lane(lane, config, rng.split());
    slots[lane] = Slot{trial, 0, 0, 0};
  };
  for (unsigned lane = 0; lane < util::kLanes && next < block.count; ++lane) {
    load_next(lane);
  }
  while (engine.active() != 0) {
    engine.refresh();
    const auto legit = engine.legit_masks();
    const std::uint64_t runnable = engine.any_enabled();
    std::uint64_t step_mask = 0;
    bool refilled = false;
    // Iterate a snapshot: retire_lane/load_lane mutate the live mask.
    const std::uint64_t active_lanes = engine.active();
    util::for_each_lane(active_lanes, [&](unsigned lane) {
      Slot& slot = slots[lane];
      bool finished = false;
      for (;;) {
        const bool milestone_leg = two_phase && slot.phase == 0;
        const bool done = milestone_leg ? ((legit.milestone >> lane) & 1u)
                                        : ((legit.legitimate >> lane) & 1u);
        stab::RunResult leg;
        if (done) {
          leg.reached = true;
        } else if (slot.leg_steps == max_steps) {
          // budget exhausted: leg ends unreached, not deadlocked
        } else if (!((runnable >> lane) & 1u)) {
          leg.deadlocked = true;
        } else {
          step_mask |= 1ULL << lane;
          break;
        }
        leg.steps = slot.leg_steps;
        leg.moves = engine.moves(lane) - slot.leg_moves0;
        if (milestone_leg) {
          out[slot.trial - block.first].milestone = leg;
          slot.phase = 1;
          slot.leg_steps = 0;
          slot.leg_moves0 = engine.moves(lane);
          continue;  // the final leg starts from this same configuration
        }
        out[slot.trial - block.first].result = leg;
        finished = true;
        break;
      }
      if (finished) {
        engine.retire_lane(lane);
        if (next < block.count) {
          load_next(lane);
          refilled = true;
        }
      }
    });
    // Fresh lanes need their planes computed before anyone steps; the
    // discarded step_mask re-derives identically next iteration (leg
    // counters only advance on an actual step).
    if (refilled) continue;
    if (step_mask != 0) {
      engine.step(step_mask);
      util::for_each_lane(step_mask,
                            [&](unsigned lane) { ++slots[lane].leg_steps; });
    }
  }
  return out;
}

}  // namespace ssr::sim
