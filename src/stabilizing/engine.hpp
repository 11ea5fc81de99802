// The state-reading / composite-atomicity execution engine (paper §2.1).
//
// One engine step: the daemon selects a non-empty subset V' of the enabled
// processes; every P_i in V' atomically reads the *pre-step* states of
// itself and its neighbors and writes its next state. All writes of a step
// are simultaneous — the engine snapshots neighbor reads before applying
// any command, which is what the composite atomicity + distributed daemon
// semantics require (and what makes synchronous schedules meaningful).
//
// One engine serves rings and general graphs: a neighbourhood policy
// (stabilizing/neighbourhood.hpp) names each process's neighbours and
// calls the protocol on their states, gathered in link order.
//
// Enabled-set maintenance is incremental: because a guard of P_i reads
// only the states of P_i and its neighbours (the neighbourhood locality
// contract), a step that moves k processes can only change enabledness at
// those k processes and their neighbours. The engine therefore keeps a
// persistent per-process rule cache plus the sorted enabled set, and
// repairs both in O(k * degree) guard evaluations per step instead of
// rescanning all n processes. The naive full scan survives as a debug
// oracle (set_debug_scan_checks / enabled_cache_consistent) and is
// exercised by a differential test.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "stabilizing/daemon.hpp"
#include "stabilizing/neighbourhood.hpp"
#include "util/assert.hpp"

namespace ssr::stab {

/// Executes protocol P over an explicit configuration, on the topology of
/// the neighbourhood policy Nbhd (the ring by default).
template <typename P, typename Nbhd = RingNeighbourhood<P>>
class Engine {
 public:
  using State = typename P::State;
  using Configuration = std::vector<State>;

  Engine(P protocol, Configuration initial)
      : nb_(std::move(protocol)), config_(std::move(initial)) {
    SSR_REQUIRE(config_.size() == nb_.size(),
                "configuration size must equal the node count");
    std::size_t max_degree = 0;
    for (std::size_t i = 0; i < config_.size(); ++i) {
      max_degree = std::max(max_degree, nb_.degree(i));
    }
    view_.resize(max_degree);
    rule_cache_.resize(config_.size());
    queued_.assign(config_.size(), 0);
    rebuild_enabled_cache();
  }

  const P& protocol() const { return nb_.protocol(); }
  const Configuration& config() const { return config_; }
  std::size_t size() const { return config_.size(); }

  /// Replaces the whole configuration (e.g. transient-fault injection).
  void reset(Configuration c) {
    SSR_REQUIRE(c.size() == config_.size(), "ring size cannot change");
    config_ = std::move(c);
    rebuild_enabled_cache();
  }

  /// Overwrites one process's state (single-process transient fault).
  /// Repairs the enabled cache at i and its neighbors only.
  void corrupt(std::size_t i, State s) {
    SSR_REQUIRE(i < config_.size(), "process index out of range");
    config_[i] = std::move(s);
    dirty_.clear();
    mark_dirty(i);
    repair_enabled_cache();
  }

  /// Rule currently enabled at process i (kDisabled if none). Served from
  /// the incremental cache; scan_rule() is the uncached equivalent.
  int enabled_rule(std::size_t i) const {
    SSR_REQUIRE(i < config_.size(), "process index out of range");
    return rule_cache_[i];
  }

  bool is_enabled(std::size_t i) const { return enabled_rule(i) != kDisabled; }

  /// Number of currently enabled processes.
  std::size_t enabled_count() const { return enabled_indices_.size(); }

  /// Zero-copy view of the current enabled set, in the shape daemons
  /// consume. Invalidated by step/corrupt/reset.
  EnabledView enabled_view() const {
    return EnabledView{enabled_indices_, enabled_rules_, config_.size()};
  }

  /// Sorted indices of all enabled processes, with their rule ids (copied
  /// out of the cache; prefer enabled_view() on hot paths).
  void enabled(std::vector<std::size_t>& indices, std::vector<int>& rules) const {
    indices = enabled_indices_;
    rules = enabled_rules_;
  }

  /// Sorted enabled indices. References the engine's persistent cache (no
  /// allocation); invalidated by step/corrupt/reset. Passing it straight
  /// back into step() is safe — the step reads the selection before it
  /// touches the cache.
  const std::vector<std::size_t>& enabled_indices() const {
    return enabled_indices_;
  }

  /// Applies one composite-atomicity step at the given processes. Every
  /// selected process must be enabled; all selected processes read the
  /// pre-step configuration. Returns the rules executed (parallel to
  /// @p selected); the reference stays valid until the next step() call.
  const std::vector<int>& step(std::span<const std::size_t> selected) {
    SSR_REQUIRE(!selected.empty(), "a step must move at least one process");
    const std::size_t n = config_.size();
    scratch_writes_.clear();
    step_rules_.clear();
    scratch_writes_.reserve(selected.size());
    step_rules_.reserve(selected.size());
    // @p selected may alias enabled_indices_; it is not read again after
    // this loop.
    for (std::size_t i : selected) {
      SSR_REQUIRE(i < n, "selected process index out of range");
      const int rule = rule_cache_[i];
      SSR_REQUIRE(rule != kDisabled, "daemon selected a disabled process");
      scratch_writes_.emplace_back(i, nb_.apply(i, rule, config_[i], view(i)));
      step_rules_.push_back(rule);
    }
    dirty_.clear();
    for (auto& [i, s] : scratch_writes_) {
      config_[i] = std::move(s);
      mark_dirty(i);
    }
    repair_enabled_cache();
    ++steps_;
    moves_ += selected.size();
    if (debug_scan_checks_) {
      SSR_ASSERT(enabled_cache_consistent(),
                 "incremental enabled cache diverged from the full scan");
    }
    return step_rules_;
  }

  /// Asks the daemon for a selection and applies it. Returns false (and
  /// performs nothing) iff no process is enabled — which, for the protocols
  /// in this library, would falsify the paper's no-deadlock lemma.
  bool step_with(Daemon& daemon) {
    if (enabled_indices_.empty()) return false;
    daemon.select_into(enabled_view(), selection_scratch_);
    SSR_REQUIRE(!selection_scratch_.empty(),
                "daemon returned an empty selection");
    step(selection_scratch_);
    return true;
  }

  /// Number of daemon steps executed so far.
  std::uint64_t steps() const { return steps_; }
  /// Total process moves (sum of selection sizes over all steps).
  std::uint64_t moves() const { return moves_; }

  /// Uncached enabled rule at i — the pre-incremental guard evaluation,
  /// kept as the oracle for cache validation.
  int scan_rule(std::size_t i) const {
    return nb_.enabled_rule(i, config_[i], view(i));
  }

  /// Full-scan differential check: does the incremental cache equal a
  /// fresh O(n) rescan? Used by tests and the debug-check mode.
  bool enabled_cache_consistent() const {
    std::size_t pos = 0;
    for (std::size_t i = 0; i < config_.size(); ++i) {
      const int r = scan_rule(i);
      if (rule_cache_[i] != r) return false;
      if (r != kDisabled) {
        if (pos >= enabled_indices_.size() || enabled_indices_[pos] != i ||
            enabled_rules_[pos] != r) {
          return false;
        }
        ++pos;
      }
    }
    return pos == enabled_indices_.size();
  }

  /// When on, every step() re-derives the enabled set with the naive full
  /// scan and asserts it matches the incremental cache. O(n) per step —
  /// meant for tests and debugging, not measurement runs.
  void set_debug_scan_checks(bool on) { debug_scan_checks_ = on; }

 private:
  /// Node i's neighbour states in link order, gathered into view_. Valid
  /// until the next view() call.
  const State* view(std::size_t i) const {
    for (std::size_t k = 0; k < nb_.degree(i); ++k) {
      view_[k] = config_[nb_.neighbor(i, k)];
    }
    return view_.data();
  }

  /// Queues i and its neighbours (every guard that reads i) for repair,
  /// each process at most once per repair.
  void mark_dirty(std::size_t i) {
    queue_dirty(i);
    for (std::size_t k = 0; k < nb_.degree(i); ++k) {
      queue_dirty(nb_.neighbor(i, k));
    }
  }
  void queue_dirty(std::size_t i) {
    if (queued_[i]) return;
    queued_[i] = 1;
    dirty_.push_back(i);
  }

  /// O(n) rebuild, used at construction and reset().
  void rebuild_enabled_cache() {
    enabled_indices_.clear();
    enabled_rules_.clear();
    for (std::size_t i = 0; i < config_.size(); ++i) {
      const int r = scan_rule(i);
      rule_cache_[i] = r;
      if (r != kDisabled) {
        enabled_indices_.push_back(i);
        enabled_rules_.push_back(r);
      }
    }
  }

  /// Re-evaluates the guards at the (unsorted, distinct) indices in
  /// dirty_ and splices the changes into the sorted enabled set. Guard
  /// work is O(|dirty|); the splice is a linear merge over the enabled
  /// list, which involves no guard evaluations.
  void repair_enabled_cache() {
    std::sort(dirty_.begin(), dirty_.end());
    merged_indices_.clear();
    merged_rules_.clear();
    std::size_t a = 0;  // cursor into the old enabled list
    for (std::size_t d : dirty_) {
      while (a < enabled_indices_.size() && enabled_indices_[a] < d) {
        merged_indices_.push_back(enabled_indices_[a]);
        merged_rules_.push_back(enabled_rules_[a]);
        ++a;
      }
      if (a < enabled_indices_.size() && enabled_indices_[a] == d) ++a;
      queued_[d] = 0;
      const int r = scan_rule(d);
      rule_cache_[d] = r;
      if (r != kDisabled) {
        merged_indices_.push_back(d);
        merged_rules_.push_back(r);
      }
    }
    while (a < enabled_indices_.size()) {
      merged_indices_.push_back(enabled_indices_[a]);
      merged_rules_.push_back(enabled_rules_[a]);
      ++a;
    }
    enabled_indices_.swap(merged_indices_);
    enabled_rules_.swap(merged_rules_);
  }

  Nbhd nb_;
  Configuration config_;
  // Gather buffer for view(), sized to the maximum degree. Written by const
  // guard evaluations, so one engine is not for concurrent readers.
  mutable Configuration view_;
  std::uint64_t steps_ = 0;
  std::uint64_t moves_ = 0;
  bool debug_scan_checks_ = false;
  // Incremental enabled-set cache: rule_cache_[i] is the enabled rule at
  // process i (kDisabled if none); enabled_indices_/enabled_rules_ are the
  // sorted enabled set derived from it. Always in sync with config_.
  std::vector<int> rule_cache_;
  std::vector<std::size_t> enabled_indices_;
  std::vector<int> enabled_rules_;
  // Scratch for repair_enabled_cache (reused to avoid per-step allocation).
  std::vector<std::size_t> dirty_;
  std::vector<std::uint8_t> queued_;  ///< queued_[i]: i is in dirty_
  std::vector<std::size_t> merged_indices_;
  std::vector<int> merged_rules_;
  // Reused across step calls (same reason); step_rules_ doubles as the
  // returned rule list.
  std::vector<std::pair<std::size_t, State>> scratch_writes_;
  std::vector<int> step_rules_;
  // Daemon selection buffer for step_with (select_into avoids the per-step
  // vector the old Daemon::select interface allocated).
  std::vector<std::size_t> selection_scratch_;
};

/// Outcome of a bounded run (see run_until below).
struct RunResult {
  bool reached = false;        ///< predicate became true within the budget
  bool deadlocked = false;     ///< no process was enabled before that
  std::uint64_t steps = 0;     ///< daemon steps consumed by this run
  std::uint64_t moves = 0;     ///< process moves consumed by this run
};

/// Runs the engine under the daemon until predicate(config) holds, a
/// deadlock occurs, or max_steps is exhausted. The predicate is evaluated
/// on the initial configuration first (zero-step success is possible).
template <typename P, typename Nbhd, typename Predicate>
RunResult run_until(Engine<P, Nbhd>& engine, Daemon& daemon,
                    Predicate&& predicate, std::uint64_t max_steps) {
  RunResult result;
  const std::uint64_t steps0 = engine.steps();
  const std::uint64_t moves0 = engine.moves();
  for (std::uint64_t t = 0; t <= max_steps; ++t) {
    if (predicate(engine.config())) {
      result.reached = true;
      break;
    }
    if (t == max_steps) break;
    if (!engine.step_with(daemon)) {
      result.deadlocked = true;
      break;
    }
  }
  result.steps = engine.steps() - steps0;
  result.moves = engine.moves() - moves0;
  return result;
}

}  // namespace ssr::stab
