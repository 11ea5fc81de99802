// Synchronous-round execution model — the WSN-style transformed execution
// studied by Turau & Weyer (paper reference [17]) and the round-based
// transformation schemes the paper surveys ([5, 7, 16]).
//
// Time advances in rounds. In every round:
//   1. every node broadcasts its current state to all neighbors; each
//      individual message is lost independently with probability `loss`;
//      surviving messages update the receivers' caches at the round edge;
//   2. every node evaluates its (single, prioritized) enabled rule on its
//      local view (own state + caches) and executes it with probability
//      `exec_probability` — the randomized-execution device of [17] that
//      breaks the lock-step symmetry a synchronous schedule would
//      otherwise impose.
//
// All executions within a round are simultaneous (composite atomicity with
// cached reads). With loss = 0 and exec_probability = 1 and coherent
// caches this degenerates to the synchronous distributed daemon of the
// state-reading model.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "stabilizing/neighbourhood.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ssr::msgpass {

struct RoundParams {
  /// Per-message loss probability.
  double loss = 0.0;
  /// Probability that an enabled node executes its rule this round.
  double exec_probability = 1.0;
  std::uint64_t seed = 1;

  void validate() const {
    SSR_REQUIRE(loss >= 0.0 && loss < 1.0, "loss must be in [0, 1)");
    SSR_REQUIRE(exec_probability > 0.0 && exec_probability <= 1.0,
                "exec probability must be in (0, 1]");
  }
};

/// Synchronous rounds of protocol P on the topology of the neighbourhood
/// policy Nbhd (the ring by default; graph::GraphNeighbourhood for
/// general graphs). Node i's caches are cache_[offset(i) + k], one per
/// incident link, as in CstSimulation.
template <typename P, typename Nbhd = stab::RingNeighbourhood<P>>
class RoundSimulation {
 public:
  using State = typename P::State;
  using Config = std::vector<State>;
  using TokenFn = typename Nbhd::TokenFn;

  RoundSimulation(P protocol, Config initial, TokenFn token,
                  RoundParams params)
      : nb_(std::move(protocol), std::move(token)),
        params_(params),
        rng_(params.seed),
        states_(std::move(initial)) {
    params_.validate();
    SSR_REQUIRE(states_.size() == nb_.size(),
                "configuration size must equal the node count");
    cache_.resize(nb_.offset(states_.size()));
    make_caches_coherent();
  }

  /// Without a token predicate (holder_count() is then unavailable).
  RoundSimulation(P protocol, Config initial, RoundParams params)
      : RoundSimulation(std::move(protocol), std::move(initial), TokenFn{},
                        params) {}

  std::size_t size() const { return states_.size(); }
  std::uint64_t rounds() const { return rounds_; }
  const Config& global_config() const { return states_; }

  /// Node i's cached view of its predecessor / successor (rings only).
  const State& cache_pred(std::size_t i) const
    requires std::same_as<Nbhd, stab::RingNeighbourhood<P>>
  {
    return cache_.at(nb_.offset(i));
  }
  const State& cache_succ(std::size_t i) const
    requires std::same_as<Nbhd, stab::RingNeighbourhood<P>>
  {
    return cache_.at(nb_.offset(i) + 1);
  }

  void make_caches_coherent() { stab::make_coherent(nb_, states_, cache_); }

  /// Fills every cache with a state produced by @p gen, link slot by link
  /// slot: slot 0 of every node in ascending order, then slot 1, and so on
  /// (on a ring: all predecessor caches, then all successor caches).
  void randomize_caches(const std::function<State(Rng&)>& gen) {
    for (std::size_t k = 0, filled = 1; filled > 0; ++k) {
      filled = 0;
      for (std::size_t i = 0; i < states_.size(); ++i) {
        if (k >= nb_.degree(i)) continue;
        cache_[nb_.offset(i) + k] = gen(rng_);
        ++filled;
      }
    }
  }

  bool coherent() const {
    return stab::caches_coherent(nb_, states_, cache_);
  }

  /// Number of nodes holding a token by their local view.
  std::size_t holder_count() const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (nb_.token(i, states_[i], view(i))) ++count;
    }
    return count;
  }

  /// Executes one synchronous round; returns the number of rule
  /// executions it performed.
  std::size_t step() {
    const std::size_t n = states_.size();
    // Phase 1: broadcast (reads pre-round states, writes caches). One loss
    // draw per directed link, sender by sender, each sender's links in
    // descending order (on a ring: toward the successor, then toward the
    // predecessor).
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = nb_.degree(i); k-- > 0;) {
        if (rng_.bernoulli(params_.loss)) continue;
        const std::size_t j = nb_.neighbor(i, k);
        cache_[nb_.offset(j) + nb_.receiver_slot(i, k)] = states_[i];
      }
    }
    // Phase 2: simultaneous rule execution on local views.
    std::vector<std::pair<std::size_t, State>> writes;
    for (std::size_t i = 0; i < n; ++i) {
      const int rule = nb_.enabled_rule(i, states_[i], view(i));
      if (rule == stab::kDisabled) continue;
      if (!rng_.bernoulli(params_.exec_probability)) continue;
      writes.emplace_back(i, nb_.apply(i, rule, states_[i], view(i)));
    }
    for (auto& [i, s] : writes) states_[i] = std::move(s);
    ++rounds_;
    return writes.size();
  }

  /// Runs until predicate(global configuration) holds, or the round budget
  /// is exhausted. Returns the rounds consumed on success. Caches are
  /// deliberately not part of the condition: after any round that executed
  /// a rule they lag the new states by one broadcast phase, and the next
  /// round's phase 1 repairs them (modulo loss), so cache state is an
  /// intra-round detail here — unlike in the event-driven CST model.
  template <typename Predicate>
  std::optional<std::uint64_t> run_until(Predicate&& predicate,
                                         std::uint64_t max_rounds) {
    const std::uint64_t start = rounds_;
    for (std::uint64_t r = 0; r <= max_rounds; ++r) {
      if (predicate(states_)) return rounds_ - start;
      if (r == max_rounds) break;
      step();
    }
    return std::nullopt;
  }

 private:
  /// Node i's local view: its cache slots, in link order.
  const State* view(std::size_t i) const {
    return cache_.data() + nb_.offset(i);
  }

  Nbhd nb_;
  RoundParams params_;
  Rng rng_;
  std::uint64_t rounds_ = 0;

  Config states_;
  Config cache_;  ///< cache_[offset(i) + k]: view of neighbour k
};

}  // namespace ssr::msgpass
