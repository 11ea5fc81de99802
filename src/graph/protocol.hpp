// Guarded-command protocols on general graphs. The ring framework
// (stabilizing/protocol.hpp) fixes the neighborhood to {pred, succ}; here
// a rule reads the whole (ordered) neighbor-state vector, which is the
// state-reading model on arbitrary topologies. Used by the general-
// topology extensions (the paper's §6 future work). GraphNeighbourhood
// runs such protocols on the shared execution models; GraphEngine is the
// state-reading one.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/topology.hpp"
#include "stabilizing/daemon.hpp"
#include "stabilizing/engine.hpp"
#include "util/assert.hpp"

namespace ssr::graph {

/// Sentinel rule id meaning "no guard holds" (shared with the ring
/// framework, whose engine and simulators test rules against it).
using stab::kDisabled;

// clang-format off
template <typename P>
concept GraphProtocol = requires(const P p, std::size_t i,
                                 const typename P::State& s,
                                 std::span<const typename P::State> neigh) {
  typename P::State;
  requires std::equality_comparable<typename P::State>;
  requires std::copyable<typename P::State>;
  { p.topology() } -> std::convertible_to<const Topology&>;
  /// Highest-priority enabled rule at node i; neighbor states are ordered
  /// as topology().neighbors(i).
  { p.enabled_rule(i, s, neigh) } -> std::convertible_to<int>;
  { p.apply(i, int{}, s, neigh) } -> std::same_as<typename P::State>;
};
// clang-format on

/// Graph neighbourhood policy (stabilizing/neighbourhood.hpp) for a
/// GraphProtocol: link k of node i faces topology().neighbors(i)[k], and
/// its per-link storage lives at offset(i) + k. It reads the adjacency
/// from the protocol's Topology (no copy of its own) and drives the
/// state-reading engine (GraphEngine below), the synchronous rounds and
/// the CST simulator (graph/cst.hpp).
template <GraphProtocol P>
class GraphNeighbourhood {
 public:
  using State = typename P::State;
  /// Activity predicate on a node's local view (e.g. "is in the MIS").
  /// Optional: only the message-passing models' holder accounting calls it.
  using TokenFn = std::function<bool(std::size_t, const State&,
                                     std::span<const State>)>;

  explicit GraphNeighbourhood(P protocol, TokenFn active = {})
      : protocol_(std::move(protocol)), active_(std::move(active)) {
    const Topology& topo = protocol_.topology();
    off_.assign(topo.size() + 1, 0);
    for (std::size_t i = 0; i < topo.size(); ++i) {
      off_[i + 1] = off_[i] + topo.degree(i);
    }
  }

  const P& protocol() const { return protocol_; }
  std::size_t size() const { return off_.size() - 1; }
  std::size_t degree(std::size_t i) const { return off_[i + 1] - off_[i]; }
  std::size_t neighbor(std::size_t i, std::size_t k) const {
    return protocol_.topology().neighbors(i)[k];
  }
  /// Receiver-side slot of link (i, k): i's position in its neighbour's
  /// sorted neighbour list (topologies are undirected, so it is there).
  std::size_t receiver_slot(std::size_t i, std::size_t k) const {
    const auto back = protocol_.topology().neighbors(neighbor(i, k));
    return static_cast<std::size_t>(
        std::lower_bound(back.begin(), back.end(), i) - back.begin());
  }
  std::size_t offset(std::size_t i) const { return off_[i]; }

  int enabled_rule(std::size_t i, const State& self, const State* view) const {
    return protocol_.enabled_rule(i, self, span(i, view));
  }
  State apply(std::size_t i, int rule, const State& self,
              const State* view) const {
    return protocol_.apply(i, rule, self, span(i, view));
  }
  bool token(std::size_t i, const State& self, const State* view) const {
    return active_(i, self, span(i, view));
  }

 private:
  std::span<const State> span(std::size_t i, const State* view) const {
    return {view, degree(i)};
  }

  P protocol_;
  TokenFn active_;
  std::vector<std::size_t> off_;  ///< prefix sums of the degrees, size n+1
};

/// Composite-atomicity engine over a graph protocol: the one state-reading
/// engine, with its incremental enabled set, on the graph neighbourhood.
template <GraphProtocol P>
using GraphEngine = stab::Engine<P, GraphNeighbourhood<P>>;

/// Runs until no node is enabled (silence) or the step budget is spent,
/// taking at most @p max_steps steps. Returns the steps consumed, or
/// nullopt if the budget ran out first.
template <GraphProtocol P>
std::optional<std::uint64_t> run_to_silence(GraphEngine<P>& engine,
                                            stab::Daemon& daemon,
                                            std::uint64_t max_steps) {
  const stab::RunResult r = stab::run_until(
      engine, daemon,
      [&engine](const auto&) { return engine.enabled_count() == 0; },
      max_steps);
  if (!r.reached) return std::nullopt;
  return r.steps;
}

}  // namespace ssr::graph
