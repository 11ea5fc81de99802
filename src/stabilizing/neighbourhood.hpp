// Neighbourhood policies: the one topology abstraction shared by the three
// execution models (the state-reading stab::Engine, the synchronous-round
// msgpass::RoundSimulation and the event-driven msgpass::CstSimulation).
//
// A policy owns the protocol and answers, for node i: its degree, its k-th
// neighbour, the receiver-side slot of link (i, k), the flat offset of its
// per-link storage, and the protocol calls on a *view* — a contiguous array
// of neighbour states in link order. The engine fills the view from the
// configuration; the message-passing models pass a node's caches. A guard
// of node i reads only itself and its view, so a move at i can change
// enabledness only at i and its neighbours: that locality is what the
// engine's incremental enabled set relies on. Topologies are symmetric
// (j is a neighbour of i iff i is a neighbour of j).
//
// RingNeighbourhood (here) serves RingProtocols; graph::GraphNeighbourhood
// (graph/protocol.hpp) serves GraphProtocols over their Topology.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "stabilizing/protocol.hpp"
#include "util/assert.hpp"

namespace ssr::stab {

/// Ring neighbourhood: pure index arithmetic, no per-node arrays. Link
/// k = 0 faces the predecessor and k = 1 the successor, and node i's two
/// cache slots and two outgoing links sit at 2i + k. At n = 2 both links
/// face the same node.
template <RingProtocol P>
class RingNeighbourhood {
 public:
  using State = typename P::State;
  /// Token predicate on a node's local view: (i, self, pred_view,
  /// succ_view) -> holds a token. Optional: only the message-passing
  /// models' holder accounting calls it.
  using TokenFn = std::function<bool(std::size_t, const State&, const State&,
                                     const State&)>;

  explicit RingNeighbourhood(P protocol, TokenFn token = {})
      : protocol_(std::move(protocol)),
        token_(std::move(token)),
        n_(protocol_.size()) {
    SSR_REQUIRE(n_ >= 2, "ring needs at least two processes");
  }

  const P& protocol() const { return protocol_; }
  std::size_t size() const { return n_; }
  static constexpr std::size_t degree(std::size_t) { return 2; }
  std::size_t neighbor(std::size_t i, std::size_t k) const {
    return k == 0 ? pred_index(i, n_) : succ_index(i, n_);
  }
  /// Receiver-side cache slot of link (i, k): a frame sent toward the
  /// successor refreshes the receiver's predecessor cache, and vice versa.
  static constexpr std::size_t receiver_slot(std::size_t, std::size_t k) {
    return 1 - k;
  }
  /// First cache slot (and outgoing link) of node i.
  static constexpr std::size_t offset(std::size_t i) { return 2 * i; }

  /// Protocol and predicate calls on node i's view (pred, succ).
  int enabled_rule(std::size_t i, const State& self, const State* view) const {
    return protocol_.enabled_rule(i, self, view[0], view[1]);
  }
  State apply(std::size_t i, int rule, const State& self,
              const State* view) const {
    return protocol_.apply(i, rule, self, view[0], view[1]);
  }
  bool token(std::size_t i, const State& self, const State* view) const {
    return token_(i, self, view[0], view[1]);
  }

 private:
  P protocol_;
  TokenFn token_;
  std::size_t n_;
};

/// Sets every per-link cache of the flat layout cache[offset(i) + k] to
/// the current state of neighbour k (the message-passing models' coherent
/// start).
template <typename Nbhd, typename State>
void make_coherent(const Nbhd& nb, const std::vector<State>& states,
                   std::vector<State>& cache) {
  for (std::size_t i = 0; i < states.size(); ++i) {
    for (std::size_t k = 0; k < nb.degree(i); ++k) {
      cache[nb.offset(i) + k] = states[nb.neighbor(i, k)];
    }
  }
}

/// True iff every per-link cache equals its neighbour's current state.
template <typename Nbhd, typename State>
bool caches_coherent(const Nbhd& nb, const std::vector<State>& states,
                     const std::vector<State>& cache) {
  for (std::size_t i = 0; i < states.size(); ++i) {
    for (std::size_t k = 0; k < nb.degree(i); ++k) {
      if (!(cache[nb.offset(i) + k] == states[nb.neighbor(i, k)])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace ssr::stab
