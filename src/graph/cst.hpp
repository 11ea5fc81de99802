// Event-driven CST execution for general-graph protocols — the
// message-passing counterpart of graph::GraphEngine. It is the one CST
// simulator (msgpass::CstSimulation: same network parameters, link
// discipline, loss and fault model, coverage accounting) with a CSR
// neighbourhood in place of the ring's index arithmetic: one cache and one
// pair of directed links per graph edge, flattened so a shard's hot loop
// walks contiguous memory.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/protocol.hpp"
#include "msgpass/cst.hpp"
#include "util/assert.hpp"

namespace ssr::graph {

static_assert(kDisabled == stab::kDisabled,
              "the CST simulator tests rules against stab::kDisabled");

/// CSR neighbourhood of msgpass::CstSimulation for a GraphProtocol: link k
/// of node i faces topology().neighbors(i)[k], and lives at off_[i] + k.
template <GraphProtocol P>
class GraphNeighbourhood {
 public:
  using State = typename P::State;
  /// Activity predicate on a node's local view (e.g. "is in the MIS").
  using TokenFn = std::function<bool(std::size_t, const State&,
                                     std::span<const State>)>;

  GraphNeighbourhood(P protocol, TokenFn active)
      : protocol_(std::move(protocol)), active_(std::move(active)) {
    const Topology& topo = protocol_.topology();
    const std::size_t n = topo.size();
    off_.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      SSR_REQUIRE(topo.neighbors(i).size() <=
                      std::numeric_limits<std::uint16_t>::max(),
                  "node degree must fit the 16-bit event link field");
      off_[i + 1] = off_[i] + topo.neighbors(i).size();
    }
    nbr_.reserve(off_[n]);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j : topo.neighbors(i)) {
        nbr_.push_back(static_cast<std::uint32_t>(j));
      }
    }
    // Receiver-side slot of each directed edge, so a delivery can update
    // the right cache entry without rescanning the neighbor list.
    rev_slot_.assign(off_[n], 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t e = off_[i]; e < off_[i + 1]; ++e) {
        const std::size_t j = nbr_[e];
        bool found = false;
        for (std::size_t f = off_[j]; f < off_[j + 1]; ++f) {
          if (nbr_[f] == i) {
            rev_slot_[e] = static_cast<std::uint32_t>(f - off_[j]);
            found = true;
            break;
          }
        }
        SSR_REQUIRE(found, "topology is not symmetric");
      }
    }
  }

  std::size_t size() const { return off_.size() - 1; }
  std::size_t degree(std::size_t i) const { return off_[i + 1] - off_[i]; }
  std::size_t neighbor(std::size_t i, std::size_t k) const {
    return nbr_[off_[i] + k];
  }
  std::size_t receiver_slot(std::size_t i, std::size_t k) const {
    return rev_slot_[off_[i] + k];
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
  std::vector<std::size_t> off_;         ///< CSR offsets, size n+1
  std::vector<std::uint32_t> nbr_;       ///< CSR neighbor ids
  std::vector<std::uint32_t> rev_slot_;  ///< receiver-side slot per edge
};

/// CST simulation of a graph protocol; the activity predicate plays the
/// ring's token predicate (holder_count(), token_view(), coverage).
template <GraphProtocol P>
using GraphCstSimulation = msgpass::CstSimulation<P, GraphNeighbourhood<P>>;

}  // namespace ssr::graph
