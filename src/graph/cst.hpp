// Message-passing executions of general-graph protocols: the one CST
// simulator (msgpass::CstSimulation: network parameters, link discipline,
// loss and fault model, coverage accounting) and the one synchronous-round
// simulator (msgpass::RoundSimulation: the lossy-broadcast WSN execution
// of the paper's reference [17]), each on GraphNeighbourhood in place of
// the ring's index arithmetic: one cache per incident link (and one
// directed link per edge direction), flattened so a hot loop walks
// contiguous memory.
#pragma once

#include "graph/protocol.hpp"
#include "msgpass/cst.hpp"
#include "msgpass/rounds.hpp"

namespace ssr::graph {

/// CST simulation of a graph protocol; the activity predicate plays the
/// ring's token predicate (holder_count(), token_view(), coverage).
template <GraphProtocol P>
using GraphCstSimulation = msgpass::CstSimulation<P, GraphNeighbourhood<P>>;

/// Synchronous rounds over lossy broadcast for a graph protocol.
template <GraphProtocol P>
using GraphRoundSimulation = msgpass::RoundSimulation<P, GraphNeighbourhood<P>>;

}  // namespace ssr::graph
