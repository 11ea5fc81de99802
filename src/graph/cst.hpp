// Event-driven CST execution for general-graph protocols — the
// message-passing counterpart of graph::GraphEngine, mirroring
// msgpass::CstSimulation (same network parameters, link discipline, loss
// model and coverage accounting) but with one cache and one pair of
// directed links per graph edge.
//
// Runs on the same pdes::ShardedEngine (msgpass/pdes.hpp) as the ring
// simulator: nodes are partitioned into NetworkParams::workers contiguous
// id ranges, and the global-window synchronization needs no per-channel
// clocks — every cross-node event is a delivery at least delay_min away,
// on any topology. Neighbor lists, caches and links are flattened into CSR
// arrays so a shard's hot loop walks contiguous memory. Per-node
// stream_rng streams keep every statistic byte-identical at any worker
// count.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "graph/protocol.hpp"
#include "msgpass/cst.hpp"  // NetworkParams, CoverageStats, Time
#include "msgpass/pdes.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ssr::graph {

namespace pdes = ssr::msgpass::pdes;

template <GraphProtocol P>
class GraphCstSimulation {
 public:
  using State = typename P::State;
  using Config = std::vector<State>;
  /// Activity predicate on a node's local view (e.g. "is in the MIS").
  using ActiveFn = std::function<bool(std::size_t, const State&,
                                      std::span<const State>)>;

  GraphCstSimulation(P protocol, Config initial, ActiveFn active,
                     msgpass::NetworkParams params)
      : protocol_(std::move(protocol)),
        params_(params),
        active_(std::move(active)),
        aux_rng_(params.seed),
        states_(std::move(initial)) {
    params_.validate();
    const std::size_t n = protocol_.topology().size();
    SSR_REQUIRE(states_.size() == n, "configuration size mismatch");
    SSR_REQUIRE(n < (std::size_t{1} << 32),
                "graph size must fit the 32-bit event-key node field");
    // CSR-flatten the topology: edge (i, k) lives at off_[i] + k.
    off_.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      off_[i + 1] = off_[i] + protocol_.topology().neighbors(i).size();
    }
    const std::size_t edges = off_[n];
    nbr_.reserve(edges);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j : protocol_.topology().neighbors(i)) {
        nbr_.push_back(static_cast<std::uint32_t>(j));
      }
    }
    // Receiver-side slot of each directed edge, so a delivery can update
    // the right cache entry without rescanning the neighbor list.
    rev_slot_.assign(edges, 0);
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

    cache_.resize(edges);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t e = off_[i]; e < off_[i + 1]; ++e) {
        cache_[e] = states_[nbr_[e]];
      }
    }
    links_.resize(edges);
    exec_pending_.assign(n, 0);
    holder_bit_.assign(n, 0);

    engine_ = Engine(n, msgpass::resolve_workers(params_.workers, n),
                     params_.delay_min, params_.seed,
                     [this](std::size_t lo, std::size_t hi) {
                       const std::size_t span_edges = off_[hi] - off_[lo];
                       return pdes::ShardReserve{
                           2 * span_edges + 2 * (hi - lo) + 64,
                           span_edges + 16};
                     });
    for (std::size_t i = 0; i < n; ++i) {
      Shard& sh = engine_.shard_of(i);
      engine_.schedule(sh, i,
                       engine_.rng(i).uniform01() * params_.refresh_interval,
                       pdes::EvKind::kTimer);
      maybe_schedule_execution(sh, i, 0.0);
    }
    recompute_holders();
  }

  std::size_t size() const { return states_.size(); }
  msgpass::Time now() const { return engine_.now(); }
  const Config& global_config() const { return states_; }
  /// Resolved shard count the engine actually runs with.
  std::size_t workers() const { return engine_.workers(); }

  bool coherent() const {
    for (std::size_t e = 0; e < nbr_.size(); ++e) {
      if (!(cache_[e] == states_[nbr_[e]])) return false;
    }
    return true;
  }

  void randomize_caches(const std::function<State(Rng&)>& gen) {
    for (auto& s : cache_) s = gen(aux_rng_);
    recompute_holders();
  }

  std::size_t active_count() const { return holder_count_; }

  std::vector<bool> active_view() const {
    const std::size_t n = states_.size();
    std::vector<bool> active(n, false);
    for (std::size_t i = 0; i < n; ++i) active[i] = eval_active(i);
    return active;
  }

  /// Runs for @p duration of simulated time.
  msgpass::CoverageStats run(msgpass::Time duration) {
    return run_until([](const GraphCstSimulation&) { return false; },
                     now() + duration, nullptr);
  }

  /// Runs until stop(*this) or the deadline; the predicate is evaluated at
  /// every synchronization-round horizon (worker-count-independent).
  template <typename StopFn>
  msgpass::CoverageStats run_until(StopFn&& stop, msgpass::Time deadline,
                                   bool* stopped_early) {
    auto stats = engine_.run(
        deadline, holder_count_, nullptr, nullptr,
        [this](Shard& sh, const pdes::HeapRec& rec) { dispatch(sh, rec); },
        [&] { return stop(*this); });
    if (stopped_early != nullptr) *stopped_early = engine_.stopped();
    return stats;
  }

 private:
  /// In-flight frame payload plus its addressing, interned per shard.
  struct Frame {
    State payload{};
    std::uint32_t dest = 0;
    std::uint32_t dest_slot = 0;  ///< receiver-side cache slot
  };

  using Engine = pdes::ShardedEngine<Frame>;
  using Shard = typename Engine::ShardT;

  std::span<const State> caches_of(std::size_t i) const {
    return {cache_.data() + off_[i], off_[i + 1] - off_[i]};
  }

  bool eval_active(std::size_t i) const {
    return active_(i, states_[i], caches_of(i));
  }

  void recompute_holders() {
    holder_count_ = 0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      const bool h = eval_active(i);
      holder_bit_[i] = h ? 1 : 0;
      if (h) ++holder_count_;
    }
  }

  /// Sends node i's state along its k-th incident edge.
  void send(Shard& sh, std::size_t i, std::size_t k, msgpass::Time now) {
    if (links_.claim_or_park(off_[i] + k, states_[i])) {
      transmit(sh, i, k, states_[i], now);
    }
  }

  void broadcast(Shard& sh, std::size_t i, msgpass::Time now) {
    const std::size_t deg = off_[i + 1] - off_[i];
    for (std::size_t k = 0; k < deg; ++k) send(sh, i, k, now);
  }

  void transmit(Shard& sh, std::size_t i, std::size_t k, const State& payload,
                msgpass::Time now) {
    const std::size_t e = off_[i] + k;
    ++sh.ctr.transmissions;
    Rng& rng = engine_.rng(i);
    const double delay = params_.draw_delay(rng);
    pdes::HeapRec rec;
    if (rng.bernoulli(params_.loss_probability)) rec.flags = pdes::kEvLost;
    rec.time = pdes::advance_time(now, delay);
    rec.order = engine_.next_order(i);
    rec.kind = pdes::EvKind::kDelivery;
    const std::size_t dest = nbr_[e];
    engine_.route(sh, dest, rec,
                  Frame{payload, static_cast<std::uint32_t>(dest),
                        rev_slot_[e]});
    // Sender-local link completion (see msgpass::CstSimulation::transmit);
    // slot carries the local link index, which exceeds the dir byte.
    engine_.schedule(sh, i, rec.time, pdes::EvKind::kLinkFree, 0,
                     static_cast<std::uint32_t>(k));
  }

  void maybe_schedule_execution(Shard& sh, std::size_t i, msgpass::Time now) {
    if (exec_pending_[i]) return;
    const int rule = protocol_.enabled_rule(i, states_[i], caches_of(i));
    if (rule == kDisabled) return;
    exec_pending_[i] = 1;
    const double service =
        params_.service_min + engine_.rng(i).uniform01() *
                                  (params_.service_max - params_.service_min);
    engine_.schedule(sh, i, pdes::advance_time(now, service),
                     pdes::EvKind::kExecute);
  }

  void handle_execute(Shard& sh, std::size_t v, msgpass::Time now) {
    SSR_ASSERT(exec_pending_[v], "execute event without a pending flag");
    exec_pending_[v] = 0;
    const int rule = protocol_.enabled_rule(v, states_[v], caches_of(v));
    if (rule == kDisabled) return;
    states_[v] = protocol_.apply(v, rule, states_[v], caches_of(v));
    ++sh.ctr.rule_executions;
    broadcast(sh, v, now);
    maybe_schedule_execution(sh, v, now);
  }

  void handle_timer(Shard& sh, std::size_t v, msgpass::Time now) {
    broadcast(sh, v, now);
    const double jitter = 0.9 + 0.2 * engine_.rng(v).uniform01();
    engine_.schedule(sh, v,
                     pdes::advance_time(now, params_.refresh_interval * jitter),
                     pdes::EvKind::kTimer);
  }

  void dispatch(Shard& sh, const pdes::HeapRec& rec) {
    const std::size_t creator = pdes::order_creator(rec.order);
    if (rec.kind == pdes::EvKind::kLinkFree) {
      if (const State* parked = links_.release(off_[creator] + rec.slot)) {
        transmit(sh, creator, rec.slot, *parked, rec.time);
      }
      return;
    }
    std::size_t v = creator;
    if (rec.kind == pdes::EvKind::kDelivery) {
      ++sh.ctr.deliveries;
      ++sh.ctr.events;
      if (rec.flags & pdes::kEvLost) {
        // A lost frame changes no node state, so it cannot flip any
        // predicate; count it and move on.
        ++sh.ctr.losses;
        return;
      }
      const Frame frame = sh.slab.take(rec.slot);
      v = frame.dest;
      cache_[off_[v] + frame.dest_slot] = frame.payload;
      maybe_schedule_execution(sh, v, rec.time);
      broadcast(sh, v, rec.time);
    } else {
      ++sh.ctr.events;
      if (rec.kind == pdes::EvKind::kTimer) {
        handle_timer(sh, v, rec.time);
      } else {
        handle_execute(sh, v, rec.time);
      }
    }
    sh.note_flip(rec, v, eval_active(v), holder_bit_[v]);
  }

  P protocol_;
  msgpass::NetworkParams params_;
  ActiveFn active_;
  Rng aux_rng_;  ///< coordinator-only draws (randomize_caches)

  Config states_;
  std::vector<std::size_t> off_;        ///< CSR offsets, size n+1
  std::vector<std::uint32_t> nbr_;      ///< CSR neighbor ids
  std::vector<std::uint32_t> rev_slot_; ///< receiver-side slot per edge
  std::vector<State> cache_;            ///< cache_[off_[i]+k] = view of nbr k
  pdes::LinkTable<State> links_;         ///< one per directed edge
  std::vector<std::uint8_t> exec_pending_;
  std::vector<std::uint8_t> holder_bit_;

  Engine engine_;
  std::size_t holder_count_ = 0;
};

}  // namespace ssr::graph
