// Message-passing execution via the cached sensornet transform (CST,
// paper Algorithm 4, after Herman 2003) on a sharded conservative
// parallel discrete-event network simulator.
//
// Each node v_i runs the untouched state-reading protocol against a local
// *cache* Z_i[v_k] of each neighbor's state. Whenever v_i receives a
// neighbor's state it updates the cache, executes (at most) one enabled
// rule, and broadcasts its own state to every neighbor; a periodic timer
// also rebroadcasts the state so lost messages are eventually repaired.
// One simulator serves rings and general graphs: a neighbourhood policy
// (stab::RingNeighbourhood, graph::GraphNeighbourhood; see
// stabilizing/neighbourhood.hpp) supplies the topology and the protocol's
// view of a node's caches.
//
// The network model follows paper §5 ¶1: each directed link carries at most
// one message at a time. A send onto a busy link parks the *latest* state
// as pending and transmits it the moment the link frees (a node
// broadcasting its current state never needs to queue more than the newest
// value). Message loss (for Lemma 9 / Theorem 4) is decided per
// transmission with a uniform probability; a lost message still occupies
// the link for its transit time.
//
// Token accounting is the heart of the model-gap experiments (Figs. 11-13,
// Theorem 3): a node holds a token according to the protocol's token
// predicate evaluated on its *local view* (own state + caches), because
// that is the information an implementation would use to decide whether it
// may be active. The simulation integrates, over simulated time, how long
// the system spends with zero / one / two token holders.
//
// Execution engine: pdes::ShardedEngine (see pdes.hpp for the
// synchronization and determinism contract) cuts the node ids into
// NetworkParams::workers contiguous ranges (arcs, on a ring) and runs the
// conservative rounds, with lookahead delay_min — a message needs at least
// delay_min to cross any link, including those between ranges. This class
// supplies only the protocol: event dispatch, link discipline, fault
// injection and caches. All randomness comes from per-node streams
// (stream_rng(seed, i)), so results are byte-identical at any worker
// count. A node's predicate depends only on its own state and caches, so
// each event can flip only the acting node's token bit: one predicate
// evaluation per event, which is what makes million-node rings tractable.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "msgpass/pdes.hpp"
#include "runtime/fault_plan.hpp"
#include "stabilizing/neighbourhood.hpp"
#include "stabilizing/protocol.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ssr::msgpass {

/// Shape of the per-message transit delay distribution.
enum class DelayModel : std::uint8_t {
  /// Uniform in [delay_min, delay_max] — bounded, the regime Theorem 3's
  /// proof describes.
  kUniform,
  /// delay_min + Exponential(mean = (delay_max - delay_min)) — unbounded
  /// tail. Used to probe the freshness boundary of the graceful-handover
  /// guarantee (finding F1 / experiment E22): a single message outliving a
  /// whole handshake cycle lets a stale acknowledgment trigger Rule 2
  /// early.
  kExponentialTail,
};

/// Tunable network parameters.
struct NetworkParams {
  /// Per-message transit delay (see DelayModel). delay_min doubles as the
  /// conservative lookahead of the sharded engine: rounds advance the
  /// global window by at least delay_min, so a smaller minimum delay means
  /// more synchronization rounds per simulated tick.
  double delay_min = 0.5;
  double delay_max = 1.5;
  DelayModel delay_model = DelayModel::kUniform;
  /// Probability that any single transmission is lost.
  double loss_probability = 0.0;
  /// Probability that a delivered message is delivered a second time after
  /// an extra transit delay (the duplication fault of paper §2.2; state
  /// messages are idempotent, so duplication must be harmless).
  double duplicate_probability = 0.0;
  /// Period of the CST refresh timer (Algorithm 4 line 11).
  double refresh_interval = 8.0;
  /// Critical-section service time: once a rule becomes enabled, the node
  /// executes it after a uniform delay in [service_min, service_max]. This
  /// is the time a privileged node actually spends doing its privileged
  /// work (monitoring, in the camera application) before moving on — with
  /// instantaneous execution a Dijkstra token would be held for zero
  /// simulated time and coverage comparisons would be meaningless.
  double service_min = 0.5;
  double service_max = 1.0;
  /// RNG seed for delays, losses and timer jitter.
  std::uint64_t seed = 1;
  /// Worker shards for the conservative parallel engine (0 = one per
  /// hardware thread; clamped to the ring size). Results are byte-identical
  /// at any value — this is purely a wall-clock knob.
  std::size_t workers = 1;
  /// Shared fault schedule (runtime/fault_plan.hpp). An empty plan is
  /// completely inert: it consumes no RNG draws, so seeded runs reproduce
  /// the pre-fault-plan trajectories bit for bit. Window drops count as
  /// losses; corruption behind a checksum is loss (Lemma 9), so corrupt
  /// frames are marked lost too.
  runtime::FaultPlan fault_plan;
  /// Scale between the simulator's abstract ticks and the fault clock /
  /// telemetry microseconds (window times, exported timestamps).
  double microseconds_per_tick = 1000.0;

  void validate() const;

  /// Draws one transit delay according to the configured model.
  double draw_delay(Rng& rng) const;
};

/// CST execution of protocol P over the event-driven network. The
/// neighbourhood policy Nbhd fixes the topology and how the protocol reads
/// a node's caches: stab::RingNeighbourhood (the default) for ring protocols,
/// graph::GraphNeighbourhood for general-graph ones. The policy supplies
/// the node count, degree(i), the k-th neighbour, the receiver-side cache
/// slot of link (i, k), the flat cache offset of node i, and the protocol
/// and token-predicate calls on a node's view. Node i's caches are
/// cache_[offset(i) + k], one per incident link, and its outgoing link
/// toward neighbour k has the same index in the link table.
template <typename P, typename Nbhd = stab::RingNeighbourhood<P>>
class CstSimulation {
 public:
  using State = typename P::State;
  using Config = std::vector<State>;
  using TokenFn = typename Nbhd::TokenFn;

  CstSimulation(P protocol, Config initial, TokenFn token, NetworkParams params)
      : nb_(std::move(protocol), std::move(token)),
        params_(params),
        aux_rng_(params.seed),
        states_(std::move(initial)),
        injector_(params_.fault_plan, std::max<std::size_t>(nb_.size(), 2)),
        has_plan_(!params_.fault_plan.empty()),
        has_windows_(!params_.fault_plan.windows.empty()) {
    params_.validate();
    const std::size_t n = nb_.size();
    SSR_REQUIRE(states_.size() == n,
                "configuration size must equal the node count");
    SSR_REQUIRE(n < (std::size_t{1} << 32),
                "node count must fit the 32-bit event-key node field");
    for (std::size_t i = 0; i < n; ++i) {
      SSR_REQUIRE(nb_.degree(i) <= std::numeric_limits<std::uint16_t>::max(),
                  "node degree must fit the 16-bit event link field");
    }
    cache_.resize(nb_.offset(n));
    make_caches_coherent();
    links_.resize(nb_.offset(n));
    exec_pending_.assign(n, 0);
    // Steady-state in-flight events per node: one timer, at most one
    // pending execution, one delivery plus the matching link-free record
    // per incident link; ghosts and bursts spill past the reserve.
    engine_ = Engine(n, resolve_workers(params_.workers, n), params_.delay_min,
                     params_.seed, [this](std::size_t lo, std::size_t hi) {
                       const std::size_t e = nb_.offset(hi) - nb_.offset(lo);
                       return pdes::ShardReserve{2 * e + 2 * (hi - lo) + 64,
                                                 e + 16};
                     });

    for (std::size_t i = 0; i < n; ++i) {
      Shard& sh = engine_.shard_of(i);
      engine_.schedule(sh, i,
                       engine_.rng(i).uniform01() * params_.refresh_interval,
                       pdes::EvKind::kTimer);
      maybe_schedule_execution(sh, i, 0.0);
    }
    holders_.assign(n, false);
    holder_bit_.assign(n, 0);
    recompute_holders();
  }

  std::size_t size() const { return states_.size(); }
  Time now() const { return engine_.now(); }
  /// Current simulated time on the fault/telemetry clock (microseconds).
  double fault_clock_us() const {
    return engine_.now() * params_.microseconds_per_tick;
  }
  /// Resolved shard count the engine actually runs with.
  std::size_t workers() const { return engine_.workers(); }

  /// True states of all nodes (omniscient view).
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

  /// Definition 2: every cache equals the neighbor's current state.
  bool coherent() const {
    return stab::caches_coherent(nb_, states_, cache_);
  }

  /// Resets every cache to the neighbor's true state (the "legitimate
  /// configuration with cache-coherence" hypothesis of Theorem 3).
  void make_caches_coherent() { stab::make_coherent(nb_, states_, cache_); }

  /// Fills every cache with an arbitrary state produced by @p gen (the
  /// "arbitrary cache values" hypothesis of Lemma 9 — bad incoherence).
  /// Draws from a dedicated coordinator stream, node by node in ascending
  /// order and link by link within a node (pred then succ on a ring), so
  /// the corruption pattern is worker-independent.
  void randomize_caches(const std::function<State(Rng&)>& gen) {
    for (State& s : cache_) s = gen(aux_rng_);
    recompute_holders();
  }

  /// Per-node token holding, each node judging from its local view.
  std::vector<bool> token_view() const { return holders_; }
  std::size_t holder_count() const { return holder_count_; }

  using IntervalObserver = msgpass::IntervalObserver;
  /// Observer invoked once per inter-flip interval [from, to) with the
  /// holder set that was in force throughout it. Gives application layers
  /// (e.g. the camera-energy model) an exact time integration of who was
  /// active when. The partition is by holder-set *changes* (not by raw
  /// events), so it is identical at every worker count; time-weighted
  /// consumers (Telemetry, TimelineRecorder) integrate the same function.
  void set_observer(IntervalObserver observer) {
    observer_ = std::move(observer);
  }

  /// Runs until simulated time advances by @p duration, accumulating
  /// coverage statistics for the window.
  CoverageStats run(Time duration) {
    return run_until([](const CstSimulation&) { return false; },
                     now() + duration, nullptr);
  }

  /// Runs until @p stop(*this) holds or the deadline passes. The predicate
  /// is evaluated at every synchronization-round horizon (the rounds — and
  /// hence the stop times — are identical at every worker count; a round
  /// spans at most delay_min of virtual time). Returns the stats;
  /// stopped_early tells which.
  template <typename StopFn>
  CoverageStats run_until(StopFn&& stop, Time deadline, bool* stopped_early) {
    CoverageStats s = engine_.run(
        deadline, holder_count_, &holders_, &observer_,
        [this](Shard& sh, const pdes::HeapRec& rec) { dispatch(sh, rec); },
        [&] { return stop(*this); });
    if (stopped_early != nullptr) *stopped_early = engine_.stopped();
    return s;
  }

 private:
  using Engine = pdes::ShardedEngine<State>;
  using Shard = typename Engine::ShardT;

  /// Node i's local view: its cache slots, in link order.
  const State* view(std::size_t i) const {
    return cache_.data() + nb_.offset(i);
  }

  bool eval_token(std::size_t i) const {
    return nb_.token(i, states_[i], view(i));
  }

  void recompute_holders() {
    holder_count_ = 0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      const bool h = eval_token(i);
      holder_bit_[i] = h ? 1 : 0;
      holders_[i] = h;
      if (h) ++holder_count_;
    }
  }

  /// Starts a transmission of node i's current state along its link k, or
  /// parks it as pending if the link is occupied (overwriting any older
  /// pending value — only the newest state matters).
  void send(Shard& sh, std::size_t i, std::size_t k, Time now) {
    if (links_.claim_or_park(nb_.offset(i) + k, states_[i])) {
      transmit(sh, i, k, states_[i], now);
    }
  }

  void broadcast(Shard& sh, std::size_t i, Time now) {
    for (std::size_t k = 0; k < nb_.degree(i); ++k) send(sh, i, k, now);
  }

  /// Puts @p payload on node i's claimed link k.
  void transmit(Shard& sh, std::size_t i, std::size_t k, const State& payload,
                Time now) {
    ++sh.ctr.transmissions;
    Rng& rng = engine_.rng(i);
    double delay = params_.draw_delay(rng);
    std::uint8_t flags = 0;
    if (rng.bernoulli(params_.loss_probability)) flags |= pdes::kEvLost;
    const std::size_t dest = nb_.neighbor(i, k);
    if (has_plan_) {
      // The injector draws in a fixed order (and an inert probability
      // consumes no draws), so the whole trajectory stays a pure function
      // of (seed, plan).
      const runtime::FrameFate fate = injector_.on_send(
          i, dest, now * params_.microseconds_per_tick, rng);
      // Corruption behind a checksum is loss (Lemma 9); a window drop
      // still occupies the link for its transit time, like any loss.
      if (fate.drop || fate.corrupt_bits > 0) flags |= pdes::kEvLost;
      if (fate.duplicate) flags |= pdes::kEvForceDuplicate;
      // Reordering on a one-message-at-a-time link = the frame arriving
      // stale: stretch its transit past the frames that overtake it.
      if (fate.reorder) {
        delay += params_.draw_delay(rng) + params_.draw_delay(rng);
      }
    }
    // delay >= delay_min in every model, so the delivery lands at or beyond
    // the current round's horizon whenever it crosses a shard boundary.
    pdes::HeapRec rec;
    rec.time = pdes::advance_time(now, delay);
    rec.order = engine_.next_order(i);
    rec.kind = pdes::EvKind::kDelivery;
    rec.link = static_cast<std::uint16_t>(k);
    rec.flags = flags;
    engine_.route(sh, dest, rec, payload);
    // The sender frees its own link when the transmission completes, so
    // the receiver's shard never writes the sender's link state.
    engine_.schedule(sh, i, rec.time, pdes::EvKind::kLinkFree, rec.link);
  }

  /// If a rule is enabled at node i and no execution is already pending,
  /// schedule one after the service (critical-section occupancy) delay.
  void maybe_schedule_execution(Shard& sh, std::size_t i, Time now) {
    if (exec_pending_[i]) return;
    if (nb_.enabled_rule(i, states_[i], view(i)) == stab::kDisabled) return;
    exec_pending_[i] = 1;
    const double service =
        params_.service_min + engine_.rng(i).uniform01() *
                                  (params_.service_max - params_.service_min);
    engine_.schedule(sh, i, pdes::advance_time(now, service),
                     pdes::EvKind::kExecute);
  }

  /// Algorithm 4 "on receipt": cache update, one rule execution, broadcast.
  void handle_delivery(Shard& sh, const pdes::HeapRec& rec, std::size_t v,
                       bool down) {
    ++sh.ctr.deliveries;
    if (rec.flags & pdes::kEvLost) {
      ++sh.ctr.losses;
      return;
    }
    const State payload = sh.slab.take(rec.slot);
    // A frame addressed to a scripted-down node was sent before the window
    // opened (frames sent during it are dropped at the sender): the radio
    // is off, so it is lost on arrival.
    if (down) {
      ++sh.ctr.losses;
      return;
    }
    // A first delivery names the sender's link; a ghost already carries
    // the receiver's cache slot.
    const bool is_ghost = (rec.flags & pdes::kEvDuplicate) != 0;
    const std::size_t slot =
        is_ghost ? rec.link
                 : nb_.receiver_slot(pdes::order_creator(rec.order), rec.link);
    // Duplication fault: replay this delivery once more after a fresh
    // delay. Duplicates can themselves not duplicate (one replay max).
    // The ghost is created (and keyed) by the receiver: it is a local
    // artifact of the receiver's radio, not a second transmission.
    if (!is_ghost) {
      Rng& rng = engine_.rng(v);
      const bool dup = rng.bernoulli(params_.duplicate_probability) ||
                       (rec.flags & pdes::kEvForceDuplicate) != 0;
      if (dup) {
        pdes::HeapRec ghost;
        ghost.time = pdes::advance_time(rec.time, params_.draw_delay(rng));
        ghost.order = engine_.next_order(v);
        ghost.kind = pdes::EvKind::kDelivery;
        ghost.link = static_cast<std::uint16_t>(slot);
        ghost.flags = pdes::kEvDuplicate;
        sh.push_delivery(ghost, payload);
      }
    }
    cache_[nb_.offset(v) + slot] = payload;
    maybe_schedule_execution(sh, v, rec.time);
    broadcast(sh, v, rec.time);
  }

  /// The deferred rule execution: re-evaluate against the current caches
  /// (they may have changed during the service window), apply, broadcast,
  /// and re-arm if the node is still enabled.
  void handle_execute(Shard& sh, std::size_t v, Time now, bool down) {
    SSR_ASSERT(exec_pending_[v], "execute event without a pending flag");
    exec_pending_[v] = 0;
    if (down) {
      // A down node executes no rules; the first delivery after the window
      // closes reschedules it.
      return;
    }
    const int rule = nb_.enabled_rule(v, states_[v], view(v));
    if (rule == stab::kDisabled) return;
    states_[v] = nb_.apply(v, rule, states_[v], view(v));
    ++sh.ctr.rule_executions;
    broadcast(sh, v, now);
    // Convergence rules can chain (e.g. Rule 5 then Rule 3) without any
    // further message arriving; keep the node scheduled while enabled.
    maybe_schedule_execution(sh, v, now);
  }

  void handle_timer(Shard& sh, std::size_t v, Time now, bool down) {
    double period = params_.refresh_interval;
    if (!down) {
      broadcast(sh, v, now);
      // Mild jitter avoids artificial lock-step among the nodes' timers.
      period *= 0.9 + 0.2 * engine_.rng(v).uniform01();
    }
    // A down node's radio is off, but its timer stays armed so it resumes
    // broadcasting when the window closes.
    engine_.schedule(sh, v, pdes::advance_time(now, period),
                     pdes::EvKind::kTimer);
  }

  void dispatch(Shard& sh, const pdes::HeapRec& rec) {
    const std::size_t creator = pdes::order_creator(rec.order);
    if (rec.kind == pdes::EvKind::kLinkFree) {
      // Pure bookkeeping on the sender side: not a protocol event (not
      // counted, not crash-gated).
      if (const State* parked =
              links_.release(nb_.offset(creator) + rec.link)) {
        transmit(sh, creator, rec.link, *parked, rec.time);
      }
      return;
    }
    // The acting node: the receiver for deliveries (a ghost's creator *is*
    // its receiver), the owner for timers and executions.
    const std::size_t v =
        (rec.kind == pdes::EvKind::kDelivery &&
         (rec.flags & pdes::kEvDuplicate) == 0)
            ? nb_.neighbor(creator, rec.link)
            : creator;
    bool down = false;
    if (has_windows_) {
      // Scripted crash/pause windows, checked on the event's own node.
      // Timers fire every refresh interval, so the crash reset lands
      // within one interval of the window opening.
      const double t_us = rec.time * params_.microseconds_per_tick;
      if (injector_.take_crash(v, t_us)) {
        states_[v] = State{};
        for (std::size_t k = 0; k < nb_.degree(v); ++k) {
          cache_[nb_.offset(v) + k] = State{};
        }
        ++sh.ctr.crash_restarts;
      }
      down = injector_.node_down(v, t_us);
    }
    switch (rec.kind) {
      case pdes::EvKind::kDelivery:
        // Delivered even while the receiver is down: the frame is counted
        // and discarded (see the down check in handle_delivery).
        handle_delivery(sh, rec, v, down);
        break;
      case pdes::EvKind::kTimer:
        handle_timer(sh, v, rec.time, down);
        break;
      case pdes::EvKind::kExecute:
        handle_execute(sh, v, rec.time, down);
        break;
      case pdes::EvKind::kLinkFree:
        break;  // handled above
    }
    ++sh.ctr.events;
    // Only the acting node's predicate can have changed (it reads nothing
    // but v's own state and caches); log the flip under the event's key.
    sh.note_flip(rec, v, eval_token(v), holder_bit_[v]);
  }

  Nbhd nb_;
  NetworkParams params_;
  IntervalObserver observer_;
  Rng aux_rng_;  ///< coordinator-only draws (randomize_caches)

  Config states_;
  std::vector<State> cache_;  ///< cache_[offset(i) + k]: view of neighbour k
  pdes::LinkTable<State> links_;  ///< index offset(i) + k
  std::vector<std::uint8_t> exec_pending_;
  std::vector<std::uint8_t> holder_bit_;  ///< current per-node predicate
  runtime::FaultInjector injector_;
  bool has_plan_ = false;
  bool has_windows_ = false;
  Engine engine_;

  std::vector<bool> holders_;  ///< maintained in merged flip order
  std::size_t holder_count_ = 0;
};

}  // namespace ssr::msgpass
