// The sharded conservative parallel discrete-event engine the CST
// simulator (msgpass::CstSimulation, for rings and, through
// graph::GraphCstSimulation, general graphs) runs on. ShardedEngine owns
// the shards, the boundary exchange and the round loop; the simulator
// supplies only its protocol's event dispatch.
//
// The execution model is conservative, null-message-free PDES on global
// lookahead windows:
//
//   * the node set is partitioned into W contiguous shards, each owned by
//     one worker with its own event heap, payload slab and flip log;
//   * every cross-node event is a message delivery, and a message can
//     never arrive earlier than `delay_min` after it was sent — the
//     link's minimum transit delay is an *exact* lookahead;
//   * a round therefore processes, in parallel, every event with
//     timestamp strictly below  H = T_next + delay_min  where T_next is
//     the global minimum pending event time: any delivery generated
//     during the round lands at or beyond H (correctly-rounded double
//     addition is monotone, so this holds exactly, not just in real
//     arithmetic). Boundary deliveries are exchanged at the barrier.
//
// Determinism contract (the repo's bit-identical bar): the trajectory is
// a pure function of (seed, parameters), independent of the worker count
// and of the partition, because
//
//   * every node draws randomness only from its own stream_rng(seed, i)
//     stream, and only while one of its events is being handled;
//   * every event carries a totally ordered key (time, creator, seq)
//     where seq is the creator's private counter; each shard pops its
//     heap in key order, so per-node draw order is key order, which is a
//     global trajectory fact;
//   * statistics that depend on the *interleaving* of events (holder-set
//     flips) are logged per shard with their event keys and merged in key
//     order before integration, so zero-token dwell, handover counts and
//     observer callbacks see the exact sequence the one-worker run sees.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ssr::msgpass {

/// Simulated time, in abstract ticks.
///
/// Precision regime: Time stays a double. Every scheduling step adds a
/// strictly positive delta (delay >= delay_min, service >= service_min,
/// refresh > 0) to the current event time, which advances the clock
/// exactly while `now / delta < 2^52` — for the default delay_min = 0.5
/// that is ~2.2e15 ticks, far beyond any run this repo performs. The
/// simulators assert the sum actually advanced (see pdes::advance_time)
/// and that pops never regress, so a run that ever left the safe regime
/// fails loudly instead of silently freezing virtual time.
using Time = double;

/// Observer invoked once per inter-flip interval [from, to) with the
/// holder set that was in force throughout it.
using IntervalObserver =
    std::function<void(Time from, Time to, const std::vector<bool>& holders)>;

/// Aggregate results of a simulation window.
struct CoverageStats {
  Time observed_time = 0.0;     ///< simulated time integrated
  Time zero_token_time = 0.0;   ///< time with no token-holding node
  std::size_t zero_intervals = 0;  ///< maximal intervals with zero holders
  /// Extremes of the holder count over the window, the window's initial
  /// count included.
  std::size_t min_holders = std::numeric_limits<std::size_t>::max();
  std::size_t max_holders = 0;
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t transmissions = 0;  ///< sends that entered a link
  std::uint64_t losses = 0;         ///< random + window-dropped + corrupted
  std::uint64_t rule_executions = 0;
  std::uint64_t crash_restarts = 0;
  /// Number of times the set of token-holding nodes changed.
  std::uint64_t handovers = 0;

  /// Fraction of observed time with at least one holder (the paper's
  /// continuous-observation guarantee).
  double coverage() const {
    return observed_time > 0.0 ? 1.0 - zero_token_time / observed_time : 1.0;
  }
};

/// Resolves a NetworkParams::workers request against a node count.
inline std::size_t resolve_workers(std::size_t requested, std::size_t n) {
  std::size_t w = requested != 0
                      ? requested
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency());
  w = std::min<std::size_t>(w, 1024);  // ThreadPool's own cap
  return std::max<std::size_t>(1, std::min(w, n));
}

namespace pdes {

/// `at = now + delta` with the monotonicity assert of the Time contract.
inline Time advance_time(Time now, double delta) {
  const Time at = now + delta;
  SSR_ASSERT(at > now,
             "virtual clock failed to advance (Time precision exhausted; "
             "see the safe-regime note on msgpass::Time)");
  return at;
}

/// Balanced contiguous partition of n nodes into `shards` arcs.
class ShardLayout {
 public:
  ShardLayout() = default;
  ShardLayout(std::size_t n, std::size_t shards) : shards_(shards) {
    SSR_REQUIRE(shards >= 1 && shards <= n, "shard count must be in [1, n]");
    base_ = n / shards;
    extra_ = n % shards;  // shards [0, extra_) own base_+1 nodes
  }

  std::size_t begin(std::size_t s) const {
    return s < extra_ ? s * (base_ + 1) : extra_ * (base_ + 1) + (s - extra_) * base_;
  }
  std::size_t end(std::size_t s) const { return begin(s + 1 <= shards_ ? s + 1 : shards_); }

  std::size_t shard_of(std::size_t node) const {
    const std::size_t pivot = extra_ * (base_ + 1);
    if (node < pivot) return node / (base_ + 1);
    return extra_ + (node - pivot) / base_;
  }

 private:
  std::size_t shards_ = 1;
  std::size_t base_ = 1;
  std::size_t extra_ = 0;
};

enum class EvKind : std::uint8_t {
  kDelivery = 0,  ///< message arrival at the receiver
  kTimer = 1,     ///< CST refresh broadcast
  kExecute = 2,   ///< deferred rule execution after the service delay
  kLinkFree = 3,  ///< the sender's link completes its transmission
};

inline constexpr std::uint8_t kEvLost = 1;            ///< frame decided lost
inline constexpr std::uint8_t kEvDuplicate = 2;       ///< ghost re-delivery
inline constexpr std::uint8_t kEvForceDuplicate = 4;  ///< injector-scripted

inline constexpr std::uint32_t kNoSlot =
    std::numeric_limits<std::uint32_t>::max();

/// Composite event key component: (creator << 32) | creator's seq. Keys
/// are unique (one counter bump per created event) and identical at every
/// worker count, because each node's counter only moves while one of its
/// events is handled — in key order.
inline std::uint64_t make_order(std::size_t creator, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(creator) << 32) | seq;
}
inline std::size_t order_creator(std::uint64_t order) {
  return static_cast<std::size_t>(order >> 32);
}

/// Slim heap record: 24 bytes, no payload — payloads live in a per-shard
/// slab, so a heap sift moves keys only.
struct HeapRec {
  Time time = 0.0;
  std::uint64_t order = 0;       ///< (creator, seq) tie-break
  std::uint32_t slot = kNoSlot;  ///< payload slab index
  EvKind kind = EvKind::kTimer;
  std::uint8_t flags = 0;  ///< kEv* bits
  /// Sender-local link index (deliveries, link-free records); a duplicate
  /// ghost carries the receiver's cache slot instead.
  std::uint16_t link = 0;
};
static_assert(sizeof(HeapRec) == 24, "HeapRec must stay one 24-byte record");

struct HeapRecGreater {
  bool operator()(const HeapRec& a, const HeapRec& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.order > b.order;
  }
};

using EventHeap =
    std::priority_queue<HeapRec, std::vector<HeapRec>, HeapRecGreater>;

/// An EventHeap whose backing vector is reserved up front.
inline EventHeap make_heap_reserved(std::size_t capacity) {
  std::vector<HeapRec> backing;
  backing.reserve(capacity);
  return EventHeap(HeapRecGreater{}, std::move(backing));
}

/// Free-list slab of by-value payloads, one per in-flight message copy.
template <typename Payload>
class PayloadSlab {
 public:
  void reserve(std::size_t capacity) { slots_.reserve(capacity); }

  std::uint32_t intern(const Payload& p) {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      slots_[idx] = p;
      return idx;
    }
    slots_.push_back(p);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Reads slot @p idx and returns it to the free list.
  Payload take(std::uint32_t idx) {
    SSR_ASSERT(idx < slots_.size(), "payload slab index out of range");
    free_.push_back(idx);
    return slots_[idx];
  }

 private:
  std::vector<Payload> slots_;
  std::vector<std::uint32_t> free_;
};

/// One holder-predicate flip, logged by the owning shard in key order.
struct FlipEntry {
  Time time = 0.0;
  std::uint64_t order = 0;
  std::uint32_t node = 0;
  std::uint8_t value = 0;  ///< predicate value after the event
};

/// Per-shard counters; plain sums, so any merge order is exact.
struct ShardCounters {
  std::uint64_t events = 0;  ///< deliveries + timers + executions processed
  std::uint64_t deliveries = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t losses = 0;
  std::uint64_t rule_executions = 0;
  std::uint64_t crash_restarts = 0;
};

/// Integrates the global holder-count function over a run window from the
/// deterministic (time, order) merge of the shards' flip logs. All
/// floating-point accumulation happens here, in merged key order, which
/// is what keeps zero-token dwell (and the telemetry JSON fed through the
/// observer) byte-identical at every worker count.
class CoverageAccumulator {
 public:
  /// @param holders  current per-node holder bits, maintained across
  ///                 flips iff an observer is attached (may be null)
  CoverageAccumulator(Time start, std::size_t initial_count,
                      std::vector<bool>* holders,
                      const IntervalObserver* observer)
      : cursor_(start),
        count_(initial_count),
        min_(initial_count),
        max_(initial_count),
        in_zero_(initial_count == 0),
        holders_(holders),
        observer_(observer) {}

  std::size_t count() const { return count_; }

  /// Writes the integrated holder statistics of the window into @p s.
  void report(CoverageStats& s) const {
    s.zero_token_time = zero_time_;
    s.zero_intervals = static_cast<std::size_t>(zero_intervals_);
    s.handovers = handovers_;
    s.min_holders = min_;
    s.max_holders = max_;
  }

  /// Consumes the shards' flip logs (each already sorted by key, because
  /// shards pop their heaps in key order) as one merged sequence, then
  /// clears them.
  void merge_shards(std::vector<std::vector<FlipEntry>*>& logs) {
    cursors_.assign(logs.size(), 0);
    for (;;) {
      std::size_t best = logs.size();
      for (std::size_t s = 0; s < logs.size(); ++s) {
        if (cursors_[s] >= logs[s]->size()) continue;
        const FlipEntry& e = (*logs[s])[cursors_[s]];
        if (best == logs.size() || before(e, (*logs[best])[cursors_[best]])) {
          best = s;
        }
      }
      if (best == logs.size()) break;
      apply((*logs[best])[cursors_[best]]);
      ++cursors_[best];
    }
    for (auto* log : logs) log->clear();
  }

  /// Closes the integration at @p end (the run deadline or stop horizon).
  void finish(Time end) {
    const Time dt = end - cursor_;
    SSR_ASSERT(dt >= -0.0, "coverage integration ran backwards");
    if (dt > 0.0) {
      if (count_ == 0) zero_time_ += dt;
      if (observer_ != nullptr && *observer_ && holders_ != nullptr) {
        (*observer_)(cursor_, end, *holders_);
      }
      cursor_ = end;
    }
  }

 private:
  static bool before(const FlipEntry& a, const FlipEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.order < b.order;
  }

  void apply(const FlipEntry& e) {
    finish(e.time);  // integrate [cursor_, e.time) under the old count
    ++handovers_;
    if (e.value != 0) {
      ++count_;
    } else {
      SSR_ASSERT(count_ > 0, "holder count underflow in flip merge");
      --count_;
    }
    if (holders_ != nullptr) (*holders_)[e.node] = e.value != 0;
    if (count_ == 0 && !in_zero_) {
      ++zero_intervals_;
      in_zero_ = true;
    } else if (count_ > 0) {
      in_zero_ = false;
    }
    min_ = std::min(min_, count_);
    max_ = std::max(max_, count_);
  }

  Time cursor_;
  std::size_t count_;
  std::size_t min_;
  std::size_t max_;
  bool in_zero_;
  Time zero_time_ = 0.0;
  std::uint64_t zero_intervals_ = 0;
  std::uint64_t handovers_ = 0;
  std::vector<bool>* holders_;
  const IntervalObserver* observer_;
  std::vector<std::size_t> cursors_;
};

/// A delivery crossing a shard boundary, staged in the sender shard's
/// outbox until the round barrier.
template <typename Payload>
struct BoundaryFrame {
  HeapRec rec;
  Payload payload{};
};

/// One worker's slice of the node set and everything it owns.
template <typename Payload>
struct alignas(64) Shard {
  std::size_t id = 0;
  EventHeap heap;
  PayloadSlab<Payload> slab;
  std::vector<FlipEntry> flips;
  std::vector<std::vector<BoundaryFrame<Payload>>> outbox;  ///< per dest shard
  Time clock = 0.0;  ///< last popped event time (monotonicity guard)
  ShardCounters ctr;

  /// Queues a delivery on this shard's own heap; a lost frame carries no
  /// payload slot.
  void push_delivery(HeapRec rec, const Payload& payload) {
    rec.slot = (rec.flags & kEvLost) ? kNoSlot : slab.intern(payload);
    heap.push(rec);
  }

  /// Logs node @p v's predicate flip under the event's key if @p post
  /// differs from the node's current bit, and updates the bit.
  void note_flip(const HeapRec& rec, std::size_t v, bool post,
                 std::uint8_t& bit) {
    if (post == (bit != 0)) return;
    bit = post ? 1 : 0;
    flips.push_back({rec.time, rec.order, static_cast<std::uint32_t>(v),
                     static_cast<std::uint8_t>(post)});
  }
};

/// Directed links carrying one message at a time (paper §5 ¶1): a send
/// onto a busy link parks the newest state, which goes out the moment the
/// link frees (a node broadcasting its current state never needs more).
template <typename State>
class LinkTable {
 public:
  void resize(std::size_t links) {
    busy_.assign(links, 0);
    has_pending_.assign(links, 0);
    pending_.resize(links);
  }

  /// Claims link @p e for @p s; if the link is busy, parks @p s in place of
  /// any older parked state and returns false.
  bool claim_or_park(std::size_t e, const State& s) {
    if (busy_[e]) {
      pending_[e] = s;
      has_pending_[e] = 1;
      return false;
    }
    busy_[e] = 1;
    return true;
  }

  /// Completes the transmission on link @p e. Returns the parked state,
  /// for which the link stays claimed, or null when the link goes idle.
  const State* release(std::size_t e) {
    SSR_ASSERT(busy_[e], "link-free on an idle link");
    if (!has_pending_[e]) {
      busy_[e] = 0;
      return nullptr;
    }
    has_pending_[e] = 0;
    return &pending_[e];
  }

 private:
  std::vector<std::uint8_t> busy_;
  std::vector<std::uint8_t> has_pending_;
  std::vector<State> pending_;
};

/// Initial reservations for one shard owning nodes [lo, hi).
struct ShardReserve {
  std::size_t heap = 0;
  std::size_t slab = 0;
};

/// The shard set, the per-node RNG streams and event keys, and the
/// conservative round loop the CST simulator runs on. A simulator
/// supplies only its protocol: a dispatch(shard, record) handler that may
/// schedule events on the shard's own heap (any time) and route
/// deliveries to other nodes (at least `lookahead` in the future).
template <typename Payload>
class ShardedEngine {
 public:
  using ShardT = Shard<Payload>;

  ShardedEngine() = default;

  /// @param reserve  (lo, hi) -> ShardReserve for the shard owning [lo, hi)
  template <typename ReserveFn>
  ShardedEngine(std::size_t n, std::size_t workers, Time lookahead,
                std::uint64_t seed, ReserveFn&& reserve)
      : layout_(n, workers),
        lookahead_(lookahead),
        node_seq_(n, 0),
        shards_(workers) {
    node_rng_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      node_rng_.push_back(stream_rng(seed, i));
    }
    for (std::size_t s = 0; s < workers; ++s) {
      ShardT& sh = shards_[s];
      sh.id = s;
      const ShardReserve r = reserve(layout_.begin(s), layout_.end(s));
      sh.heap = make_heap_reserved(r.heap);
      sh.slab.reserve(r.slab);
      sh.outbox.resize(workers);
    }
  }

  std::size_t workers() const { return shards_.size(); }
  Time now() const { return now_; }
  /// Whether the last run ended on its stop predicate.
  bool stopped() const { return stopped_; }

  ShardT& shard_of(std::size_t node) { return shards_[layout_.shard_of(node)]; }

  /// Node @p i's private stream, stream_rng(seed, i); draw from it only
  /// while handling one of i's events.
  Rng& rng(std::size_t i) { return node_rng_[i]; }

  /// A fresh key for an event created by node @p i.
  std::uint64_t next_order(std::size_t i) {
    return make_order(i, node_seq_[i]++);
  }

  /// Queues an event node @p i creates for itself on its shard @p sh.
  void schedule(ShardT& sh, std::size_t i, Time time, EvKind kind,
                std::uint16_t link = 0) {
    HeapRec rec;
    rec.time = time;
    rec.order = next_order(i);
    rec.kind = kind;
    rec.link = link;
    sh.heap.push(rec);
  }

  /// Sends a delivery from shard @p from to node @p dest: straight onto
  /// the sender's heap when @p dest is local, else into the outbox for the
  /// barrier exchange.
  void route(ShardT& from, std::size_t dest, const HeapRec& rec,
             const Payload& payload) {
    const std::size_t to = layout_.shard_of(dest);
    if (to == from.id) {
      from.push_delivery(rec, payload);
    } else {
      from.outbox[to].push_back({rec, payload});
    }
  }

  /// Runs rounds until the deadline or until stop() holds at a round
  /// horizon, integrating coverage from the merged flip logs.
  /// @param holder_count  the current holder count; kept equal to the
  ///                      merged count after every round
  /// @param holders       per-node holder bits, maintained in merged flip
  ///                      order when non-null
  template <typename DispatchFn, typename StopFn>
  CoverageStats run(Time deadline, std::size_t& holder_count,
                    std::vector<bool>* holders,
                    const IntervalObserver* observer, DispatchFn&& dispatch,
                    StopFn&& stop) {
    CoverageStats stats;
    stopped_ = false;
    for (ShardT& sh : shards_) sh.ctr = ShardCounters{};
    const Time start = now_;
    CoverageAccumulator acc(start, holder_count, holders, observer);
    std::vector<std::vector<FlipEntry>*> flip_logs;
    flip_logs.reserve(shards_.size());
    for (ShardT& sh : shards_) flip_logs.push_back(&sh.flips);
    if (shards_.size() > 1 && pool_ == nullptr) {
      pool_ = std::make_unique<util::ThreadPool>(shards_.size());
    }

    // stop() is checked at entry and after every round; a run stopped at
    // entry reports an empty window whose extremes are the current count.
    for (;;) {
      if (stop()) {
        stopped_ = true;
        break;
      }
      Time t_next = std::numeric_limits<Time>::infinity();
      for (const ShardT& sh : shards_) {
        if (!sh.heap.empty()) t_next = std::min(t_next, sh.heap.top().time);
      }
      if (t_next > deadline) break;  // also catches all-heaps-empty
      // Conservative window: every event in [t_next, horizon) may be
      // processed now, because any delivery it generates is at least
      // lookahead away and so lands at or beyond the horizon (monotone
      // rounding: fl(a + b) >= fl(t_next + lookahead) for a >= t_next,
      // b >= lookahead). advance_time doubles as the progress guard.
      const Time horizon = advance_time(t_next, lookahead_);
      if (shards_.size() == 1) {
        process_shard(shards_[0], horizon, deadline, dispatch);
      } else {
        pool_->run_on_all([&](std::size_t w) {
          for (auto& box : shards_[w].outbox) box.clear();
          process_shard(shards_[w], horizon, deadline, dispatch);
        });
        pool_->run_on_all([&](std::size_t w) { drain_inbound(w); });
      }
      acc.merge_shards(flip_logs);
      holder_count = acc.count();
      now_ = std::min(horizon, deadline);
    }
    if (!stopped_ && now_ < deadline) now_ = deadline;
    acc.finish(now_);
    holder_count = acc.count();
    stats.observed_time = now_ - start;
    acc.report(stats);
    for (const ShardT& sh : shards_) {
      stats.events += sh.ctr.events;
      stats.deliveries += sh.ctr.deliveries;
      stats.transmissions += sh.ctr.transmissions;
      stats.losses += sh.ctr.losses;
      stats.rule_executions += sh.ctr.rule_executions;
      stats.crash_restarts += sh.ctr.crash_restarts;
    }
    return stats;
  }

 private:
  /// One round's worth of events for one shard: everything strictly below
  /// the horizon (and at or below the run deadline), in key order.
  template <typename DispatchFn>
  static void process_shard(ShardT& sh, Time horizon, Time deadline,
                            DispatchFn& dispatch) {
    while (!sh.heap.empty()) {
      const HeapRec rec = sh.heap.top();
      if (rec.time >= horizon || rec.time > deadline) break;
      SSR_ASSERT(rec.time >= sh.clock,
                 "event pop regressed below the shard clock (lookahead or "
                 "Time-precision violation)");
      sh.clock = rec.time;
      sh.heap.pop();
      dispatch(sh, rec);
    }
  }

  /// Moves boundary deliveries staged for shard w into its heap. Runs
  /// after the processing barrier: it reads other shards' outboxes and
  /// writes only shard w's heap and slab.
  void drain_inbound(std::size_t w) {
    ShardT& sh = shards_[w];
    for (std::size_t o = 0; o < shards_.size(); ++o) {
      if (o == w) continue;
      for (const BoundaryFrame<Payload>& f : shards_[o].outbox[w]) {
        sh.push_delivery(f.rec, f.payload);
      }
    }
  }

  ShardLayout layout_;
  Time lookahead_ = 0.0;
  Time now_ = 0.0;
  bool stopped_ = false;
  std::vector<Rng> node_rng_;
  std::vector<std::uint32_t> node_seq_;  ///< per-node event key counter
  std::vector<ShardT> shards_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< lazily created when W > 1
};

}  // namespace pdes
}  // namespace ssr::msgpass
