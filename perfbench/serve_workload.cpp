// Workload "serve-udp-100k": the multi-ring reactor (Theorems 3-4 on a
// real lossy socket path). 100k SSRmin rings of 4 nodes from random
// starts, two shards, loopback UDP. Layers: runtime (reactor, timer
// wheel) and wire (frame codec).
#include <memory>

#include "bench.hpp"
#include "core/state.hpp"
#include "runtime/reactor.hpp"
#include "runtime/timer_wheel.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"

namespace pb {
namespace {

using namespace ssr;
using std::chrono::microseconds;

struct ServeSize {
  std::size_t rings;
  microseconds duration;
  /// kVirtual probe run. Past the start-up kicks (the first 256 us) its
  /// frames are protocol broadcasts, as on kUdp, where refreshes are well
  /// under 1% of the frames.
  microseconds virtual_duration;
  std::uint64_t codec_frames;
  std::uint64_t timer_ticks;
};
constexpr ServeSize kFull{100'000, microseconds(3'000'000),
                          microseconds(2'000), 2'000'000, 50'000};
constexpr ServeSize kSmoke{256, microseconds(150'000), microseconds(2'000),
                           20'000, 500};

runtime::ReactorConfig reactor_config(const ServeSize& size,
                                      std::uint64_t seed,
                                      runtime::ReactorTransport transport) {
  runtime::ReactorConfig c;
  c.rings = size.rings;
  c.nodes = 4;
  c.protocol = runtime::RingProtocolKind::kSsrMin;
  c.shards = 2;
  c.transport = transport;
  c.start = runtime::RingStart::kRandom;
  c.seed = seed;
  c.refresh_interval = microseconds(5000);
  return c;
}

struct ServeRun {
  runtime::ReactorReport report;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time, all threads
};

ServeRun run_reactor(runtime::MultiRingReactor& reactor, microseconds duration,
                     Tracer& tracer, const char* name, int parent, int run,
                     Outcome& out) {
  Scope span(tracer, name, parent, run);
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  ServeRun r{reactor.run(duration)};
  r.cpu_s = process_cpu_s() - cpu0;
  r.wall_s = seconds_since(t0);
  const auto& rep = r.report;
  span.count("frames_sent", static_cast<double>(rep.frames_sent));
  span.count("frames_received", static_cast<double>(rep.frames_received));
  span.count("handovers", static_cast<double>(rep.handovers));
  span.count("refresh_broadcasts",
             static_cast<double>(rep.refresh_broadcasts));
  // Kernel receive drops are the lossy channel the protocol is built to
  // absorb; frames the program rejected or failed to send are failures.
  out.attempted += rep.frames_sent;
  out.failed += rep.frames_rejected + rep.send_errors;
  out.gate(rep.frames_received + rep.kernel_rx_drops <= rep.frames_sent,
           "received + kernel drops exceed frames sent", rep.frames_sent);
  return r;
}

/// Mean ns per frame of encode_frame_v2_into and decode_frame_any over
/// SSRmin state frames keyed by ring ids in [0, rings).
std::pair<double, double> codec_ns(std::size_t rings, std::uint64_t frames,
                                   std::uint64_t seed, Outcome& out) {
  Rng rng(seed);
  constexpr std::size_t kBatch = 4096;
  std::vector<wire::Bytes> payloads(kBatch);
  std::vector<std::uint64_t> ring_ids(kBatch), senders(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    core::SsrState s{static_cast<std::uint32_t>(rng.below(5)),
                     rng.below(2) == 1, rng.below(2) == 1};
    payloads[i] = wire::encode_state(s);
    ring_ids[i] = rng.below(rings);
    senders[i] = rng.below(4);
  }
  wire::Bytes arena;
  std::vector<std::pair<std::size_t, std::size_t>> spans(kBatch);
  double encode_s = 0.0, decode_s = 0.0;
  std::uint64_t bad = 0;
  for (std::uint64_t done = 0; done < frames; done += kBatch) {
    arena.clear();
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::size_t off = arena.size();
      wire::encode_frame_v2_into(arena, ring_ids[i], senders[i], payloads[i]);
      spans[i] = {off, arena.size() - off};
    }
    encode_s += seconds_since(t0);
    t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto f = wire::decode_frame_any(
          wire::ByteView(arena.data() + spans[i].first, spans[i].second));
      if (!f || f->ring_id != ring_ids[i] || f->sender != senders[i] ||
          f->payload != payloads[i]) {
        ++bad;
      }
    }
    decode_s += seconds_since(t0);
  }
  const double n = static_cast<double>((frames + kBatch - 1) / kBatch * kBatch);
  out.attempted += static_cast<std::uint64_t>(n);
  out.gate(bad == 0, "wire frame did not round-trip", bad);
  return {1e9 * encode_s / n, 1e9 * decode_s / n};
}

/// ns per fire-and-rearm on a TimerWheel holding @p live timers with
/// deadlines spread over the refresh horizon.
double timer_ns_per_op(std::size_t live, std::uint64_t ticks,
                       std::uint64_t seed) {
  constexpr std::uint64_t kHorizon = 5000;
  Rng rng(seed);
  runtime::TimerWheel wheel;
  for (std::size_t i = 0; i < live; ++i) {
    wheel.schedule_in(1 + rng.below(kHorizon), i);
  }
  std::vector<std::uint64_t> fired;
  std::uint64_t ops = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t t = 1; t <= ticks; ++t) {
    fired.clear();
    wheel.advance_to(wheel.now() + 1, fired);
    for (std::uint64_t cookie : fired) {
      wheel.schedule_in(1 + rng.below(kHorizon), cookie);
    }
    ops += fired.size();
  }
  return 1e9 * seconds_since(t0) /
         static_cast<double>(std::max<std::uint64_t>(ops, 1));
}

}  // namespace

Outcome run_serve(const RunConfig& cfg, Tracer& tracer) {
  const ServeSize size = cfg.smoke ? kSmoke : kFull;
  Outcome out;
  const auto udp = runtime::ReactorTransport::kUdp;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    auto r = std::make_unique<runtime::MultiRingReactor>(
        reactor_config(size, cfg.seed, udp));
    out.sample("setup_s", seconds_since(t0));
    return r;
  };
  if (!cfg.trace) {
    // Extra set-ups around every repetition; each reactor is destroyed
    // before the next is built, so they do not raise the peak RSS.
    const auto sample_setups = [&] {
      for (int i = 0; i < 3; ++i) timed_setup();
    };
    sample_setups();
    repeat_for(cfg.seconds, 2, [&](int rep) {
      {
        auto reactor = timed_setup();
        const ServeRun r = run_reactor(*reactor, size.duration, tracer,
                                       "runtime.run", -1, rep, out);
        const double secs = r.report.duration_us / 1e6;
        out.sample("ops_per_s", r.report.handovers_per_sec);
        out.sample("side_per_s",
                   static_cast<double>(r.report.frames_received) / secs);
        out.sample("good_frac",
                   static_cast<double>(r.report.rings_legitimate) /
                       static_cast<double>(r.report.rings));
      }
      sample_setups();
    });
    set_end_to_end_metrics(out);
    return out;
  }

  Tracer off(false);
  const ServeRun plain = run_reactor(*timed_setup(), size.duration, off,
                                     "runtime.run", -1, 0, out);
  std::unique_ptr<runtime::MultiRingReactor> reactor;
  {
    Scope span(tracer, "runtime.setup", -1, 1);
    reactor = std::make_unique<runtime::MultiRingReactor>(
        reactor_config(size, cfg.seed, udp));
  }
  ServeRun r;
  {
    Scope root(tracer, "bench.job", -1, 1);
    r = run_reactor(*reactor, size.duration, tracer, "runtime.run", root.id(),
                    1, out);
  }
  const auto& rep = r.report;
  out.metrics["trace.overhead_s"] = r.wall_s - plain.wall_s;
  out.metrics["trace.overhead_frac"] =
      plain.report.handovers_per_sec / rep.handovers_per_sec - 1.0;
  const double sent = static_cast<double>(rep.frames_sent);
  out.metrics["runtime.frames_sent"] = sent;
  out.metrics["runtime.frames_received"] =
      static_cast<double>(rep.frames_received);
  out.metrics["runtime.kernel_drop_frac"] =
      static_cast<double>(rep.kernel_rx_drops) / sent;
  out.metrics["runtime.rejected"] = static_cast<double>(rep.frames_rejected);
  out.metrics["runtime.refresh_frac"] =
      static_cast<double>(rep.refresh_broadcasts) / sent;
  out.metrics["runtime.handovers_per_frame"] =
      static_cast<double>(rep.handovers) / sent;
  out.metrics["runtime.handover_gap_p50_ms"] = rep.p50_us / 1e3;
  out.metrics["runtime.handover_gap_p99_ms"] = rep.p99_us / 1e3;
  // CPU time, not shard-thread wall time: an idle shard blocks in
  // epoll_wait, which would otherwise count as per-frame cost.
  const double udp_us = 1e6 * r.cpu_s / sent;
  out.metrics["runtime.udp_us_per_frame"] = udp_us;

  {
    std::unique_ptr<runtime::MultiRingReactor> virt;
    {
      Scope span(tracer, "runtime.setup", -1, 2);
      virt = std::make_unique<runtime::MultiRingReactor>(reactor_config(
          size, cfg.seed, runtime::ReactorTransport::kVirtual));
    }
    const ServeRun v = run_reactor(*virt, size.virtual_duration, tracer,
                                   "runtime.run_virtual", -1, 2, out);
    const double virt_us =
        1e6 * v.cpu_s / static_cast<double>(v.report.frames_sent);
    out.metrics["runtime.virtual_us_per_frame"] = virt_us;
    out.metrics["runtime.socket_share"] = 1.0 - virt_us / udp_us;
  }
  {
    Scope span(tracer, "wire.codec", -1, 3);
    const auto [enc, dec] =
        codec_ns(size.rings, size.codec_frames, cfg.seed, out);
    out.metrics["wire.encode_ns"] = enc;
    out.metrics["wire.decode_ns"] = dec;
  }
  {
    Scope span(tracer, "runtime.timer_hold", -1, 4);
    out.metrics["runtime.timer_ns_per_op"] =
        timer_ns_per_op(size.rings, size.timer_ticks, cfg.seed);
  }
  return out;
}

}  // namespace pb
