// Multi-ring reactor tests: hundreds of independent rings multiplexed on
// one event loop must each behave exactly like a single-ring runtime —
// stabilize from arbitrary states, survive per-ring scripted faults, and
// (virtual transport) reproduce telemetry byte-for-byte from the seed.
// The one-ring UDP tests pin the loopback runtime behind `ssring run-udp`:
// graceful handover over real sockets, CRC rejection, fault accounting and
// a receive path that counts every malformed datagram.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/state.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/net_util.hpp"
#include "runtime/reactor.hpp"
#include "wire/codec.hpp"

namespace ssr::runtime {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

ReactorConfig mixed_config(std::size_t rings, std::uint64_t seed) {
  ReactorConfig config;
  config.rings = rings;
  config.nodes = 4;
  config.mixed = true;  // cycle ssrmin / kstate / dual across rings
  config.transport = ReactorTransport::kVirtual;
  config.start = RingStart::kRandom;
  config.seed = seed;
  config.refresh_interval = microseconds(5000);
  return config;
}

// 256 mixed-protocol rings from random configurations: every single ring
// must converge to a legitimate configuration with at least one token
// holder, and tokens must keep circulating (handovers accumulate).
TEST(MultiRing, MixedRingsAllStabilizeFromRandomStates) {
  MultiRingReactor reactor(mixed_config(256, 42));
  const ReactorReport report = reactor.run(milliseconds(120));

  EXPECT_EQ(report.rings, 256u);
  EXPECT_EQ(report.rings_legitimate, 256u) << "some rings never stabilized";
  EXPECT_EQ(report.rings_with_holder, 256u);
  EXPECT_GT(report.handovers, 256u * 10);
  EXPECT_GT(report.frames_sent, 0u);
  EXPECT_GT(report.frames_received, 0u);
  EXPECT_GT(report.handovers_per_sec, 0.0);
  // Token circulation means handover intervals were recorded.
  EXPECT_GT(report.p50_us, 0.0);
  EXPECT_GE(report.p99_us, report.p50_us);
  EXPECT_GE(report.p999_us, report.p99_us);

  // Per-ring: every ring executed rules and gained tokens independently.
  for (std::size_t r = 0; r < 256; ++r) {
    EXPECT_TRUE(reactor.table().is_legitimate(r)) << "ring " << r;
    EXPECT_GT(reactor.table().counters(r).handovers, 0u) << "ring " << r;
  }
}

// Scripted fault windows apply to each ring independently: burst loss,
// a ring partition and two crash-restarts with state reset. Every ring
// must re-stabilize after the last window closes.
TEST(MultiRing, ScriptedCrashAndPartitionWindowsReStabilize) {
  ReactorConfig config = mixed_config(256, 7);
  config.fault_plan = FaultPlan::parse(
      "burst@20ms-26ms;"
      "partition@30ms-36ms:cut=0/2;"
      "crash@50ms-51ms:node=1;"
      "crash@70ms-71ms:node=2");
  MultiRingReactor reactor(config);
  const ReactorReport report = reactor.run(milliseconds(160));

  // Both crash windows fired on every ring.
  EXPECT_EQ(report.crash_restarts, 2u * 256u);
  // Burst loss actually dropped traffic.
  EXPECT_GT(report.frames_dropped, 0u);
  // Loss-recovery refreshes kicked idle rings back to life.
  EXPECT_GT(report.refresh_broadcasts, 0u);
  // And every ring recovered to a legitimate circulating state.
  EXPECT_EQ(report.rings_legitimate, 256u) << "a ring failed to re-stabilize";
  EXPECT_EQ(report.rings_with_holder, 256u);
  for (std::size_t r = 0; r < 256; ++r) {
    EXPECT_TRUE(reactor.table().is_legitimate(r)) << "ring " << r;
    EXPECT_EQ(reactor.table().counters(r).crash_restarts, 2u) << "ring " << r;
  }
}

// The virtual transport is a pure function of (config, seed): two reactors
// with identical configs must produce byte-identical telemetry JSON,
// including per-ring PR-3 Telemetry blocks, and a different seed must not.
TEST(MultiRing, SeededTelemetryJsonIsByteDeterministic) {
  ReactorConfig config = mixed_config(48, 20260809);
  config.per_ring_telemetry = true;
  config.fault_plan = FaultPlan::parse("drop=0.02;crash@15ms-16ms:node=0");

  MultiRingReactor a(config);
  MultiRingReactor b(config);
  const ReactorReport ra = a.run(milliseconds(60));
  const ReactorReport rb = b.run(milliseconds(60));
  EXPECT_EQ(ra.handovers, rb.handovers);
  EXPECT_EQ(ra.frames_sent, rb.frames_sent);
  EXPECT_EQ(ra.rule_executions, rb.rule_executions);

  const std::string ja = a.telemetry_json(ra).dump(2);
  const std::string jb = b.telemetry_json(rb).dump(2);
  EXPECT_EQ(ja, jb) << "seeded virtual runs must be byte-reproducible";
  EXPECT_NE(ja.find("\"schema\": \"ssr-multiring-telemetry-v1\""),
            std::string::npos);
  EXPECT_NE(ja.find("ssr-telemetry-v1"), std::string::npos)
      << "per-ring PR-3 telemetry blocks missing";

  ReactorConfig other = config;
  other.seed = 99;
  MultiRingReactor c(other);
  const ReactorReport rc = c.run(milliseconds(60));
  EXPECT_NE(ja, c.telemetry_json(rc).dump(2))
      << "different seeds should diverge";
}

// A plan whose windows never match must consume zero RNG draws on the
// frame path: a run with no plan at all and a run with a far-future
// window must produce identical protocol evolution.
TEST(MultiRing, InertFaultPlanDoesNotPerturbDeterminism) {
  ReactorConfig bare = mixed_config(32, 5);
  ReactorConfig inert = mixed_config(32, 5);
  // Window far beyond the run: matches nothing, but exercises the
  // window-scan path on every frame.
  inert.fault_plan = FaultPlan::parse("burst@10s-11s");

  MultiRingReactor a(bare);
  MultiRingReactor b(inert);
  const ReactorReport ra = a.run(milliseconds(40));
  const ReactorReport rb = b.run(milliseconds(40));
  EXPECT_EQ(ra.handovers, rb.handovers);
  EXPECT_EQ(ra.frames_sent, rb.frames_sent);
  EXPECT_EQ(ra.rule_executions, rb.rule_executions);
  for (std::size_t r = 0; r < 32; ++r) {
    EXPECT_EQ(a.table().holder_mask(r), b.table().holder_mask(r))
        << "ring " << r;
  }
}

// Legitimate-start rings never lose legitimacy under a clean transport
// (closure of the legitimate set, multi-ring edition).
TEST(MultiRing, LegitimateStartStaysLegitimate) {
  ReactorConfig config = mixed_config(64, 3);
  config.start = RingStart::kLegitimate;
  MultiRingReactor reactor(config);
  const ReactorReport report = reactor.run(milliseconds(50));
  EXPECT_EQ(report.rings_legitimate, 64u);
  EXPECT_EQ(report.rings_with_holder, 64u);
  EXPECT_GT(report.handovers, 0u);
}

// The real epoll/recvmmsg path: shard threads on loopback sockets. Timing
// is nondeterministic, so assertions are structural — traffic flowed,
// rings stabilized, and kernel-buffer drops are surfaced (not asserted
// zero: a loaded CI box may overflow, which is exactly what the counter
// is for).
TEST(MultiRing, UdpTransportHostsRingsOnSharedSockets) {
  ReactorConfig config = mixed_config(64, 11);
  config.transport = ReactorTransport::kUdp;
  config.shards = 2;
  config.refresh_interval = microseconds(2000);
  MultiRingReactor reactor(config);
  const ReactorReport report = reactor.run(milliseconds(400));

  EXPECT_EQ(report.shards, 2u);
  EXPECT_GT(report.frames_sent, 0u);
  EXPECT_GT(report.frames_received, 0u);
  EXPECT_GT(report.handovers, 0u);
  // Loopback with refresh recovery: every ring stabilizes in 400ms
  // (refresh makes this robust even if early bursts overflowed the
  // socket buffer).
  EXPECT_EQ(report.rings_legitimate, 64u);
  EXPECT_EQ(report.rings_with_holder, 64u);
}

// The liveness measure must still catch a dead token: when every node of
// every ring crashes at 250 ms and stays down past the end of the run, no
// ring may be reported live — while the same rings without the fault plan
// all are.
TEST(MultiRing, RingsCrashedThroughTheEndAreNotLive) {
  ReactorConfig config = mixed_config(3, 5);
  config.start = RingStart::kLegitimate;
  config.refresh_interval = microseconds(2000);
  MultiRingReactor healthy(config);
  EXPECT_EQ(healthy.run(milliseconds(400)).rings_with_holder, 3u);

  config.fault_plan = FaultPlan::parse(
      "crash@250ms-1000ms:node=0;crash@250ms-1000ms:node=1;"
      "crash@250ms-1000ms:node=2;crash@250ms-1000ms:node=3");
  MultiRingReactor crashed(config);
  const ReactorReport report = crashed.run(milliseconds(400));
  EXPECT_EQ(report.crash_restarts, 3u * 4u);
  EXPECT_EQ(report.rings_with_holder, 0u);
}

// One SSRmin ring of four nodes over loopback UDP from the canonical
// legitimate configuration, with its holder timeline recorded.
ReactorConfig one_ring_udp_config(std::uint64_t seed, const char* plan = "") {
  ReactorConfig config;
  config.rings = 1;
  config.nodes = 4;
  config.transport = ReactorTransport::kUdp;
  config.start = RingStart::kLegitimate;
  config.refresh_interval = microseconds(1000);
  config.seed = seed;
  config.fault_plan = FaultPlan::parse(plan);
  config.per_ring_telemetry = true;
  return config;
}

// Theorem 3 over real sockets: at every holder transition of a legitimate
// ring at least one and at most two nodes hold a token in their own view.
TEST(MultiRingUdp, SingleRingHandsOverGracefully) {
  MultiRingReactor reactor(one_ring_udp_config(3));
  const ReactorReport report = reactor.run(milliseconds(500));
  const Telemetry& telemetry = reactor.ring_telemetry(0);

  EXPECT_EQ(telemetry.zero_holder_dwell_us(), 0.0);
  EXPECT_GE(telemetry.min_holders(), 1u);
  EXPECT_LE(telemetry.max_holders(), 2u);
  EXPECT_GT(telemetry.handovers(), 0u);
  EXPECT_GT(report.rule_executions, 10u);
  EXPECT_EQ(report.rings_legitimate, 1u);
}

// Bit-flipped frames fail the CRC and are counted, never applied: the ring
// keeps circulating and stays legitimate (corruption behaves as loss).
TEST(MultiRingUdp, CorruptFramesAreRejectedByChecksum) {
  MultiRingReactor reactor(one_ring_udp_config(7, "corrupt=0.3"));
  const ReactorReport report = reactor.run(milliseconds(500));
  const Telemetry& telemetry = reactor.ring_telemetry(0);

  EXPECT_GT(report.frames_corrupted, 10u);
  EXPECT_GT(report.frames_rejected, 10u);
  EXPECT_GT(report.frames_received, 10u);
  EXPECT_GT(report.rule_executions, 5u);
  EXPECT_EQ(report.rings_legitimate, 1u);
  // Loss may open brief stale-view windows; they must stay rare.
  EXPECT_LT(telemetry.zero_holder_dwell_us(), 0.05 * telemetry.observed_us());
}

// Injector drops and transmissions are disjoint counts whose ratio sits
// near the configured drop probability.
TEST(MultiRingUdp, InjectorDropsAreCounted) {
  MultiRingReactor reactor(one_ring_udp_config(9, "drop=0.25"));
  const ReactorReport report = reactor.run(milliseconds(300));

  EXPECT_GT(report.frames_dropped, 5u);
  EXPECT_GT(report.frames_sent, 0u);
  EXPECT_GT(report.rule_executions, 3u);
  const double attempts =
      static_cast<double>(report.frames_sent + report.frames_dropped);
  EXPECT_NEAR(static_cast<double>(report.frames_dropped) / attempts, 0.25,
              0.12);
  EXPECT_EQ(report.rings_legitimate, 1u);
}

// A 50 ms blackout of every link: the ring keeps a holder through it and
// the telemetry records the window as recovered.
TEST(MultiRingUdp, BurstWindowRecoveryIsRecorded) {
  MultiRingReactor reactor(one_ring_udp_config(17, "burst@40ms-90ms"));
  const ReactorReport report = reactor.run(milliseconds(250));
  const Telemetry& telemetry = reactor.ring_telemetry(0);

  EXPECT_GT(report.frames_dropped, 5u);
  EXPECT_LT(telemetry.zero_holder_dwell_us(), 0.05 * telemetry.observed_us());
  ASSERT_EQ(telemetry.window_outcomes().size(), 1u);
  EXPECT_TRUE(telemetry.window_outcomes()[0].recovered);
  EXPECT_EQ(report.rings_legitimate, 1u);
}

// Builds a checksum-valid frame in the retired version-1 layout (no
// ring-id field): magic | 1 | sender | length | payload | crc32.
wire::Bytes v1_frame(std::uint64_t sender, const wire::Bytes& payload) {
  wire::Bytes out{wire::kMagic, 1};
  wire::put_varint(out, sender);
  wire::put_varint(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc = wire::crc32(out);
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  return out;
}

// An outside socket lobs malformed datagrams at the shard socket while the
// ring runs. Each class is rejected deterministically, so with no kernel
// drops the rejection count is exactly the number sent only if every
// class is counted; none of it may perturb the protocol.
TEST(MultiRingUdp, HostileDatagramsAreCountedNotApplied) {
  const wire::Bytes payload =
      wire::encode_state(core::SsrState{1, true, false});
  std::array<std::uint8_t, 32> garbage{};
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(0xA5u ^ i);
  }
  const std::vector<wire::Bytes> classes = {
      {},                                    // zero-length
      wire::Bytes(600, 0xA5),                // beyond the receive buffer
      {garbage.begin(), garbage.end()},      // fails the frame CRC
      v1_frame(0, payload),                  // retired wire version
      wire::encode_frame_v2(1, 0, payload),  // ring id >= rings
  };
  constexpr std::size_t kCopies = 10;
  const int attacker = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(attacker, 0);

  MultiRingReactor reactor(one_ring_udp_config(15));
  ReactorReport report;
  std::thread runner([&] { report = reactor.run(milliseconds(300)); });
  std::vector<std::uint16_t> ports;
  while (ports.empty()) {
    std::this_thread::sleep_for(milliseconds(1));
    ports = reactor.udp_ports();
  }
  const sockaddr_in dst = loopback_address(ports[0]);
  for (const wire::Bytes& datagram : classes) {
    for (std::size_t i = 0; i < kCopies; ++i) {
      EXPECT_EQ(::sendto(attacker, datagram.data(), datagram.size(), 0,
                         reinterpret_cast<const sockaddr*>(&dst),
                         sizeof(dst)),
                static_cast<ssize_t>(datagram.size()));
    }
  }
  runner.join();
  ::close(attacker);

  ASSERT_EQ(report.kernel_rx_drops, 0u);
  EXPECT_EQ(report.frames_rejected, classes.size() * kCopies)
      << "every class of malformed datagram must be counted";
  EXPECT_EQ(report.rings_legitimate, 1u);
  EXPECT_EQ(reactor.ring_telemetry(0).zero_holder_dwell_us(), 0.0);
}

// validate() rejects geometries the table cannot host.
TEST(MultiRing, ConfigValidation) {
  ReactorConfig config;
  config.nodes = 2;  // < 3
  EXPECT_THROW(config.validate(), std::exception);
  config.nodes = 65;  // > 64 (holder bitmask)
  EXPECT_THROW(config.validate(), std::exception);
  config.nodes = 4;
  config.modulus = 4;  // K must exceed n
  EXPECT_THROW(config.validate(), std::exception);
  config.modulus = 0;
  config.rings = 0;
  EXPECT_THROW(config.validate(), std::exception);
}

}  // namespace
}  // namespace ssr::runtime
