// Non-template entry points for the batched convergence runs: the SSRmin
// and Dijkstra K-state kernels instantiated once in the library, so
// callers need not compile sim::run_convergence_block themselves.
//
// Each call runs one block on 64 u64 lanes. Every trial consumes the
// trial_rng(seed, t) stream whichever lane it lands in, so the outcome
// vector equals the scalar path's (pinned in tests/test_batch_engine.cpp).
// The trailing LaneBackend tag only keeps the benchmark harness
// (perfbench/) source-compatible; it has one value and is ignored.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ssrmin.hpp"
#include "dijkstra/kstate.hpp"
#include "sim/batch_engine.hpp"
#include "util/lane_backend.hpp"

namespace ssr::sim {

/// run_convergence_block over the bit-sliced SSRmin kernel.
std::vector<BatchTrialOutcome> run_convergence_block_ssrmin(
    const core::SsrMinRing& ring, const LaneDaemonSpec& spec,
    std::uint64_t seed, BlockRange block, std::uint64_t max_steps,
    bool two_phase, util::LaneBackend backend = util::LaneBackend::kU64);

/// run_convergence_block over the bit-sliced Dijkstra K-state kernel.
std::vector<BatchTrialOutcome> run_convergence_block_kstate(
    const dijkstra::KStateRing& ring, const LaneDaemonSpec& spec,
    std::uint64_t seed, BlockRange block, std::uint64_t max_steps,
    bool two_phase, util::LaneBackend backend = util::LaneBackend::kU64);

}  // namespace ssr::sim
