// Runtime-dispatched entry points for the batched convergence runs.
//
// The templated run_convergence_block<Kernel> compiles for any lane word;
// the 512-lane instantiations live in batch_backend_avx512.cpp, which CMake
// compiles with -mavx512f when the compiler supports the flag — independent
// of -march=native, so a generic binary still carries the SIMD backend and
// picks one via
// util::detect_lane_backend() (cpuid + SSRING_LANE_BACKEND override). The
// u64 path is always present: requesting a backend the build or CPU lacks
// silently degrades, never faults.
//
// Lane-width invariance is part of the bit-identical contract: every trial
// consumes the trial_rng(seed, t) stream regardless of which lane or word
// it lands in, so all backends return byte-identical outcome vectors
// (pinned in tests/test_batch_engine.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/ssrmin.hpp"
#include "dijkstra/kstate.hpp"
#include "sim/batch_engine.hpp"
#include "util/lane_backend.hpp"

namespace ssr::sim {

/// run_convergence_block over the SSRmin kernel at the requested lane
/// width (falls back to u64 if the backend is unavailable).
std::vector<BatchTrialOutcome> run_convergence_block_ssrmin(
    const core::SsrMinRing& ring, const LaneDaemonSpec& spec,
    std::uint64_t seed, BlockRange block, std::uint64_t max_steps,
    bool two_phase, util::LaneBackend backend);

/// run_convergence_block over the Dijkstra K-state kernel at the requested
/// lane width (falls back to u64 if the backend is unavailable).
std::vector<BatchTrialOutcome> run_convergence_block_kstate(
    const dijkstra::KStateRing& ring, const LaneDaemonSpec& spec,
    std::uint64_t seed, BlockRange block, std::uint64_t max_steps,
    bool two_phase, util::LaneBackend backend);

namespace detail {

// Implemented in the per-ISA translation unit (same signature as the
// public entry points minus the backend tag).
std::vector<BatchTrialOutcome> run_convergence_block_ssrmin_avx512(
    const core::SsrMinRing& ring, const LaneDaemonSpec& spec,
    std::uint64_t seed, BlockRange block, std::uint64_t max_steps,
    bool two_phase);
std::vector<BatchTrialOutcome> run_convergence_block_kstate_avx512(
    const dijkstra::KStateRing& ring, const LaneDaemonSpec& spec,
    std::uint64_t seed, BlockRange block, std::uint64_t max_steps,
    bool two_phase);

}  // namespace detail

}  // namespace ssr::sim
