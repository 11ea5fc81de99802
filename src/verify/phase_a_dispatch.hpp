// Runtime lane-backend dispatch for the bit-sliced Phase A: the checker
// factories call make_*_phase_a_slice with util::detect_lane_backend(),
// which picks the widest backend compiled in AND supported by this CPU
// (overridable via SSRING_LANE_BACKEND). The u64 slice is always
// available, so a generic binary runs everywhere and only *accelerates*
// on AVX-512 hosts.
#pragma once

#include <cstdint>
#include <memory>

#include "util/lane_backend.hpp"
#include "verify/phase_a_sliced.hpp"

namespace ssr::verify {

/// Sliced Phase A engine for SSRmin over all (4K)^n configurations.
std::unique_ptr<PhaseASlice> make_ssrmin_phase_a_slice(
    std::size_t n, std::uint32_t K, util::LaneBackend backend);

/// Sliced Phase A engine for Dijkstra's K-state ring over K^n configs.
std::unique_ptr<PhaseASlice> make_kstate_phase_a_slice(
    std::size_t n, std::uint32_t K, util::LaneBackend backend);

namespace detail {

// Implemented in the per-ISA translation unit (the only verify code
// compiled with -mavx512f); only called after a cpuid check.
std::unique_ptr<PhaseASlice> make_ssrmin_phase_a_slice_avx512(std::size_t n,
                                                              std::uint32_t K);
std::unique_ptr<PhaseASlice> make_kstate_phase_a_slice_avx512(std::size_t n,
                                                              std::uint32_t K);

}  // namespace detail

}  // namespace ssr::verify
