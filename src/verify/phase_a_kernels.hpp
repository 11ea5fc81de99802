// Internal: lane-word-generic constructors for the concrete Phase A
// slices. Included by verify/phase_a_dispatch.cpp (u64) and by the
// per-ISA translation unit (Lane512), the only file compiled with
// -mavx512f — keep this header out of public includes so those
// instantiations stay confined to their TUs.
#pragma once

#include <cstdint>
#include <memory>

#include "core/ssrmin_sliced.hpp"
#include "core/state.hpp"
#include "dijkstra/kstate_sliced.hpp"
#include "verify/phase_a_sliced.hpp"

namespace ssr::verify::detail {

template <typename W>
std::unique_ptr<PhaseASlice> make_ssrmin_phase_a(std::size_t n,
                                                 std::uint32_t K,
                                                 const char* backend) {
  core::SsrMinRing ring(n, K);
  const std::uint32_t radix = ring.states_per_process();
  // Dense digit -> (x, rts, tra) masked fill; the digit layout matches
  // core::encode_state, which is what the checker's codec enumerates.
  auto fill = [K](core::BasicSlicedSsrMin<W>& kernel, std::size_t i,
                  const W& mask, std::uint32_t digit) {
    const core::SsrState s = core::decode_state(digit, K);
    kernel.fill_lanes(i, mask, s.x, s.rts, s.tra);
  };
  using Slice = BasicPhaseASlice<core::BasicSlicedSsrMin<W>, decltype(fill)>;
  return std::make_unique<Slice>(core::BasicSlicedSsrMin<W>(ring), radix,
                                 fill, backend);
}

template <typename W>
std::unique_ptr<PhaseASlice> make_kstate_phase_a(std::size_t n,
                                                 std::uint32_t K,
                                                 const char* backend) {
  dijkstra::KStateRing ring(n, K);
  auto fill = [](dijkstra::BasicSlicedKState<W>& kernel, std::size_t i,
                 const W& mask, std::uint32_t digit) {
    kernel.fill_lanes(i, mask, digit);
  };
  using Slice =
      BasicPhaseASlice<dijkstra::BasicSlicedKState<W>, decltype(fill)>;
  return std::make_unique<Slice>(dijkstra::BasicSlicedKState<W>(ring), K,
                                 fill, backend);
}

}  // namespace ssr::verify::detail
