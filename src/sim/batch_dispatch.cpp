#include "sim/batch_dispatch.hpp"

#include "core/ssrmin_sliced.hpp"
#include "dijkstra/kstate_sliced.hpp"

namespace ssr::sim {

// Resolve the requested backend to one that is actually runnable: the
// public entry points accept any LaneBackend value so callers can thread a
// user-supplied choice straight through, but execution always degrades to
// an available width rather than faulting on a host without the ISA.
namespace {

util::LaneBackend runnable(util::LaneBackend backend) {
  if (backend == util::LaneBackend::kAvx512 &&
      !util::lane_backend_available(util::LaneBackend::kAvx512)) {
    backend = util::LaneBackend::kU64;
  }
  return backend;
}

}  // namespace

std::vector<BatchTrialOutcome> run_convergence_block_ssrmin(
    const core::SsrMinRing& ring, const LaneDaemonSpec& spec,
    std::uint64_t seed, BlockRange block, std::uint64_t max_steps,
    bool two_phase, util::LaneBackend backend) {
  switch (runnable(backend)) {
#if defined(SSRING_LANE_AVX512)
    case util::LaneBackend::kAvx512:
      return detail::run_convergence_block_ssrmin_avx512(
          ring, spec, seed, block, max_steps, two_phase);
#endif
    default:
      return run_convergence_block<core::SlicedSsrMin>(ring, spec, seed, block,
                                                       max_steps, two_phase);
  }
}

std::vector<BatchTrialOutcome> run_convergence_block_kstate(
    const dijkstra::KStateRing& ring, const LaneDaemonSpec& spec,
    std::uint64_t seed, BlockRange block, std::uint64_t max_steps,
    bool two_phase, util::LaneBackend backend) {
  switch (runnable(backend)) {
#if defined(SSRING_LANE_AVX512)
    case util::LaneBackend::kAvx512:
      return detail::run_convergence_block_kstate_avx512(
          ring, spec, seed, block, max_steps, two_phase);
#endif
    default:
      return run_convergence_block<dijkstra::SlicedKState>(
          ring, spec, seed, block, max_steps, two_phase);
  }
}

}  // namespace ssr::sim
