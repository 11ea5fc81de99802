#include "verify/phase_a_dispatch.hpp"

#include "verify/phase_a_kernels.hpp"

namespace ssr::verify {

// Resolve the requested backend to one that is actually runnable: accept
// any LaneBackend value (user-threaded choices included) and degrade to an
// available width rather than faulting on a host without the ISA.
namespace {

util::LaneBackend runnable(util::LaneBackend backend) {
  if (backend == util::LaneBackend::kAvx512 &&
      !util::lane_backend_available(util::LaneBackend::kAvx512)) {
    backend = util::LaneBackend::kU64;
  }
  return backend;
}

}  // namespace

std::unique_ptr<PhaseASlice> make_ssrmin_phase_a_slice(
    std::size_t n, std::uint32_t K, util::LaneBackend backend) {
  switch (runnable(backend)) {
#if defined(SSRING_LANE_AVX512)
    case util::LaneBackend::kAvx512:
      return detail::make_ssrmin_phase_a_slice_avx512(n, K);
#endif
    default:
      return detail::make_ssrmin_phase_a<std::uint64_t>(n, K, "u64");
  }
}

std::unique_ptr<PhaseASlice> make_kstate_phase_a_slice(
    std::size_t n, std::uint32_t K, util::LaneBackend backend) {
  switch (runnable(backend)) {
#if defined(SSRING_LANE_AVX512)
    case util::LaneBackend::kAvx512:
      return detail::make_kstate_phase_a_slice_avx512(n, K);
#endif
    default:
      return detail::make_kstate_phase_a<std::uint64_t>(n, K, "u64");
  }
}

}  // namespace ssr::verify
