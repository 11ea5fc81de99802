// Runtime selection of the bit-sliced lane width.
//
// The sliced kernels are templated on the lane word (util/bitplane.hpp);
// the 512-lane instantiations live in dedicated translation units compiled
// with -mavx512f (see src/sim and src/verify CMake files), so one generic
// binary carries both backends and picks at runtime via cpuid. This decouples SIMD use from -march=native: an
// SSRING_NATIVE_ARCH=ON binary moved to an older host can still SIGILL in
// *other* native-compiled code, but every sliced-kernel entry point routed
// through detect_lane_backend() is guaranteed a u64 fallback.
#pragma once

namespace ssr::util {

enum class LaneBackend {
  kU64,     // portable 64-lane words (always available)
  kAvx512,  // 512-lane WideWord<8>, TU compiled with -mavx512f
};

/// True if the named backend was compiled into this binary AND the running
/// CPU supports its instruction set. kU64 is always available.
bool lane_backend_available(LaneBackend backend);

/// Best available backend, honouring the SSRING_LANE_BACKEND environment
/// variable ("u64"/"scalar", "avx512", "auto"). An explicit request degrades
/// to the best available backend at or below the requested width — forcing
/// "u64" is the guaranteed-portable fallback path, and "avx2" selects u64
/// (there is no 256-lane backend); requesting a width the CPU or build
/// lacks silently falls back rather than failing.
LaneBackend detect_lane_backend();

/// Human-readable backend name ("u64", "avx512").
const char* lane_backend_name(LaneBackend backend);

/// Lane count of the backend's word (64 / 512).
unsigned lane_backend_lanes(LaneBackend backend);

}  // namespace ssr::util
