#include "util/lane_backend.hpp"

#include <cstdlib>
#include <string>

namespace ssr::util {
namespace {

bool cpu_supports(LaneBackend backend) {
#if defined(__x86_64__) || defined(__i386__)
  switch (backend) {
    case LaneBackend::kU64:
      return true;
    case LaneBackend::kAvx512:
      return __builtin_cpu_supports("avx512f");
  }
  return false;
#else
  return backend == LaneBackend::kU64;
#endif
}

bool compiled_in(LaneBackend backend) {
  switch (backend) {
    case LaneBackend::kU64:
      return true;
    case LaneBackend::kAvx512:
#if defined(SSRING_LANE_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

bool lane_backend_available(LaneBackend backend) {
  return compiled_in(backend) && cpu_supports(backend);
}

LaneBackend detect_lane_backend() {
  LaneBackend cap = LaneBackend::kAvx512;
  if (const char* env = std::getenv("SSRING_LANE_BACKEND")) {
    const std::string want(env);
    if (want == "u64" || want == "scalar" || want == "avx2") {
      cap = LaneBackend::kU64;
    } else if (want == "avx512" || want == "auto" || want.empty()) {
      cap = LaneBackend::kAvx512;
    }
    // Unknown values fall through as "auto": never fail a run over an
    // env-var typo, the dispatch is a performance knob, not a contract.
  }
  if (cap == LaneBackend::kAvx512 && lane_backend_available(LaneBackend::kAvx512)) {
    return LaneBackend::kAvx512;
  }
  return LaneBackend::kU64;
}

const char* lane_backend_name(LaneBackend backend) {
  switch (backend) {
    case LaneBackend::kU64:
      return "u64";
    case LaneBackend::kAvx512:
      return "avx512";
  }
  return "?";
}

unsigned lane_backend_lanes(LaneBackend backend) {
  switch (backend) {
    case LaneBackend::kU64:
      return 64;
    case LaneBackend::kAvx512:
      return 512;
  }
  return 64;
}

}  // namespace ssr::util
