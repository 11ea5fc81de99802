// Lane-width names kept for the benchmark harness (perfbench/) only. The
// bit-sliced kernels run on 64-lane u64 words and nothing else, so there
// is one backend, no runtime detection and no environment variable to
// choose one. The library does not call these.
#pragma once

namespace ssr::util {

enum class LaneBackend { kU64 };

constexpr LaneBackend detect_lane_backend() { return LaneBackend::kU64; }

constexpr const char* lane_backend_name(LaneBackend) { return "u64"; }

constexpr unsigned lane_backend_lanes(LaneBackend) { return 64; }

}  // namespace ssr::util
