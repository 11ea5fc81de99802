#include "verify/modelcheck.hpp"

#include <sstream>

#include "core/ssrmin_sliced.hpp"
#include "dijkstra/kstate_sliced.hpp"
#include "verify/checkers.hpp"
#include "verify/phase_a_sliced.hpp"

namespace ssr::verify {

std::string CheckReport::summary() const {
  std::ostringstream os;
  os << "configs=" << total_configs << " legitimate=" << legitimate_configs
     << " deadlock_free=" << (deadlock_free ? "yes" : "NO")
     << " closure=" << (closure_holds ? "yes" : "NO")
     << " token_bounds=" << (token_bounds_hold ? "yes" : "NO")
     << " convergence=" << (convergence_holds ? "yes" : "NO");
  if (convergence_holds) os << " worst_case_steps=" << worst_case_steps;
  os << " min_privileged_anywhere=" << min_privileged_anywhere;
  return os.str();
}

std::string CheckStats::summary() const {
  auto mib = [](std::uint64_t bytes) {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(1);
    os << static_cast<double>(bytes) / (1024.0 * 1024.0) << "MiB";
    return os.str();
  };
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "phase_a=" << (phase_a_sliced ? "sliced" : "scalar")
     << " orbit_size=" << orbit_size
     << " phase_b_storage=" << to_string(mode)
     << " projected_peak=" << mib(projected_peak_bytes)
     << " measured_peak=" << mib(measured_peak_bytes)
     << " budget=" << mib(memory_budget_bytes) << " edges=" << edge_count
     << " bytes_per_edge=" << bytes_per_edge << " rounds=" << rounds
     << "\n  lambda=" << mib(lambda_bytes) << " counts=" << mib(counts_bytes)
     << " offsets=" << mib(offsets_bytes) << " edges=" << mib(edges_bytes)
     << " heights=" << mib(heights_bytes)
     << " frontier=" << mib(frontier_bytes);
  if (mode == PhaseBStorage::kSpill) {
    os << "\n  spill=" << mib(spill_bytes) << " blocks_read=" << blocks_read
       << " read_amplification=" << read_amplification << "x path="
       << (spill_path.empty() ? "<none>" : spill_path);
  }
  return os.str();
}

ModelChecker<core::SsrMinRing> make_ssrmin_checker(std::size_t n,
                                                   std::uint32_t K) {
  core::SsrMinRing ring(n, K);
  ConfigCodec<core::SsrState> codec(
      n, ring.states_per_process(),
      [K](const core::SsrState& s) { return core::encode_state(s, K); },
      [K](std::uint32_t code) { return core::decode_state(code, K); },
      // Rules 1-5 only compare counters, copy them or add 1 mod K, so the
      // digit x * 4 + flags carries the Z_K counter shift.
      CounterShift{K, 4});
  auto legit = [ring](const core::SsrConfig& c) {
    return core::is_legitimate(ring, c);
  };
  auto privileged = [ring](const core::SsrConfig& c) {
    return core::privileged_count(ring, c);
  };
  ModelChecker<core::SsrMinRing> checker(ring, std::move(codec),
                                         std::move(legit),
                                         std::move(privileged));
  // The kernel evaluates exactly core::is_legitimate / privileged_count
  // bit-parallel, so the sliced Phase A is safe to install here (and only
  // here — custom predicates must keep the scalar sweep).
  checker.set_phase_a_slices([n, K]() -> std::unique_ptr<PhaseASlice> {
    // Dense digit -> (x, rts, tra) masked fill; the digit layout matches
    // core::encode_state, which is what the codec enumerates.
    auto fill = [K](core::SlicedSsrMin& kernel, std::size_t i,
                    std::uint64_t mask, std::uint32_t digit) {
      const core::SsrState s = core::decode_state(digit, K);
      kernel.fill_lanes(i, mask, s.x, s.rts, s.tra);
    };
    using Slice = BasicPhaseASlice<core::SlicedSsrMin, decltype(fill)>;
    const core::SsrMinRing slice_ring(n, K);
    return std::make_unique<Slice>(core::SlicedSsrMin(slice_ring),
                                   slice_ring.states_per_process(), fill);
  });
  return checker;
}

ModelChecker<dijkstra::KStateRing> make_kstate_checker(std::size_t n,
                                                       std::uint32_t K) {
  dijkstra::KStateRing ring(n, K);
  ConfigCodec<dijkstra::KStateLocal> codec(
      n, K,
      [](const dijkstra::KStateLocal& s) { return s.x; },
      [](std::uint32_t code) { return dijkstra::KStateLocal{code}; },
      CounterShift{K, 1});
  auto legit = [ring](const dijkstra::KStateConfig& c) {
    return dijkstra::is_legitimate(ring, c);
  };
  auto privileged = [ring](const dijkstra::KStateConfig& c) {
    return dijkstra::token_count(ring, c);
  };
  ModelChecker<dijkstra::KStateRing> checker(ring, std::move(codec),
                                             std::move(legit),
                                             std::move(privileged));
  checker.set_phase_a_slices([n, K]() -> std::unique_ptr<PhaseASlice> {
    auto fill = [](dijkstra::SlicedKState& kernel, std::size_t i,
                   std::uint64_t mask, std::uint32_t digit) {
      kernel.fill_lanes(i, mask, digit);
    };
    using Slice = BasicPhaseASlice<dijkstra::SlicedKState, decltype(fill)>;
    return std::make_unique<Slice>(
        dijkstra::SlicedKState(dijkstra::KStateRing(n, K)), K, fill);
  });
  return checker;
}

}  // namespace ssr::verify
