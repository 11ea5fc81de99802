#include "sim/batch_engine.hpp"

#include <algorithm>

#include "core/ssrmin_sliced.hpp"
#include "dijkstra/kstate_sliced.hpp"
#include "sim/batch_dispatch.hpp"

namespace ssr::sim {

bool batch_daemon_supported(const std::string& name) {
  return name == "central-round-robin" || name == "central-random" ||
         name == "distributed-synchronous" ||
         name == "distributed-random-subset" || name == "adversary-max-index";
}

LaneDaemonSpec lane_daemon_spec(const std::string& name) {
  SSR_REQUIRE(batch_daemon_supported(name),
              "no lane replay for daemon: " + name);
  LaneDaemonSpec spec;
  if (name == "central-round-robin") {
    spec.kind = LaneDaemonKind::kCentralRoundRobin;
  } else if (name == "central-random") {
    spec.kind = LaneDaemonKind::kCentralRandom;
  } else if (name == "distributed-synchronous") {
    spec.kind = LaneDaemonKind::kSynchronous;
  } else if (name == "distributed-random-subset") {
    // make_daemon's RandomSubsetDaemon probability.
    spec.kind = LaneDaemonKind::kRandomSubset;
    spec.subset_p = 0.5;
  } else {
    spec.kind = LaneDaemonKind::kMaxIndex;
  }
  return spec;
}

LaneDaemonSpec rule_avoiding_spec(std::vector<int> avoid_rules) {
  LaneDaemonSpec spec;
  spec.kind = LaneDaemonKind::kRuleAvoiding;
  spec.avoid_rules = std::move(avoid_rules);
  return spec;
}

std::vector<BlockRange> plan_blocks(std::uint64_t trials, std::size_t workers,
                                    unsigned lanes) {
  std::vector<BlockRange> blocks;
  if (trials == 0) return blocks;
  if (workers == 0) workers = 1;
  if (lanes == 0) lanes = 64;
  // Few enough blocks that each spans more than one lane generation
  // where the trial count allows (so refill amortizes per-block setup),
  // but at least one block per worker once there are ~16 trials to share.
  const std::uint64_t span = 2ULL * lanes;
  const std::uint64_t by_capacity = (trials + span - 1) / span;
  const std::uint64_t by_workers =
      std::min<std::uint64_t>(workers, (trials + 15) / 16);
  std::uint64_t units = std::max(by_capacity, by_workers);
  units = std::min(units, trials);
  blocks.reserve(units);
  for (std::uint64_t u = 0; u < units; ++u) {
    const std::uint64_t lo = trials * u / units;
    const std::uint64_t hi = trials * (u + 1) / units;
    if (hi > lo) blocks.push_back({lo, hi - lo});
  }
  return blocks;
}

std::vector<BatchTrialOutcome> run_convergence_block_ssrmin(
    const core::SsrMinRing& ring, const LaneDaemonSpec& spec,
    std::uint64_t seed, BlockRange block, std::uint64_t max_steps,
    bool two_phase, util::LaneBackend) {
  return run_convergence_block<core::SlicedSsrMin>(ring, spec, seed, block,
                                                   max_steps, two_phase);
}

std::vector<BatchTrialOutcome> run_convergence_block_kstate(
    const dijkstra::KStateRing& ring, const LaneDaemonSpec& spec,
    std::uint64_t seed, BlockRange block, std::uint64_t max_steps,
    bool two_phase, util::LaneBackend) {
  return run_convergence_block<dijkstra::SlicedKState>(ring, spec, seed, block,
                                                       max_steps, two_phase);
}

}  // namespace ssr::sim
