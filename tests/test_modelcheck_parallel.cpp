// The parallel checker's contract: CheckReport is bit-identical at every
// thread count, in every Phase B storage mode and with either Phase A
// sweep — same witnesses, same worst case, same height table. The
// differential tests below pin that by running every covered (n, K) in all
// three storage backends (compressed move records, CSR-free, disk-spilled
// records) at 1, 2 and 8 workers (1 exercises the solo fast path, the
// others the shared atomic heights) against a scalar-sweep baseline and a
// serial reference-height oracle, plus unit tests for the ThreadPool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"
#include "verify/checkers.hpp"

namespace {

using namespace ssr;

TEST(ThreadPool, SizeIsAtLeastOne) {
  util::ThreadPool solo(1);
  EXPECT_EQ(solo.size(), 1u);
  util::ThreadPool four(4);
  EXPECT_EQ(four.size(), 4u);
  util::ThreadPool hw(0);
  EXPECT_GE(hw.size(), 1u);
}

TEST(ThreadPool, RunOnAllVisitsEveryWorkerOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(pool.size());
  pool.run_on_all([&](std::size_t id) { ++visits[id]; });
  for (std::size_t id = 0; id < pool.size(); ++id) {
    EXPECT_EQ(visits[id].load(), 1) << "worker " << id;
  }
}

TEST(ThreadPool, ForChunksCoversRangeExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    util::ThreadPool pool(threads);
    constexpr std::uint64_t kBegin = 7, kEnd = 1234;
    std::vector<std::atomic<int>> hits(kEnd);
    pool.for_chunks(kBegin, kEnd, 17,
                    [&](std::size_t, std::uint64_t lo, std::uint64_t hi) {
                      ASSERT_LE(lo, hi);
                      ASSERT_LE(hi, kEnd);
                      for (std::uint64_t i = lo; i < hi; ++i) ++hits[i];
                    });
    for (std::uint64_t i = 0; i < kEnd; ++i) {
      EXPECT_EQ(hits[i].load(), i >= kBegin ? 1 : 0) << "index " << i;
    }
  }
}

TEST(ThreadPool, ForChunksEmptyRangeIsNoop) {
  util::ThreadPool pool(2);
  bool called = false;
  pool.for_chunks(5, 5, 8, [&](std::size_t, std::uint64_t, std::uint64_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool pool(threads);
    EXPECT_THROW(pool.run_on_all([&](std::size_t) {
      throw std::runtime_error("boom");
    }),
                 std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<std::uint64_t> sum{0};
    pool.for_chunks(0, 100, 9,
                    [&](std::size_t, std::uint64_t lo, std::uint64_t hi) {
                      for (std::uint64_t i = lo; i < hi; ++i) sum += i;
                    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

// --- differential report tests --------------------------------------------

void expect_identical(const verify::CheckReport& a,
                      const verify::CheckReport& b, const char* what) {
  EXPECT_EQ(a.total_configs, b.total_configs) << what;
  EXPECT_EQ(a.legitimate_configs, b.legitimate_configs) << what;
  EXPECT_EQ(a.deadlock_free, b.deadlock_free) << what;
  EXPECT_EQ(a.deadlock_witness, b.deadlock_witness) << what;
  EXPECT_EQ(a.closure_holds, b.closure_holds) << what;
  EXPECT_EQ(a.closure_witness, b.closure_witness) << what;
  EXPECT_EQ(a.token_bounds_hold, b.token_bounds_hold) << what;
  EXPECT_EQ(a.token_witness, b.token_witness) << what;
  EXPECT_EQ(a.convergence_holds, b.convergence_holds) << what;
  EXPECT_EQ(a.cycle_witness, b.cycle_witness) << what;
  EXPECT_EQ(a.worst_case_steps, b.worst_case_steps) << what;
  EXPECT_EQ(a.worst_case_witness, b.worst_case_witness) << what;
  EXPECT_EQ(a.min_privileged_anywhere, b.min_privileged_anywhere) << what;
  EXPECT_EQ(a.heights, b.heights) << what;
}

/// Convergence facts computed the slow, obvious way: one serial iterative
/// DFS over the public successor relation. height(c) = 0 on Lambda and on
/// deadlocks, else 1 + max over successors; a successor still on the DFS
/// stack closes an illegitimate cycle.
struct Reference {
  bool convergence_holds = true;
  std::uint64_t worst_case_steps = 0;
  std::optional<std::uint64_t> worst_case_witness;
  std::vector<std::uint32_t> heights;
};

template <typename Checker>
Reference reference_heights(const Checker& checker) {
  constexpr std::uint32_t kUnseen = UINT32_MAX, kOnStack = UINT32_MAX - 1;
  struct Frame {
    std::uint64_t code;
    std::vector<std::uint64_t> succs;
    std::size_t next = 0;
    std::uint32_t height = 0;
  };
  Reference ref;
  ref.heights.assign(checker.codec().total(), kUnseen);
  std::vector<Frame> stack;
  auto open = [&](std::uint64_t c) {
    const auto config = checker.codec().decode(c);
    ref.heights[c] = checker.legitimate(config) ? 0 : kOnStack;
    if (ref.heights[c] != 0) {
      stack.push_back({c, checker.successor_codes(config)});
    }
  };
  for (std::uint64_t root = 0; root < ref.heights.size(); ++root) {
    if (ref.heights[root] == kUnseen) open(root);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next == f.succs.size()) {
        ref.heights[f.code] = f.height;
        stack.pop_back();
        continue;
      }
      const std::uint32_t h = ref.heights[f.succs[f.next]];
      if (h == kOnStack) {
        ref.convergence_holds = false;
        return ref;
      }
      if (h == kUnseen) {
        open(f.succs[f.next]);  // may reallocate the stack: re-read back()
        continue;
      }
      f.height = std::max(f.height, h + 1);
      ++f.next;
    }
  }
  for (std::uint64_t c = 0; c < ref.heights.size(); ++c) {
    if (ref.heights[c] > ref.worst_case_steps) {
      ref.worst_case_steps = ref.heights[c];
      ref.worst_case_witness = c;
    }
  }
  return ref;
}

void expect_matches_reference(const Reference& ref,
                              const verify::CheckReport& got,
                              const std::string& label) {
  EXPECT_EQ(got.convergence_holds, ref.convergence_holds) << label;
  EXPECT_EQ(got.worst_case_steps, ref.worst_case_steps) << label;
  EXPECT_EQ(got.worst_case_witness, ref.worst_case_witness) << label;
  ASSERT_EQ(got.heights.size(), ref.heights.size()) << label;
  std::uint64_t mismatches = 0;
  std::uint64_t first = 0;
  for (std::uint64_t c = 0; c < ref.heights.size(); ++c) {
    if (got.heights[c] != ref.heights[c] && mismatches++ == 0) first = c;
  }
  EXPECT_EQ(mismatches, 0u) << label << " (first at configuration " << first
                            << ")";
}

/// The checker's whole contract on one space. Baseline: the scalar Phase
/// A sweep at one worker. Then the bit-sliced Phase A in every Phase B
/// storage mode at 1/2/8 workers must reproduce the baseline bit-for-bit —
/// same witnesses (lowest-index, so lane masking and chunk order are on
/// the hook), counts and heights — and every run must match the reference
/// heights.
template <typename Checker>
void check_invariance(const Checker& checker, verify::CheckOptions options,
                      const char* what) {
  ASSERT_TRUE(checker.phase_a_slices() != nullptr) << what;
  const Reference ref = reference_heights(checker);
  ASSERT_TRUE(ref.convergence_holds) << what;
  options.keep_heights = true;
  options.threads = 1;
  options.phase_a = verify::PhaseAMode::kScalar;
  const verify::CheckReport baseline = checker.run(options);
  EXPECT_TRUE(baseline.all_ok()) << what;
  EXPECT_FALSE(baseline.stats.phase_a_sliced) << what;
  expect_matches_reference(ref, baseline, std::string(what) + " scalar");
  options.phase_a = verify::PhaseAMode::kSliced;
  for (verify::PhaseBStorage storage : {verify::PhaseBStorage::kCompressed,
                                        verify::PhaseBStorage::kCsrFree,
                                        verify::PhaseBStorage::kSpill}) {
    options.storage = storage;
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      options.threads = threads;
      const verify::CheckReport got = checker.run(options);
      std::string label = std::string(what) + " storage=" +
                          verify::to_string(storage) +
                          " threads=" + std::to_string(threads);
      expect_identical(baseline, got, label.c_str());
      expect_matches_reference(ref, got, label);
      EXPECT_EQ(got.stats.mode, storage) << label;
      EXPECT_TRUE(got.stats.phase_a_sliced) << label;
      EXPECT_NE(got.stats.summary().find("phase_a=sliced "),
                std::string::npos)
          << label;
      if (storage == verify::PhaseBStorage::kSpill) {
        EXPECT_GT(got.stats.spill_bytes, 0u) << label;
        EXPECT_GT(got.stats.blocks_read, 0u) << label;
        EXPECT_GE(got.stats.read_amplification, 1.0) << label;
      }
    }
  }
}

TEST(ModelCheckParallel, SsrMinReportsAreThreadCountInvariant) {
  verify::CheckOptions options;  // defaults: privileged in [1, 2]
  // K = 4: the dense state radix 4K = 16 is a power of two, so the
  // odometer fill rides the digit carry-out wrap path.
  check_invariance(verify::make_ssrmin_checker(3, 4), options, "ssrmin(3,4)");
  check_invariance(verify::make_ssrmin_checker(3, 6), options, "ssrmin(3,6)");
  check_invariance(verify::make_ssrmin_checker(4, 5), options, "ssrmin(4,5)");
}

TEST(ModelCheckParallel, DijkstraReportsAreThreadCountInvariant) {
  verify::CheckOptions options;
  options.min_privileged = 1;
  options.max_privileged = 1;
  check_invariance(verify::make_kstate_checker(3, 4), options,
                   "dijkstra(3,4)");
  check_invariance(verify::make_kstate_checker(4, 5), options,
                   "dijkstra(4,5)");
  check_invariance(verify::make_kstate_checker(5, 6), options,
                   "dijkstra(5,6)");
}

TEST(ModelCheckParallel, BigSpacesAreModeAndThreadInvariant) {
  // The acceptance-sized differential: ssrmin(5,6) (8M configs),
  // dijkstra(6,7) and dijkstra(8,9) (43M configs) in every storage mode
  // at 1/2/8 workers, heights included. Gated behind SSRING_TEST_BIG=1
  // because the 30 full checks and the reference DFS take tens of minutes
  // on modest hardware.
  if (std::getenv("SSRING_TEST_BIG") == nullptr) {
    GTEST_SKIP() << "set SSRING_TEST_BIG=1 to run the large differential";
  }
  verify::CheckOptions ssr_options;
  check_invariance(verify::make_ssrmin_checker(5, 6), ssr_options,
                   "ssrmin(5,6)");
  verify::CheckOptions dij_options;
  dij_options.min_privileged = 1;
  dij_options.max_privileged = 1;
  check_invariance(verify::make_kstate_checker(6, 7), dij_options,
                   "dijkstra(6,7)");
  check_invariance(verify::make_kstate_checker(8, 9), dij_options,
                   "dijkstra(8,9)");
}

TEST(ModelCheckParallel, AutoSpillsUnderTightBudgetAndMatchesInRam) {
  // The auto-picker's out-of-core tier, in the default suite: a budget
  // squeezed between the spill mode's resident projection and the
  // csr-free projection (the cheapest in-RAM mode) must make kAuto spill
  // — and the spilled report must match an unconstrained compressed run
  // bit-for-bit. The budget arrives via SSRING_CHECK_MEMORY_BUDGET, so
  // the env path of the default-budget resolution is on the hook too.
  // Projections size the structures the checker holds: one entry per
  // counter-shift orbit representative, not per configuration.
  const auto checker = verify::make_ssrmin_checker(4, 5);
  const std::uint64_t reps = checker.codec().representatives();
  const std::uint64_t proj_spill = verify::projected_spill_resident_bytes(
      reps, 4, checker.codec().radix());
  const std::uint64_t proj_free = verify::projected_csrfree_bytes(reps);
  ASSERT_LT(proj_spill, proj_free)
      << "watch-free spill must undercut csr-free or auto can never spill";
  const std::uint64_t budget = (proj_spill + proj_free) / 2;

  verify::CheckOptions options;
  options.keep_heights = true;
  options.threads = 2;
  const verify::CheckReport in_ram = checker.run(options);
  EXPECT_EQ(in_ram.stats.mode, verify::PhaseBStorage::kCompressed);

  ASSERT_EQ(setenv("SSRING_CHECK_MEMORY_BUDGET",
                   std::to_string(budget).c_str(), 1),
            0);
  const verify::CheckReport spilled = checker.run(options);
  ASSERT_EQ(unsetenv("SSRING_CHECK_MEMORY_BUDGET"), 0);

  EXPECT_EQ(spilled.stats.mode, verify::PhaseBStorage::kSpill);
  EXPECT_EQ(spilled.stats.memory_budget_bytes, budget);
  EXPECT_GT(spilled.stats.spill_bytes, 0u);
  EXPECT_LE(spilled.stats.measured_peak_bytes,
            spilled.stats.projected_peak_bytes);
  expect_identical(in_ram, spilled, "ssrmin(4,5) forced spill");
}

TEST(ModelCheckParallel, DefaultThreadsMatchesSequential) {
  const auto checker = verify::make_ssrmin_checker(3, 5);
  verify::CheckOptions options;
  options.keep_heights = true;
  options.threads = 1;
  const verify::CheckReport sequential = checker.run(options);
  options.threads = 0;  // one worker per hardware thread
  expect_identical(sequential, checker.run(options), "ssrmin(3,5) hw");
}

// --- sliced Phase A vs the scalar odometer sweep ---------------------------
//
// check_invariance compares every sliced run against a scalar baseline, so
// the spaces above already pin the sliced sweep; these add shapes only.

TEST(ModelCheckSlicedPhaseA, SsrMinMatchesScalarSweep) {
  verify::CheckOptions options;  // defaults: privileged in [1, 2]
  check_invariance(verify::make_ssrmin_checker(3, 5), options, "ssrmin(3,5)");
}

TEST(ModelCheckSlicedPhaseA, DijkstraMatchesScalarSweep) {
  verify::CheckOptions options;
  options.min_privileged = 1;
  options.max_privileged = 1;
  // K = 2^d wrap; 4^4 = 256 configs keeps every chunk partially filled.
  check_invariance(verify::make_kstate_checker(4, 4), options,
                   "dijkstra(4,4)");
}

TEST(ModelCheckSlicedPhaseA, AutoModeUsesSlicesAndMatchesScalar) {
  // kAuto (the default) must pick the sliced path on the library-made
  // checkers and still answer identically to a forced-scalar run.
  const auto checker = verify::make_ssrmin_checker(3, 6);
  verify::CheckOptions options;
  options.keep_heights = true;
  options.threads = 2;
  const verify::CheckReport auto_run = checker.run(options);
  EXPECT_TRUE(auto_run.stats.phase_a_sliced);
  options.phase_a = verify::PhaseAMode::kScalar;
  const verify::CheckReport scalar_run = checker.run(options);
  EXPECT_FALSE(scalar_run.stats.phase_a_sliced);
  expect_identical(scalar_run, auto_run, "ssrmin(3,6) auto vs scalar");
}

}  // namespace
