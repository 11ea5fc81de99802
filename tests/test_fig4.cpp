// Exact reproduction of the paper's Figure 4: the 16-step execution of
// SSRmin with five processes starting from (3.0.1, 3.0.0, 3.0.0, 3.0.0,
// 3.0.0). Every cell — local state, 'P'/'S' token marks and the "/g"
// enabled-rule annotation — must match the published table character for
// character. In legitimate configurations exactly one process is enabled,
// so the trace is daemon-independent.
#include <gtest/gtest.h>

#include <array>

#include "core/legitimacy.hpp"
#include "core/ssrmin.hpp"
#include "stabilizing/engine.hpp"

namespace ssr::core {
namespace {

// Transcribed from the paper, Figure 4.
constexpr std::array<std::array<const char*, 5>, 16> kFigure4 = {{
    {"3.0.1PS/1", "3.0.0", "3.0.0", "3.0.0", "3.0.0"},
    {"3.1.0PS", "3.0.0/3", "3.0.0", "3.0.0", "3.0.0"},
    {"3.1.0P/2", "3.0.1S", "3.0.0", "3.0.0", "3.0.0"},
    {"4.0.0", "3.0.1PS/1", "3.0.0", "3.0.0", "3.0.0"},
    {"4.0.0", "3.1.0PS", "3.0.0/3", "3.0.0", "3.0.0"},
    {"4.0.0", "3.1.0P/2", "3.0.1S", "3.0.0", "3.0.0"},
    {"4.0.0", "4.0.0", "3.0.1PS/1", "3.0.0", "3.0.0"},
    {"4.0.0", "4.0.0", "3.1.0PS", "3.0.0/3", "3.0.0"},
    {"4.0.0", "4.0.0", "3.1.0P/2", "3.0.1S", "3.0.0"},
    {"4.0.0", "4.0.0", "4.0.0", "3.0.1PS/1", "3.0.0"},
    {"4.0.0", "4.0.0", "4.0.0", "3.1.0PS", "3.0.0/3"},
    {"4.0.0", "4.0.0", "4.0.0", "3.1.0P/2", "3.0.1S"},
    {"4.0.0", "4.0.0", "4.0.0", "4.0.0", "3.0.1PS/1"},
    {"4.0.0/3", "4.0.0", "4.0.0", "4.0.0", "3.1.0PS"},
    {"4.0.1S", "4.0.0", "4.0.0", "4.0.0", "3.1.0P/2"},
    {"4.0.1PS/1", "4.0.0", "4.0.0", "4.0.0", "4.0.0"},
}};

/// Renders the Figure 4 cell for process i: "x.rts.tra" + token marks +
/// "/rule" when the process is enabled.
std::string render_cell(const SsrMinRing& ring,
                        const stab::Engine<SsrMinRing>& engine,
                        std::size_t i) {
  const auto& config = engine.config();
  const std::size_t n = config.size();
  std::string cell = format_state(config[i]);
  if (ring.holds_primary(i, config[i], config[stab::pred_index(i, n)]))
    cell += 'P';
  if (ring.holds_secondary(config[i], config[stab::succ_index(i, n)]))
    cell += 'S';
  const int rule = engine.enabled_rule(i);
  if (rule != stab::kDisabled) cell.append("/").append(std::to_string(rule));
  return cell;
}

TEST(Figure4, ExactTraceReproduction) {
  const SsrMinRing ring(5, 6);
  stab::Engine<SsrMinRing> engine(ring, canonical_legitimate(ring, 3));
  for (std::size_t step = 0; step < kFigure4.size(); ++step) {
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(render_cell(ring, engine, i), kFigure4[step][i])
          << "step " << (step + 1) << ", process P" << i;
    }
    const auto enabled = engine.enabled_indices();
    ASSERT_EQ(enabled.size(), 1u) << "step " << (step + 1);
    engine.step(enabled);
  }
}

TEST(Figure4, EveryRowIsLegitimate) {
  const SsrMinRing ring(5, 6);
  stab::Engine<SsrMinRing> engine(ring, canonical_legitimate(ring, 3));
  for (std::size_t step = 0; step < kFigure4.size(); ++step) {
    ASSERT_TRUE(is_legitimate(ring, engine.config())) << "step " << step + 1;
    engine.step(engine.enabled_indices());
  }
}

TEST(Figure4, Step16MatchesStep1ShiftedByX) {
  // The figure's step 16 is step 1 with x advanced from 3 to 4: the cycle
  // repeats with period 3n = 15.
  const SsrMinRing ring(5, 6);
  stab::Engine<SsrMinRing> engine(ring, canonical_legitimate(ring, 3));
  for (int t = 0; t < 15; ++t) engine.step(engine.enabled_indices());
  EXPECT_EQ(engine.config(), canonical_legitimate(ring, 4));
}

}  // namespace
}  // namespace ssr::core
