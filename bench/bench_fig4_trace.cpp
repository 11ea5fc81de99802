// E1 — Figure 4: regenerate the paper's 16-step execution table of SSRmin
// with five processes (n = 5, K = 6, start (3.0.1, 3.0.0, ..., 3.0.0)) and
// diff it cell-by-cell against the published table.
#include <array>
#include <iostream>

#include "bench_common.hpp"
#include "core/legitimacy.hpp"
#include "core/ssrmin.hpp"
#include "stabilizing/daemon.hpp"
#include "stabilizing/engine.hpp"
#include "stabilizing/trace.hpp"
#include "util/table.hpp"

namespace {

using namespace ssr;

// The table exactly as printed in the paper (Figure 4).
constexpr std::array<std::array<const char*, 5>, 16> kPaperFigure4 = {{
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

std::string cell(const core::SsrMinRing& ring,
                 const stab::Engine<core::SsrMinRing>& engine, std::size_t i) {
  const auto& config = engine.config();
  const std::size_t n = config.size();
  std::string out = core::format_state(config[i]);
  if (ring.holds_primary(i, config[i], config[stab::pred_index(i, n)]))
    out += 'P';
  if (ring.holds_secondary(config[i], config[stab::succ_index(i, n)]))
    out += 'S';
  const int rule = engine.enabled_rule(i);
  if (rule != stab::kDisabled) out.append("/").append(std::to_string(rule));
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "E1: Figure 4 execution trace", "Figure 4",
      "the published 16-step trace of SSRmin (n=5, K=6) is reproduced "
      "cell-for-cell");

  const core::SsrMinRing ring(5, 6);
  stab::Engine<core::SsrMinRing> engine(ring,
                                        core::canonical_legitimate(ring, 3));

  TextTable table({"Step", "P0", "P1", "P2", "P3", "P4", "matches paper"});
  std::size_t mismatches = 0;
  for (std::size_t step = 0; step < kPaperFigure4.size(); ++step) {
    table.row();
    table.cell(step + 1);
    bool row_ok = true;
    for (std::size_t i = 0; i < 5; ++i) {
      const std::string c = cell(ring, engine, i);
      table.cell(c);
      if (c != kPaperFigure4[step][i]) {
        row_ok = false;
        ++mismatches;
      }
    }
    table.cell(row_ok);
    engine.step(engine.enabled_indices());
  }
  std::cout << table.render() << '\n';
  std::cout << "cells diffed against the paper: "
            << kPaperFigure4.size() * 5 << ", mismatches: " << mismatches
            << (mismatches == 0 ? "  [REPRODUCED]" : "  [DIVERGED]") << "\n";
  return mismatches == 0 ? 0 : 1;
}
