// ASCII token-timeline renderer — the visual reproduction of the paper's
// Figures 11-13. One row per node, one character column per time slice:
// '#' while the node holds a token (by its local view), '.' while it does
// not; a summary row marks slices with zero holders with '!' (the paper's
// "no token" windows) and with '2' where two nodes hold tokens.
//
// Wire a TimelineRecorder to CstSimulation::set_observer and render after
// the run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "msgpass/cst.hpp"
#include "util/assert.hpp"

namespace ssr::msgpass {

class TimelineRecorder {
 public:
  /// @param nodes       ring size (rows)
  /// @param resolution  simulated-time width of one character column
  /// @param start       simulated time of the first column
  TimelineRecorder(std::size_t nodes, double resolution, Time start = 0.0)
      : nodes_(nodes), resolution_(resolution), start_(start) {
    SSR_REQUIRE(nodes > 0, "timeline needs at least one node");
    SSR_REQUIRE(resolution > 0.0, "resolution must be positive");
  }

  /// Observer hook: the holder set @p holders was in force on [from, to).
  /// Columns are sampled at their left edge.
  void record(Time from, Time to, const std::vector<bool>& holders) {
    SSR_REQUIRE(holders.size() == nodes_, "holder vector size mismatch");
    if (to <= start_) return;
    // First column whose left edge is >= max(from, start_).
    const double lo = std::max(from, start_);
    auto col = static_cast<std::size_t>((lo - start_) / resolution_);
    // Snap up to the first edge inside the interval.
    while (start_ + static_cast<double>(col) * resolution_ < lo) ++col;
    for (; start_ + static_cast<double>(col) * resolution_ < to; ++col) {
      ensure_column(col);
      for (std::size_t i = 0; i < nodes_; ++i) {
        columns_[col][i] = holders[i];
      }
    }
  }

  /// Binds this recorder to a simulation as its interval observer.
  template <typename Protocol>
  void attach(CstSimulation<Protocol>& sim) {
    sim.set_observer([this](Time from, Time to,
                            const std::vector<bool>& holders) {
      record(from, to, holders);
    });
  }

  std::size_t column_count() const { return columns_.size(); }

  /// Renders at most @p max_cols columns (truncating on the right), e.g.
  ///
  ///   v0 |###....#######..
  ///   v1 |...####.........
  ///   any|###!###########!   ('!' = zero-token instant, '2' = two holders)
  std::string render(std::size_t max_cols = 100) const {
    const std::size_t cols = std::min(columns_.size(), max_cols);
    std::string out;
    for (std::size_t i = 0; i < nodes_; ++i) {
      out.append("v").append(std::to_string(i));
      out.append(i < 10 ? 2 : 1, ' ');
      out += '|';
      for (std::size_t c = 0; c < cols; ++c) {
        out += columns_[c][i] ? '#' : '.';
      }
      out += '\n';
    }
    out += "any |";
    for (std::size_t c = 0; c < cols; ++c) {
      std::size_t holders = 0;
      for (std::size_t i = 0; i < nodes_; ++i) {
        if (columns_[c][i]) ++holders;
      }
      out += holders == 0 ? '!' : (holders >= 2 ? '2' : '#');
    }
    out += '\n';
    return out;
  }

  /// Fraction of recorded columns with zero holders.
  double zero_fraction() const {
    if (columns_.empty()) return 0.0;
    std::size_t zeros = 0;
    for (const auto& col : columns_) {
      bool any = false;
      for (bool b : col) any = any || b;
      if (!any) ++zeros;
    }
    return static_cast<double>(zeros) / static_cast<double>(columns_.size());
  }

 private:
  void ensure_column(std::size_t col) {
    if (col >= columns_.size()) {
      columns_.resize(col + 1, std::vector<bool>(nodes_, false));
    }
  }

  std::size_t nodes_;
  double resolution_;
  Time start_;
  std::vector<std::vector<bool>> columns_;
};

}  // namespace ssr::msgpass
