// Execution trace recording and Figure-4-style pretty printing.
//
// The paper presents executions as tables: one row per configuration, one
// column per process, each cell showing the local state, token-holding
// marks ('P' / 'S' / 'T') and the enabled rule ("/g"). TraceRecorder
// captures configurations plus the daemon's selections; TracePrinter turns
// them into exactly that kind of table given protocol-specific formatting
// callbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "stabilizing/engine.hpp"
#include "stabilizing/protocol.hpp"
#include "util/table.hpp"

namespace ssr::stab {

/// One recorded step: the configuration *before* the step, which processes
/// the daemon selected and which rules they executed.
template <RingProtocol P>
struct TraceEntry {
  std::vector<typename P::State> config;
  std::vector<std::size_t> selected;
  std::vector<int> rules;
};

/// Records an execution driven through its run() helper.
template <RingProtocol P>
class TraceRecorder {
 public:
  using Entry = TraceEntry<P>;

  /// Runs @p steps daemon steps (or until deadlock) recording every
  /// pre-step configuration plus a final entry with the terminal
  /// configuration (empty selection).
  void run(Engine<P>& engine, Daemon& daemon, std::uint64_t steps) {
    for (std::uint64_t t = 0; t < steps; ++t) {
      Entry e;
      e.config = engine.config();
      std::vector<std::size_t> idx;
      std::vector<int> rules;
      engine.enabled(idx, rules);
      if (idx.empty()) {
        entries_.push_back(std::move(e));
        return;
      }
      const EnabledView view{idx, rules, engine.size()};
      e.selected = daemon.select(view);
      e.rules = engine.step(e.selected);
      entries_.push_back(std::move(e));
    }
    Entry final_entry;
    final_entry.config = engine.config();
    entries_.push_back(std::move(final_entry));
  }

  const std::vector<Entry>& entries() const { return entries_; }
  void clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

/// Formatting hooks a protocol provides to render its states.
template <typename State>
struct TraceStyle {
  /// Renders the raw local state, e.g. "3.0.1" for SSRmin.
  std::function<std::string(const State&)> format_state;
  /// Token/annotation marks for process i in the given configuration, e.g.
  /// "PS" when P_i holds both tokens. May be empty.
  std::function<std::string(const std::vector<State>&, std::size_t)> annotate;
};

/// Renders a recorded trace as a step-by-process table in the style of the
/// paper's Figure 4: cells look like "3.0.1PS/1" (state, token marks,
/// enabled rule of the process *that was selected* in that step).
template <RingProtocol P>
std::string format_trace(const std::vector<TraceEntry<P>>& entries,
                         const TraceStyle<typename P::State>& style) {
  if (entries.empty()) return "";
  const std::size_t n = entries.front().config.size();
  std::vector<std::string> header{"Step"};
  for (std::size_t i = 0; i < n; ++i) {
    header.push_back(std::string("P").append(std::to_string(i)));
  }
  TextTable table(std::move(header));
  for (std::size_t t = 0; t < entries.size(); ++t) {
    const auto& e = entries[t];
    table.row();
    table.cell(std::to_string(t + 1));
    for (std::size_t i = 0; i < n; ++i) {
      std::string cell = style.format_state(e.config[i]);
      if (style.annotate) cell += style.annotate(e.config, i);
      for (std::size_t k = 0; k < e.selected.size(); ++k) {
        if (e.selected[k] == i) {
          cell.append("/").append(std::to_string(e.rules[k]));
          break;
        }
      }
      table.cell(std::move(cell));
    }
  }
  return table.render();
}

}  // namespace ssr::stab
