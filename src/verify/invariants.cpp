#include "verify/invariants.hpp"

#include <sstream>

namespace ssr::verify {

namespace {

std::string describe(const core::SsrConfig& config) {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < config.size(); ++i) {
    if (i != 0) os << ", ";
    os << core::format_state(config[i]);
  }
  os << ')';
  return os.str();
}

}  // namespace

std::string PrivilegedBandInvariant::observe(const core::SsrConfig& config) {
  const std::size_t priv = core::privileged_count(ring_, config);
  if (priv == 0) {
    return "zero privileged processes in " + describe(config) +
           " (violates Lemma 3)";
  }
  if (core::is_legitimate(ring_, config) && priv > 2) {
    return "more than two privileged processes in legitimate " +
           describe(config) + " (violates Theorem 1)";
  }
  return {};
}

std::string TokenAdjacencyInvariant::observe(const core::SsrConfig& config) {
  if (!core::is_legitimate(ring_, config)) return {};
  const auto holdings = core::token_holdings(ring_, config);
  const std::size_t n = config.size();
  std::size_t primary_at = n;
  std::size_t secondary_at = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (holdings[i].primary) primary_at = i;
    if (holdings[i].secondary) secondary_at = i;
  }
  if (primary_at == n || secondary_at == n) {
    return "missing a token in legitimate " + describe(config);
  }
  if (primary_at != secondary_at &&
      stab::succ_index(primary_at, n) != secondary_at) {
    std::ostringstream os;
    os << "token holders not adjacent: primary at P" << primary_at
       << ", secondary at P" << secondary_at << " in " << describe(config);
    return os.str();
  }
  return {};
}

std::string ClosureInvariant::observe(const core::SsrConfig& config) {
  const bool legit = core::is_legitimate(ring_, config);
  if (was_legit_ && !legit) {
    return "left the legitimate set: " + describe(config) +
           " (violates Lemma 1)";
  }
  was_legit_ = legit;
  return {};
}

std::string ShapeCycleInvariant::observe(const core::SsrConfig& config) {
  const auto info = core::classify_legitimate(ring_, config);
  if (!info.has_value()) {
    previous_.reset();
    return {};
  }
  std::string violation;
  if (previous_.has_value()) {
    const auto& prev = *previous_;
    const std::size_t n = config.size();
    using core::LegitimateShape;
    bool ok = false;
    if (prev.primary_holder == info->primary_holder &&
        prev.shape == info->shape) {
      ok = true;  // no move of interest happened (e.g. stutter)
    } else if (prev.primary_holder == info->primary_holder) {
      ok = (prev.shape == LegitimateShape::kHolderTra &&
            info->shape == LegitimateShape::kHolderRts) ||
           (prev.shape == LegitimateShape::kHolderRts &&
            info->shape == LegitimateShape::kHandoffPending);
    } else if (stab::succ_index(prev.primary_holder, n) ==
               info->primary_holder) {
      ok = prev.shape == LegitimateShape::kHandoffPending &&
           info->shape == LegitimateShape::kHolderTra;
    }
    if (!ok) {
      std::ostringstream os;
      os << "shape sequence broke Figure 1's cycle: holder P"
         << prev.primary_holder << " shape " << static_cast<int>(prev.shape)
         << " -> holder P" << info->primary_holder << " shape "
         << static_cast<int>(info->shape);
      violation = os.str();
    }
  }
  previous_ = info;
  return violation;
}

std::string XPartMonotoneInvariant::observe(const core::SsrConfig& config) {
  const bool legit = core::dijkstra_part_legitimate(ring_, config);
  if (was_dijkstra_legit_ && !legit) {
    return "embedded Dijkstra ring left its legitimate set: " +
           describe(config) + " (violates Lemma 8 closure)";
  }
  was_dijkstra_legit_ = legit;
  return {};
}

InvariantSuite::InvariantSuite(const core::SsrMinRing& ring) {
  invariants_.push_back(std::make_unique<PrivilegedBandInvariant>(ring));
  invariants_.push_back(std::make_unique<TokenAdjacencyInvariant>(ring));
  invariants_.push_back(std::make_unique<ClosureInvariant>(ring));
  invariants_.push_back(std::make_unique<ShapeCycleInvariant>(ring));
  invariants_.push_back(std::make_unique<XPartMonotoneInvariant>(ring));
}

std::size_t InvariantSuite::observe(const core::SsrConfig& config) {
  ++observations_;
  std::size_t fresh = 0;
  for (auto& invariant : invariants_) {
    std::string violation = invariant->observe(config);
    if (!violation.empty()) {
      violations_.push_back(std::string("[")
                                .append(invariant->name())
                                .append("] ")
                                .append(violation));
      ++fresh;
    }
  }
  return fresh;
}

}  // namespace ssr::verify
