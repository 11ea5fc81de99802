// Memory-slim storage backing the model checker's Phase B (convergence by
// reverse induction). Three cooperating pieces:
//
//  * MoveRecordCodec / MoveStore — the delta-compressed edge store. A
//    successor differs from its base configuration only at the processes
//    that moved, so the *entire* daemon fan-out of a configuration (all
//    2^m - 1 subset choices) is recoverable from one per-source record:
//    a varint mask of the positions whose digit changes, plus each
//    changed position's signed digit delta packed in
//    bit_width(2*(radix-1)) bits. Storage is O(moved digits) per source
//    instead of O(4 bytes) per *edge* — for spaces where the mean enabled
//    count is m, that is a ~2^m / record_bytes compression of an explicit
//    4-byte-per-edge predecessor list. Records are addressed by a
//    two-level offset table (u64 base per block, u16 offset within the
//    block), so random access during the peel costs two loads.
//
//  * CounterShift + HeightTable — the Z_K counter-shift symmetry the
//    checker quotients by, and the per-configuration worst-case-steps
//    table, packed as dense u16 per orbit representative (the peel aborts
//    on a chain longer than 65533 steps).
//
//  * CheckStats + projected-peak formulas — per-structure byte telemetry
//    and the memory model used to pick a storage mode *before* running:
//    projections are upper bounds (they assume every record is maximal),
//    so measured peaks always reconcile as measured <= projected.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "util/assert.hpp"

namespace ssr::verify {

// --- delta-compressed move records -----------------------------------------

/// Encodes/decodes one per-source move record: LEB128 varint of the
/// changed-position mask, then each changed position's digit delta
/// (ordered by ascending position) packed LSB-first in
/// bit_width(2*(radix-1)) bits with bias radix-1. A mask of 0 encodes a
/// pure self-loop source (every enabled move preserves the code).
class MoveRecordCodec {
 public:
  MoveRecordCodec() = default;
  MoveRecordCodec(std::size_t n, std::uint64_t radix)
      : n_(n),
        bias_(static_cast<std::int32_t>(radix) - 1),
        delta_bits_(static_cast<std::uint32_t>(
            std::bit_width(2 * (radix - 1)))) {
    SSR_REQUIRE(n >= 1 && n <= 32, "move records support 1..32 positions");
    SSR_REQUIRE(radix >= 2, "radix must be at least 2");
  }

  std::size_t positions() const { return n_; }
  std::uint32_t delta_bits() const { return delta_bits_; }

  static std::size_t varint_size(std::uint32_t v) {
    std::size_t s = 1;
    while (v >= 0x80) {
      v >>= 7;
      ++s;
    }
    return s;
  }

  std::size_t encoded_size(std::uint32_t mask) const {
    return varint_size(mask) +
           (static_cast<std::size_t>(std::popcount(mask)) * delta_bits_ + 7) /
               8;
  }

  std::size_t max_encoded_size() const {
    const std::uint32_t full =
        n_ == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << n_) - 1;
    return encoded_size(full);
  }

  /// Writes the record for (mask, deltas) at @p out; deltas holds one
  /// signed digit delta per set mask bit, ascending position order, each
  /// in [-(radix-1), radix-1]. Returns bytes written (<= max_encoded_size).
  std::size_t encode(std::uint32_t mask, const std::int32_t* deltas,
                     std::uint8_t* out) const {
    std::uint8_t* p = out;
    std::uint32_t v = mask;
    while (v >= 0x80) {
      *p++ = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    std::uint64_t acc = 0;
    std::uint32_t acc_bits = 0;
    const int count = std::popcount(mask);
    for (int k = 0; k < count; ++k) {
      const auto biased = static_cast<std::uint64_t>(deltas[k] + bias_);
      acc |= biased << acc_bits;
      acc_bits += delta_bits_;
      while (acc_bits >= 8) {
        *p++ = static_cast<std::uint8_t>(acc);
        acc >>= 8;
        acc_bits -= 8;
      }
    }
    if (acc_bits > 0) *p++ = static_cast<std::uint8_t>(acc);
    return static_cast<std::size_t>(p - out);
  }

  /// Decodes a record at @p in into (mask, deltas); deltas must have room
  /// for popcount(mask) entries. Returns bytes consumed.
  std::size_t decode(const std::uint8_t* in, std::uint32_t& mask,
                     std::int32_t* deltas) const {
    const std::uint8_t* p = in;
    std::uint32_t v = 0;
    std::uint32_t shift = 0;
    for (;;) {
      const std::uint8_t byte = *p++;
      v |= static_cast<std::uint32_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    mask = v;
    std::uint64_t acc = 0;
    std::uint32_t acc_bits = 0;
    const std::uint64_t delta_mask = (std::uint64_t{1} << delta_bits_) - 1;
    const int count = std::popcount(mask);
    for (int k = 0; k < count; ++k) {
      while (acc_bits < delta_bits_) {
        acc |= static_cast<std::uint64_t>(*p++) << acc_bits;
        acc_bits += 8;
      }
      deltas[k] = static_cast<std::int32_t>(acc & delta_mask) - bias_;
      acc >>= delta_bits_;
      acc_bits -= delta_bits_;
    }
    return static_cast<std::size_t>(p - in);
  }

 private:
  std::size_t n_ = 0;
  std::int32_t bias_ = 0;
  std::uint32_t delta_bits_ = 0;
};

/// Block shift shared by MoveStore and the peak projection: at most 12
/// (4096 configs/block, so peel chunks aligned to
/// TwoLevelBitset::kBlockBits cover whole blocks), shrunk until a block of
/// maximal records fits the u16 local offsets.
inline std::uint32_t move_store_block_shift(std::size_t max_record) {
  std::uint32_t shift = 12;
  while (shift > 0 && (std::uint64_t{1} << shift) * max_record > 65535) {
    --shift;
  }
  SSR_REQUIRE((std::uint64_t{1} << shift) * max_record <= 65535,
              "move record too large for two-level offsets");
  return shift;
}

/// The two-level offset index shared by every record container: a record
/// is addressed as block_base[c >> shift] + local_off[c]. The index is
/// built in two passes (per-config local offsets + per-block byte totals,
/// then one prefix sum) and is a function of the configuration index
/// alone, never of the thread schedule. MoveStore keeps the byte stream
/// in RAM next to it; SpillMoveStore (spill_store.hpp) keeps only this
/// index resident and streams the bytes from disk.
class MoveLayout {
 public:
  void prepare(std::uint64_t total, const MoveRecordCodec& codec) {
    total_ = total;
    block_shift_ = move_store_block_shift(codec.max_encoded_size());
    local_off_.assign(total, 0);
    block_base_.assign(block_count() + 1, 0);
  }

  std::uint64_t total() const { return total_; }
  std::uint32_t block_shift() const { return block_shift_; }
  std::uint64_t block_count() const {
    return total_ == 0 ? 0 : ((total_ - 1) >> block_shift_) + 1;
  }
  std::uint64_t block_begin(std::uint64_t b) const { return b << block_shift_; }
  std::uint64_t block_end(std::uint64_t b) const {
    return std::min(total_, (b + 1) << block_shift_);
  }

  /// Pass 1 writers: per-config local offset and per-block byte size.
  /// Each block must be written by exactly one worker.
  void set_local_offset(std::uint64_t c, std::uint16_t off) {
    local_off_[c] = off;
  }
  void set_block_bytes(std::uint64_t b, std::uint64_t bytes) {
    block_base_[b + 1] = bytes;
  }

  /// After pass 1: prefix-sums the block sizes into stream offsets.
  void finalize() {
    for (std::uint64_t b = 0; b < block_count(); ++b) {
      block_base_[b + 1] += block_base_[b];
    }
  }

  std::uint16_t local_offset(std::uint64_t c) const { return local_off_[c]; }
  std::uint64_t block_base(std::uint64_t b) const { return block_base_[b]; }
  std::uint64_t block_bytes(std::uint64_t b) const {
    return block_base_[b + 1] - block_base_[b];
  }
  std::uint64_t offset_of(std::uint64_t c) const {
    return block_base_[c >> block_shift_] + local_off_[c];
  }
  /// Total stream bytes (valid after finalize()).
  std::uint64_t total_bytes() const {
    return block_base_.empty() ? 0 : block_base_.back();
  }

  std::uint64_t offset_bytes() const {
    return local_off_.capacity() * sizeof(std::uint16_t) +
           block_base_.capacity() * sizeof(std::uint64_t);
  }

  void release() {
    local_off_ = {};
    block_base_ = {};
  }

 private:
  std::uint64_t total_ = 0;
  std::uint32_t block_shift_ = 12;
  std::vector<std::uint16_t> local_off_;
  std::vector<std::uint64_t> block_base_;
};

/// Random-access container of per-source move records. Layout is fixed by
/// configuration index alone (never by thread schedule): records live in
/// one in-RAM byte stream, addressed through a MoveLayout.
class MoveStore {
 public:
  MoveStore() = default;

  void prepare(std::uint64_t total, const MoveRecordCodec& codec) {
    layout_.prepare(total, codec);
  }

  MoveLayout& layout() { return layout_; }
  const MoveLayout& layout() const { return layout_; }

  /// After pass 1: prefix-sums the block sizes and allocates the stream.
  void finalize_layout() {
    layout_.finalize();
    stream_.assign(layout_.total_bytes(), 0);
  }

  std::uint8_t* slot(std::uint64_t c) {
    return stream_.data() + layout_.offset_of(c);
  }
  const std::uint8_t* record_at(std::uint64_t c) const {
    return stream_.data() + layout_.offset_of(c);
  }

  std::uint64_t stream_bytes() const { return stream_.size(); }

  void release() {
    stream_ = {};
    layout_.release();
  }

 private:
  MoveLayout layout_;
  std::vector<std::uint8_t> stream_;
};

// --- counter-shift symmetry ------------------------------------------------

/// The uniform counter shift of a ring protocol whose local-state digit is
/// x * stride + flags, with counter x in Z_modulus and flags < stride:
/// sigma_c adds c (mod modulus) to every process's counter and keeps every
/// flag. Protocols that only compare counters for equality, copy them or
/// add 1 mod K commute with it, so each orbit of modulus configurations
/// shares one answer. modulus <= 1 is no shift: every orbit is a single
/// configuration.
struct CounterShift {
  std::uint32_t modulus = 1;
  std::uint32_t stride = 1;

  std::uint32_t orbit_size() const { return modulus > 1 ? modulus : 1; }

  /// Digit @p d with its counter lowered by @p v (v < modulus).
  std::uint32_t lower(std::uint32_t d, std::uint32_t v) const {
    return (d / stride + modulus - v) % modulus * stride + d % stride;
  }

  /// The orbit representative of @p code in an n-digit base-radix space:
  /// the member whose most significant digit (process n-1) has counter 0.
  /// It is also the orbit's lowest code, and the representatives are
  /// exactly the codes below radix^n / modulus.
  std::uint64_t canonical(std::uint64_t code, std::size_t n,
                          std::uint64_t radix) const {
    if (orbit_size() == 1 || n == 0) return code;
    std::uint64_t top = code;
    for (std::size_t i = 1; i < n; ++i) top /= radix;
    const auto v = static_cast<std::uint32_t>(top) / stride;
    if (v == 0) return code;
    std::uint64_t out = 0;
    std::uint64_t place = 1;
    for (std::size_t i = 0; i < n; ++i, place *= radix) {
      out += lower(static_cast<std::uint32_t>(code % radix), v) * place;
      code /= radix;
    }
    return out;
  }

  friend bool operator==(const CounterShift&, const CounterShift&) = default;
};

// --- packed heights --------------------------------------------------------

/// Per-configuration height (exact worst-case steps to Lambda), packed as
/// dense u16. kEscapeTag is the peel's unfinalized sentinel, never a height.
///
/// A table built by a checker whose codec carries a CounterShift stores
/// one height per orbit representative. operator[] takes any full-space
/// code and reads its representative's height, and size() is the full
/// configuration count, so callers index it exactly like a dense table.
class HeightTable {
 public:
  static constexpr std::uint16_t kEscapeTag = 0xFFFF;

  HeightTable() = default;

  /// Adopts a dense u16 table of finalized heights, one per configuration.
  static HeightTable adopt(std::vector<std::uint16_t> dense) {
    HeightTable t;
    t.dense_ = std::move(dense);
    return t;
  }

  /// Adopts a table of the orbit representatives of an n-digit base-radix
  /// space under @p shift (codes [0, radix^n / orbit_size)).
  static HeightTable adopt(std::vector<std::uint16_t> dense,
                           CounterShift shift, std::size_t n,
                           std::uint64_t radix) {
    HeightTable t = adopt(std::move(dense));
    t.shift_ = shift;
    t.n_ = n;
    t.radix_ = radix;
    return t;
  }

  /// assign() and set() build a dense table indexed by configuration.
  void assign(std::uint64_t size, std::uint32_t value) {
    dense_.assign(size, narrow(value));
    shift_ = {};
  }
  void set(std::uint64_t i, std::uint32_t v) { dense_[i] = narrow(v); }
  std::uint32_t operator[](std::uint64_t i) const {
    return dense_[shift_.canonical(i, n_, radix_)];
  }

  /// Full-space configuration count.
  std::uint64_t size() const { return dense_.size() * shift_.orbit_size(); }
  /// Stored entries: one per orbit representative.
  std::uint64_t representatives() const { return dense_.size(); }
  std::uint32_t orbit_size() const { return shift_.orbit_size(); }
  bool empty() const { return dense_.empty(); }
  std::uint64_t bytes() const {
    return dense_.capacity() * sizeof(std::uint16_t);
  }

  friend bool operator==(const HeightTable& a, const HeightTable& b) {
    return a.dense_ == b.dense_ && a.shift_ == b.shift_;
  }

 private:
  static std::uint16_t narrow(std::uint32_t v) {
    SSR_REQUIRE(v < kEscapeTag, "height exceeds the packed u16 range");
    return static_cast<std::uint16_t>(v);
  }

  std::vector<std::uint16_t> dense_;
  CounterShift shift_;
  std::size_t n_ = 0;
  std::uint64_t radix_ = 0;
};

// --- storage modes, projections, telemetry ---------------------------------

/// Phase B storage backend. kAuto picks the cheapest mode whose projected
/// *resident* peak fits the memory budget (compressed first, then
/// CSR-free, then the disk-spilled stream) and throws a projected-memory
/// error if none fits.
enum class PhaseBStorage { kAuto, kCompressed, kCsrFree, kSpill };

inline const char* to_string(PhaseBStorage m) {
  switch (m) {
    case PhaseBStorage::kAuto: return "auto";
    case PhaseBStorage::kCompressed: return "compressed";
    case PhaseBStorage::kCsrFree: return "csr-free";
    case PhaseBStorage::kSpill: return "spill";
  }
  return "?";
}

/// Per-run memory/edge telemetry (`ssring check --stats`,
/// `bench_modelcheck`). Byte counts are analytic high-water marks of the
/// named structures, not RSS; projected_peak_bytes is the upper-bound
/// estimate mode selection used, so measured_peak_bytes <= projected
/// always holds for the mode actually run.
struct CheckStats {
  PhaseBStorage mode = PhaseBStorage::kAuto;  ///< mode actually run
  bool phase_a_sliced = false;  ///< Phase A ran bit-sliced (64 lanes)
  /// Configurations per counter-shift orbit (K, or 1 without the
  /// quotient). The checker processes one representative per orbit, so
  /// every edge and byte count below describes the representatives, a
  /// 1/orbit_size share of the full space.
  std::uint32_t orbit_size = 1;
  std::uint64_t memory_budget_bytes = 0;
  std::uint64_t projected_peak_bytes = 0;
  std::uint64_t measured_peak_bytes = 0;
  std::uint64_t edge_count = 0;    ///< daemon step edges: sum of 2^m - 1
  double bytes_per_edge = 0.0;     ///< edge-storage bytes / edge_count
  std::uint32_t rounds = 0;        ///< reverse-induction rounds (max height)
  std::uint64_t lambda_bytes = 0;  ///< Lambda membership bitset
  std::uint64_t counts_bytes = 0;  ///< watched-successor table
  std::uint64_t offsets_bytes = 0; ///< two-level record offsets
  std::uint64_t edges_bytes = 0;   ///< in-RAM record stream
  std::uint64_t heights_bytes = 0; ///< height table
  std::uint64_t frontier_bytes = 0;///< active bitset
  // Disk-tier telemetry (kSpill only; zero elsewhere). spill_bytes is the
  // on-disk record stream; blocks_read counts record blocks streamed back
  // in across all peel rounds; read_amplification is the total bytes
  // streamed divided by spill_bytes (>= 1 for one full pass; roughly the
  // round count for a converging peel, shrinking as rounds finalize).
  std::uint64_t spill_bytes = 0;
  std::uint64_t blocks_read = 0;
  double read_amplification = 0.0;
  std::string spill_path;          ///< spill file location (kSpill only)
  std::string summary() const;
};

/// Bytes of a TwoLevelBitset over @p total indices.
inline std::uint64_t projected_bitset_bytes(std::uint64_t total) {
  const std::uint64_t words = (total + 63) / 64;
  return (words + (words + 63) / 64) * 8;
}

/// Upper bound on the compressed mode's Phase B peak: Lambda + active
/// bitsets, two-level offsets, a maximal record per configuration, and
/// the u16 watch and height tables.
inline std::uint64_t projected_compressed_bytes(std::uint64_t total,
                                                std::size_t n,
                                                std::uint64_t radix) {
  const MoveRecordCodec codec(n, radix);
  const std::uint32_t shift = move_store_block_shift(codec.max_encoded_size());
  const std::uint64_t blocks = total == 0 ? 0 : ((total - 1) >> shift) + 1;
  return 2 * projected_bitset_bytes(total) +            // Lambda + active
         2 * total + 8 * (blocks + 1) +                 // record offsets
         total * codec.max_encoded_size() +             // record stream
         4 * total +                                    // u32 watch table
         2 * total;                                     // heights
}

/// Upper bound on the CSR-free mode's Phase B peak: no edge storage at
/// all, just the bitsets, the u32 watch table and the u16 heights.
inline std::uint64_t projected_csrfree_bytes(std::uint64_t total) {
  return 2 * projected_bitset_bytes(total) + 4 * total + 2 * total;
}

/// Resident upper bound for the spill mode. The record stream lives on
/// disk and the peel is watch-free (no u32 watch table — dropping it is
/// exactly what puts this bound under csr-free's), so RAM holds only the
/// two bitsets, the two-level offset index and the u16 heights.
inline std::uint64_t projected_spill_resident_bytes(std::uint64_t total,
                                                    std::size_t n,
                                                    std::uint64_t radix) {
  const MoveRecordCodec codec(n, radix);
  const std::uint32_t shift = move_store_block_shift(codec.max_encoded_size());
  const std::uint64_t blocks = total == 0 ? 0 : ((total - 1) >> shift) + 1;
  return 2 * projected_bitset_bytes(total) +  // Lambda + active
         2 * total + 8 * (blocks + 1) +       // record offsets
         2 * total;                           // heights
}

/// Upper bound on the spilled byte stream (every record maximal) — disk
/// footprint, not RAM; reported alongside the resident projection so
/// errors and --stats can tell the two tiers apart.
inline std::uint64_t projected_spill_file_bytes(std::uint64_t total,
                                                std::size_t n,
                                                std::uint64_t radix) {
  return total * MoveRecordCodec(n, radix).max_encoded_size();
}

/// Container memory limit from the cgroup filesystem, or 0 when
/// unlimited/unavailable. Reads <root>/memory.max (cgroup v2), then
/// <root>/memory/memory.limit_in_bytes (v1), where <root> is
/// /sys/fs/cgroup unless overridden by SSRING_CGROUP_ROOT (the unit tests
/// point that at a fake hierarchy). v2 spells "no limit" as the literal
/// "max"; v1 as a near-2^63 page-rounded sentinel — both map to 0 here.
inline std::uint64_t cgroup_memory_limit_bytes() {
  const char* env = std::getenv("SSRING_CGROUP_ROOT");
  const std::string root =
      (env != nullptr && *env != '\0') ? env : "/sys/fs/cgroup";
  for (const char* rel : {"/memory.max", "/memory/memory.limit_in_bytes"}) {
    std::ifstream in(root + rel);
    if (!in.is_open()) continue;
    std::string tok;
    in >> tok;
    if (tok.empty() || tok == "max") continue;
    const unsigned long long v = std::strtoull(tok.c_str(), nullptr, 10);
    if (v == 0 || v >= (std::uint64_t{1} << 60)) continue;
    return v;
  }
  return 0;
}

/// Default Phase B memory budget: SSRING_CHECK_MEMORY_BUDGET (bytes) if
/// set, else 3/4 of min(physical RAM, cgroup memory limit), else 8 GiB.
/// The cgroup min matters in containers: _SC_PHYS_PAGES reports *host*
/// RAM there, and a budget above the container's limit meets the OOM
/// killer before it meets the projection error.
inline std::uint64_t default_memory_budget() {
  if (const char* env = std::getenv("SSRING_CHECK_MEMORY_BUDGET")) {
    const unsigned long long v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  std::uint64_t limit = 0;
#if defined(_SC_PHYS_PAGES) && defined(_SC_PAGE_SIZE)
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page = sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page > 0) {
    limit = static_cast<std::uint64_t>(pages) * static_cast<std::uint64_t>(page);
  }
#endif
  const std::uint64_t cgroup = cgroup_memory_limit_bytes();
  if (cgroup != 0) limit = limit == 0 ? cgroup : std::min(limit, cgroup);
  if (limit != 0) return limit / 4 * 3;
  return std::uint64_t{8} << 30;
}

/// Resolves the storage mode. For kAuto, picks compressed if its
/// projected peak fits @p budget, else CSR-free, else spill (whose
/// *resident* projection is compared against the budget — the record
/// stream goes to disk), else throws the projected-memory error (the
/// successor of the seed's hard 2^33 cap). An explicitly requested mode
/// is also checked against the budget so the error can name the mode
/// that *would* fit. Returns the resolved mode and stores the projection
/// used in @p projected_out; when the resolved mode is kSpill,
/// @p spill_file_out (if given) receives the projected on-disk bytes.
inline PhaseBStorage select_phaseb_storage(
    PhaseBStorage requested, std::uint64_t total, std::size_t n,
    std::uint64_t radix, std::uint64_t budget, std::uint64_t* projected_out,
    std::uint64_t* spill_file_out = nullptr) {
  const std::uint64_t proj_comp = projected_compressed_bytes(total, n, radix);
  const std::uint64_t proj_free = projected_csrfree_bytes(total);
  const std::uint64_t proj_spill =
      projected_spill_resident_bytes(total, n, radix);
  const std::uint64_t proj_file = projected_spill_file_bytes(total, n, radix);
  if (spill_file_out != nullptr) *spill_file_out = 0;
  auto err = [&](const std::string& head) {
    std::string fits;
    if (proj_comp <= budget) fits = "compressed mode would fit";
    else if (proj_free <= budget) fits = "csr-free mode would fit";
    else if (proj_spill <= budget) fits = "spill mode would fit";
    else fits = "no storage mode fits (even spill keeps its offset index "
                "resident); reduce n or K, raise the memory budget, or "
                "disable the convergence check";
    SSR_REQUIRE(false, head + " (projected compressed=" +
                           std::to_string(proj_comp) +
                           " bytes, csr-free=" + std::to_string(proj_free) +
                           " bytes, spill resident=" +
                           std::to_string(proj_spill) + " bytes + " +
                           std::to_string(proj_file) +
                           " bytes on disk, budget=" + std::to_string(budget) +
                           " bytes; " + fits + ")");
  };
  auto pick_spill = [&]() {
    *projected_out = proj_spill;
    if (spill_file_out != nullptr) *spill_file_out = proj_file;
    return PhaseBStorage::kSpill;
  };
  switch (requested) {
    case PhaseBStorage::kAuto:
      if (proj_comp <= budget) {
        *projected_out = proj_comp;
        return PhaseBStorage::kCompressed;
      }
      if (proj_free <= budget) {
        *projected_out = proj_free;
        return PhaseBStorage::kCsrFree;
      }
      if (proj_spill <= budget) return pick_spill();
      err("configuration space exceeds the Phase B memory budget");
      break;
    case PhaseBStorage::kCompressed:
      if (proj_comp > budget) {
        err("compressed Phase B storage exceeds the memory budget");
      }
      *projected_out = proj_comp;
      return PhaseBStorage::kCompressed;
    case PhaseBStorage::kCsrFree:
      if (proj_free > budget) {
        err("csr-free Phase B storage exceeds the memory budget");
      }
      *projected_out = proj_free;
      return PhaseBStorage::kCsrFree;
    case PhaseBStorage::kSpill:
      if (proj_spill > budget) {
        err("spill Phase B storage's resident index exceeds the memory "
            "budget");
      }
      return pick_spill();
  }
  return requested;  // unreachable
}

}  // namespace ssr::verify
