// Wire format for state messages — the "boilerplate of real messaging".
//
// The paper's fault model (§2.2) includes message corruption, loss and
// duplication. Self-stabilization handles loss and duplication natively
// (CST rebroadcasts full states); corruption is handled the way deployed
// systems handle it: an end-to-end checksum turns a corrupted frame into a
// *dropped* frame, which Lemma 9's loss analysis already covers. This
// module provides:
//
//   * LEB128-style varint encoding for integers,
//   * CRC-32 (IEEE 802.3 polynomial, table-driven),
//   * the framed message format, keyed by ring so one socket can carry
//     the frames of many rings:
//       magic(0xA5) | version(2) | ring-id varint | sender varint |
//       payload-length varint | payload bytes | crc32 (little-endian,
//       over everything before it)
//     Version 2 is the only format; any other version byte (including the
//     retired ring-less version 1) fails with kBadVersion;
//   * per-protocol state payload codecs (SSRmin, K-state, dual K-state).
//
// decode_frame_any() never throws on malformed input: every parse failure —
// truncation, bad magic, bad version, length mismatch, checksum mismatch —
// returns std::nullopt with a reason, because "garbage from the network"
// is an expected input, not a programming error.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/state.hpp"
#include "dijkstra/dual.hpp"
#include "dijkstra/kstate.hpp"
#include "util/rng.hpp"

namespace ssr::wire {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Appends a LEB128 varint.
void put_varint(Bytes& out, std::uint64_t value);

/// Reads a LEB128 varint at @p offset, advancing it. Returns nullopt on
/// truncation or on encodings longer than 10 bytes.
std::optional<std::uint64_t> get_varint(ByteView data, std::size_t& offset);

/// CRC-32 (IEEE) of the byte range.
std::uint32_t crc32(ByteView data);

/// Why a frame failed to decode (for observability counters).
enum class DecodeError {
  kNone,
  kTruncated,
  kBadMagic,
  kBadVersion,
  kBadLength,
  kBadChecksum,
};

std::string to_string(DecodeError error);

/// A decoded frame.
struct FrameV2 {
  std::uint64_t ring_id = 0;
  std::uint64_t sender = 0;
  Bytes payload;
};

inline constexpr std::uint8_t kMagic = 0xA5;
inline constexpr std::uint8_t kVersion2 = 2;

/// Appends a complete v2 frame (ring-id keyed) to @p out. The append form
/// is the reactor's hot path: frames for one sendmmsg batch share a single
/// arena buffer instead of allocating per frame.
void encode_frame_v2_into(Bytes& out, std::uint64_t ring_id,
                          std::uint64_t sender, ByteView payload);

/// Builds a complete v2 frame around @p payload.
Bytes encode_frame_v2(std::uint64_t ring_id, std::uint64_t sender,
                      ByteView payload);

/// Parses a frame; on failure returns nullopt and sets @p error (if
/// given). A version byte other than kVersion2 fails with kBadVersion.
std::optional<FrameV2> decode_frame_any(ByteView data,
                                        DecodeError* error = nullptr);

/// Flips @p flips random bits of @p frame in place (fault injection).
void corrupt_bits(Bytes& frame, Rng& rng, std::size_t flips = 1);

// --- per-protocol payload codecs ------------------------------------------

/// SSRmin local state: varint x, then one flag byte (bit0 = tra,
/// bit1 = rts).
Bytes encode_state(const core::SsrState& state);
std::optional<core::SsrState> decode_ssr_state(ByteView payload);

/// K-state local state: varint x.
Bytes encode_state(const dijkstra::KStateLocal& state);
std::optional<dijkstra::KStateLocal> decode_kstate(ByteView payload);

/// Dual K-state local state: varint a, varint b.
Bytes encode_state(const dijkstra::DualLocal& state);
std::optional<dijkstra::DualLocal> decode_dual(ByteView payload);

}  // namespace ssr::wire
