// Byte-level codecs for the protocol messages.
//
// The paper charges flat field sizes (sa = sg = si = 4 bytes, Table III).
// A deployment would serialize for real, so this module provides the
// encodings a production implementation would use and exact decoders for
// them:
//
//   * varint  — LEB128 variable-length unsigned integers; small aggregate
//     values cost one byte, not four.
//   * delta   — sorted id lists stored as first-difference varints; dense
//     id ranges (heavy group ids) shrink dramatically.
//   * pairs   — <item id, value> lists as delta-coded sorted ids plus
//     varint values: the candidate aggregation and naive messages.
//   * dense   — group-aggregate vectors as fixed-width or varint arrays.
//
// bench/ablation_encoding compares the paper's flat-field byte model with
// these realistic encodings across every message type of a full run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/value_map.h"
#include "net/payload.h"

namespace nf::net {

using Bytes = std::vector<std::uint8_t>;

/// Appends the LEB128 encoding of `value` to `out`.
void put_varint(Bytes& out, std::uint64_t value);

/// Reads one LEB128 integer at `offset`, advancing it. Throws
/// ProtocolError on truncated or over-long input. (varint_size() and the
/// raw write_varint() live in net/payload.h, next to the slab writer.)
[[nodiscard]] std::uint64_t get_varint(std::span<const std::uint8_t> in,
                                       std::size_t& offset);

/// Sorted id list -> count + delta-coded varints.
[[nodiscard]] Bytes encode_sorted_ids(std::span<const std::uint64_t> ids);
[[nodiscard]] std::vector<std::uint64_t> decode_sorted_ids(
    std::span<const std::uint8_t> in);

/// <item, value> map -> count + delta-coded ids with interleaved varint
/// values (ValueMap iterates sorted, so deltas are non-negative). The
/// decoder rejects a run whose ids are not strictly ascending — a zero or
/// wrapping delta after the first pair — with ProtocolError.
[[nodiscard]] Bytes encode_pairs(const ValueMap<ItemId, std::uint64_t>& map);
[[nodiscard]] ValueMap<ItemId, std::uint64_t> decode_pairs(
    std::span<const std::uint8_t> in);

/// Phase-2 merge kernel: decodes an encoded pair run (encode_pairs layout)
/// straight into a two-pointer merge with `acc`, summing values of equal
/// ids — no intermediate map, no sort (ValueMap::merge_add_run). Throws
/// ProtocolError, leaving `acc` unchanged, on truncated, over-long,
/// trailing or not strictly ascending input.
void merge_pairs_from(std::span<const std::uint8_t> in,
                      ValueMap<ItemId, std::uint64_t>& acc);

/// Dense aggregate vector -> count + varint per slot (zeros cost 1 byte).
[[nodiscard]] Bytes encode_aggregates(std::span<const std::uint64_t> values);
[[nodiscard]] std::vector<std::uint64_t> decode_aggregates(
    std::span<const std::uint8_t> in);

/// Fixed-width reference encoding (the paper's model): count varint, then
/// 4 little-endian bytes per slot, values clamped at 2^32-1. Only its size
/// is ever measured (bench/ablation_encoding), so it has no decoder.
[[nodiscard]] Bytes encode_aggregates_fixed32(
    std::span<const std::uint64_t> values);

// --- Slab-writer variants (net/payload.h) ---------------------------------
//
// Byte-for-byte identical to the Bytes-returning encoders above, but append
// straight into a slab arena through a PayloadWriter: each computes its
// exact encoded size with varint_size(), takes that many bytes with one
// append_raw() and writes them through a plain pointer — zero intermediate
// allocation on the hot path. tests/codec_test.cpp pins the equivalence.

/// Sorted id list -> count + delta-coded varints, into `w`.
void encode_sorted_ids_to(PayloadWriter& w, std::span<const std::uint64_t> ids);

/// <item, value> map -> count + delta ids + interleaved values, into `w`.
void encode_pairs_to(PayloadWriter& w,
                     const ValueMap<ItemId, std::uint64_t>& map);

/// Dense aggregate vector -> count + varint per slot, into `w`.
void encode_aggregates_to(PayloadWriter& w,
                          std::span<const std::uint64_t> values);

/// Decodes an aggregate vector and adds it slot-wise into `acc` without
/// allocating. Throws ProtocolError if the encoded count differs from
/// `acc.size()` or the input is truncated/overlong.
void add_aggregates_from(std::span<const std::uint8_t> in,
                         std::span<std::uint64_t> acc);

}  // namespace nf::net
