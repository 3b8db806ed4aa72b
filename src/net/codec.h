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

/// One flood frame (net/flood.h): varint(remaining ttl), then the opaque
/// payload body.
struct FloodFrame {
  std::uint32_t ttl = 0;
  std::span<const std::uint8_t> body;  ///< a view into the decoded input
};

/// Splits a flood frame without allocating. Throws ProtocolError on a
/// truncated or over-long varint and on any ttl >= `max_ttl`: the
/// originator sends max_ttl - 1 and every hop decrements it, so no genuine
/// copy carries more, and a larger value would re-flood past the bound.
[[nodiscard]] FloodFrame decode_flood_frame(std::span<const std::uint8_t> in,
                                            std::uint32_t max_ttl);

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

/// Number of pairs an encoded pair run holds, read from its leading count.
/// Throws ProtocolError on a count the run's length cannot hold.
[[nodiscard]] std::uint64_t pair_count(std::span<const std::uint8_t> in);

// --- Control-plane codecs --------------------------------------------------
//
// Hierarchy maintenance, push-sum gossip and source-routed request/reply
// (agg/maintenance.h, agg/gossip.h, core/gossip_netfilter.cpp,
// agg/unicast.h). Every decoder throws ProtocolError on malformed input and
// never allocates unless it fills a caller's container.

/// Hierarchy-maintenance message: a one-byte tag; a heartbeat follows it
/// with varint SEQ and varint DEPTH.
enum class MaintenanceTag : std::uint8_t {
  kHeartbeat = 0,
  kOrphan = 1,
  kAttach = 2,
  kDetach = 3,
};

struct MaintenanceMsg {
  MaintenanceTag tag = MaintenanceTag::kHeartbeat;
  std::uint64_t seq = 0;    ///< heartbeats only
  std::uint32_t depth = 0;  ///< heartbeats only
};

void encode_maintenance_to(PayloadWriter& w, const MaintenanceMsg& msg);

/// Throws on an empty payload, an unknown tag, a truncated or over-long
/// varint, a depth beyond 32 bits, or trailing bytes.
[[nodiscard]] MaintenanceMsg decode_maintenance(
    std::span<const std::uint8_t> in);

/// Dense push-sum share: each coordinate of `x`, then `count` and `weight`,
/// all as little-endian fixed64 IEEE doubles.
void encode_share_to(PayloadWriter& w, std::span<const double> x,
                     double count, double weight);

/// Adds a dense share into `x`, `count` and `weight`. Throws unless `in`
/// holds exactly x.size() + 2 fields, leaving the accumulators unchanged.
void add_share_from(std::span<const std::uint8_t> in, std::span<double> x,
                    double& count, double& weight);

/// Sparse push-sum share: entry count, then per entry a delta-varint item
/// id and its fixed64 value, then fixed64 `count` and `weight`.
void encode_map_share_to(PayloadWriter& w, const ValueMap<ItemId, double>& x,
                         double count, double weight);

/// Merges a sparse share into `x` (summing equal ids) and adds its count
/// and weight. Throws on a count the payload cannot hold, ids that do not
/// strictly ascend, or a truncated or over-long share, leaving the
/// accumulators unchanged.
void merge_map_share_from(std::span<const std::uint8_t> in,
                          ValueMap<ItemId, double>& x, double& count,
                          double& weight);

/// Source route: peer count, then one varint peer id per hop. A reply
/// appends its encode_pairs run after the route.
void encode_route_to(PayloadWriter& w, std::span<const PeerId> route);

/// A route split off the front of a payload; every id is validated.
struct RouteFrame {
  std::uint64_t count = 0;             ///< peers on the route
  std::span<const std::uint8_t> ids;   ///< their encoded ids
  std::span<const std::uint8_t> rest;  ///< the bytes after the route
  PeerId last{};                       ///< the final peer, if count > 0
  std::size_t last_offset = 0;         ///< where `last` starts in `ids`
};

/// Throws on a count the payload cannot hold, a truncated or over-long
/// varint, or an id beyond 32 bits.
[[nodiscard]] RouteFrame decode_route(std::span<const std::uint8_t> in);

}  // namespace nf::net
