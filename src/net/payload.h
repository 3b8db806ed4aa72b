// Flat slab-backed message payloads.
//
// The hot path never ships owning objects: a payload is encoded once into a
// byte slab and referenced by a PayloadRef — (slab id, offset, length). Slabs
// are append-only arenas with high-water-mark reset: clearing keeps the
// capacity, so after a warm-up round the steady state performs no heap
// allocation (see DESIGN.md §6f for the lifetime rules).
//
// Slab id space (assigned by net::Engine):
//   [0, kRingSlabBase)   per-shard outbox slabs, written during the parallel
//                        phase of a round, valid until the next predispatch.
//   [kRingSlabBase, ...) transit-ring slot slabs, written at the merge
//                        barrier in canonical order, valid until the slot's
//                        delivery round completes.
//
// Refs are resolved through the engine's slab table at read time, so slab
// growth never invalidates a PayloadRef (offsets are stable; only the base
// pointer moves).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"

namespace nf::net {

/// First slab id reserved for transit-ring slot slabs.
inline constexpr std::uint32_t kRingSlabBase = 0x8000'0000u;

/// Sentinel slab id: the envelope carries no flat payload.
inline constexpr std::uint32_t kNoSlab = 0xFFFF'FFFFu;

/// A non-owning view into a slab arena. Trivially copyable; the engine
/// rewrites the ref when it copies the span across slab lifetimes (shard
/// outbox -> transit-ring slot, or retransmit buffer -> transit-ring slot).
struct PayloadRef {
  std::uint32_t slab = kNoSlab;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;

  [[nodiscard]] bool valid() const { return slab != kNoSlab; }
};

/// Byte size of the LEB128 encoding of `value`, branch-free: the position
/// of the highest set bit scaled by 9/64 is ceil(bits / 7) for 1..64 bits.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t value) {
  return (static_cast<std::size_t>(std::bit_width(value | 1)) * 9 + 64) / 64;
}

/// Writes the LEB128 encoding of `value` at `out` (which must have
/// varint_size(value) bytes of room) and returns the byte past it.
inline std::uint8_t* write_varint(std::uint8_t* out, std::uint64_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<std::uint8_t>(value) | 0x80;
    value >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(value);
  return out;
}

/// Append-only byte arena with high-water-mark reset: reset() drops the size
/// but keeps the capacity, so a warmed slab serves subsequent rounds without
/// reallocating.
class SlabArena {
 public:
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] std::size_t capacity() const { return bytes_.capacity(); }

  void reset() { bytes_.clear(); }

  void reserve(std::size_t n) { bytes_.reserve(n); }

  /// Grows the arena by `n` bytes and returns a pointer to them, for
  /// encoders that size their output up front and write it through a plain
  /// pointer. The pointer is valid until the next append.
  [[nodiscard]] std::uint8_t* append_raw(std::size_t n) {
    const std::size_t old = bytes_.size();
    bytes_.resize(old + n);
    return bytes_.data() + old;
  }

  void append(std::span<const std::uint8_t> span) {
    bytes_.insert(bytes_.end(), span.begin(), span.end());
  }

  [[nodiscard]] std::span<const std::uint8_t> view(std::uint32_t offset,
                                                   std::uint32_t length) const {
    ensure(std::size_t{offset} + length <= bytes_.size(),
           "payload ref outside slab");
    return {bytes_.data() + offset, length};
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Encodes one payload at the tail of a slab. Obtain via
/// Context::flat_payload() (binds to the executing shard's outbox slab),
/// append varints/spans, then finish() to get the PayloadRef to send.
class PayloadWriter {
 public:
  PayloadWriter(SlabArena& slab, std::uint32_t slab_id)
      : slab_(&slab),
        slab_id_(slab_id),
        start_(static_cast<std::uint32_t>(slab.size())) {}

  void put_varint(std::uint64_t value) {
    write_varint(append_raw(varint_size(value)), value);
  }

  /// Reserves the next `n` payload bytes for the caller to fill (see
  /// SlabArena::append_raw); net/codec.h's encoders size a whole message
  /// with varint_size() first, then fill exactly that many bytes.
  [[nodiscard]] std::uint8_t* append_raw(std::size_t n) {
    return slab_->append_raw(n);
  }

  void put_bytes(std::span<const std::uint8_t> bytes) { slab_->append(bytes); }

  /// Bytes written so far by this writer.
  [[nodiscard]] std::uint32_t written() const {
    return static_cast<std::uint32_t>(slab_->size()) - start_;
  }

  [[nodiscard]] PayloadRef finish() const {
    return PayloadRef{slab_id_, start_, written()};
  }

 private:
  SlabArena* slab_;
  std::uint32_t slab_id_;
  std::uint32_t start_;
};

/// Copies `bytes` to the tail of `slab`, returning a ref into it. Used by
/// the engine at the merge barrier and by the retransmit path.
inline PayloadRef copy_to_slab(SlabArena& slab, std::uint32_t slab_id,
                               std::span<const std::uint8_t> bytes) {
  const auto offset = static_cast<std::uint32_t>(slab.size());
  slab.append(bytes);
  return PayloadRef{slab_id, offset, static_cast<std::uint32_t>(bytes.size())};
}

}  // namespace nf::net
