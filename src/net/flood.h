// Bounded flooding over the overlay.
//
// The hierarchy-free protocols (gossip-based netFilter) need a way to put
// one payload on every peer without a tree: classic P2P flooding. The
// originator sends to all neighbors; every peer forwards the first copy it
// sees to all neighbors except the one it came from, up to a TTL.
// Duplicate suppression is by a per-peer seen flag, so each peer processes
// the payload exactly once while each overlay edge carries it at most
// twice (once per direction, worst case). Every copy is charged the same
// modelled `wire_bytes`, whatever the encoded length.
//
// FlatFloodPhase is a session-runtime component (net/session.h): the flood
// can ride one phase of a multiplexed session while other sessions run
// concurrently, or run on its own through run_phase (receipt opens the
// phase: the default open_on_message), after which num_reached(),
// num_copies() and reached() report the coverage.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/capability.h"
#include "common/error.h"
#include "common/ids.h"
#include "net/codec.h"
#include "net/session.h"

namespace nf::net {

/// Flat slab-backed flood: the wire format is varint(remaining ttl)
/// followed by the opaque payload bytes (net::decode_flood_frame, which
/// rejects a ttl no genuine copy carries). The originator installs the
/// encoded payload once; every forward is a varint prepend plus a span copy
/// into the shard slab — no payload object is ever reconstructed in flight.
/// Shard-safe: the seen flags are a byte arena written only by the owning
/// peer's callbacks; the reach/copy tallies are commutative atomics.
class FlatFloodPhase final : public Phase {
 public:
  /// Receives the payload body (ttl stripped); valid for the callback only.
  using ReceiveFn =
      std::function<void(PhaseContext&, std::span<const std::uint8_t>)>;

  /// `ttl` bounds propagation depth (hops from the originator); use a value
  /// at least the overlay diameter for full coverage.
  FlatFloodPhase(PeerId originator, Bytes payload, std::uint64_t wire_bytes,
                 TrafficCategory category, std::uint32_t ttl,
                 ReceiveFn on_receive)
      : originator_(originator),
        payload_(std::move(payload)),
        wire_bytes_(wire_bytes),
        category_(category),
        ttl_(ttl),
        on_receive_(std::move(on_receive)) {
    require(ttl >= 1, "flood needs ttl >= 1");
  }

  void on_run_start(const Overlay& overlay) override {
    seen_.assign(overlay.num_peers(), false);
    num_reached_.store(0, std::memory_order_relaxed);
    num_copies_.store(0, std::memory_order_relaxed);
  }

  void on_start(PhaseContext& ctx) override {
    const PeerId self = ctx.self();
    if (self != originator_ || seen_[self.value()] != 0) return;
    seen_[self.value()] = true;
    num_reached_.fetch_add(1, std::memory_order_relaxed);
    on_receive_(ctx, payload_);
    forward(ctx, ttl_, payload_, self);
  }

  [[nodiscard]] bool done() const override {
    // Flood has no natural completion signal a peer could observe; once the
    // originator has fired, the engine drains in-flight copies and stops.
    return num_reached() > 0;
  }

  /// Peers that have processed the payload.
  [[nodiscard]] std::uint32_t num_reached() const {
    return num_reached_.load(std::memory_order_relaxed);
  }
  /// Total copies received, including suppressed duplicates.
  [[nodiscard]] std::uint64_t num_copies() const {
    return num_copies_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool reached(PeerId p) const {
    return p.value() < seen_.size() && seen_[p.value()] != 0;
  }

 protected:
  NF_SHARD_CONTEXT NF_STEADY_NOALLOC void on_flat(
      PhaseContext& ctx, std::span<const std::uint8_t> bytes,
      PeerId from) override {
    const PeerId self = ctx.self();
    num_copies_.fetch_add(1, std::memory_order_relaxed);
    const FloodFrame frame = decode_flood_frame(bytes, ttl_);  // every copy
    if (seen_[self.value()] != 0) return;  // duplicate
    seen_[self.value()] = true;
    num_reached_.fetch_add(1, std::memory_order_relaxed);
    on_receive_(ctx, frame.body);
    if (frame.ttl > 0) forward(ctx, frame.ttl, frame.body, from);
  }

 private:
  void forward(PhaseContext& ctx, std::uint32_t ttl,
               std::span<const std::uint8_t> body, PeerId except) {
    // One slab write serves every neighbor: the engine re-copies the span
    // per destination slot at the barrier.
    PayloadWriter w = ctx.flat_payload();
    w.put_varint(ttl - 1);
    w.put_bytes(body);
    const PayloadRef ref = w.finish();
    const obs::LineageId parent = ctx.cause();
    for (PeerId q : ctx.neighbors()) {
      if (q == except) continue;
      ctx.send_flat(q, category_, wire_bytes_, ref,
                    std::span<const obs::LineageId>(&parent, 1));
    }
  }

  PeerId originator_;
  Bytes payload_;
  std::uint64_t wire_bytes_;
  TrafficCategory category_;
  std::uint32_t ttl_;
  ReceiveFn on_receive_;
  PeerArena<bool> seen_;
  std::atomic<std::uint32_t> num_reached_{0};
  std::atomic<std::uint64_t> num_copies_{0};
};

}  // namespace nf::net
