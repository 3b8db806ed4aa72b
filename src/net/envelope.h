// Message envelope carried by the round engine.
//
// A payload travels as a flat `PayloadRef` (net/payload.h): a non-owning
// (slab, offset, length) view into the sender's slab arena, which the
// engine copies as a span across slab lifetimes; the session runtime
// resolves it to bytes for Phase::on_flat. An envelope owns nothing — it is
// trivially copyable, asserted below, so no per-message object can ride it.
// The typed convergecast (agg/convergecast.h) ships an empty ref and hands
// its aggregate off through phase state. `bytes` is the *modelled* wire size
// of the payload under the configured WireSizes — the simulator charges
// exactly what the protocol specification says the message costs,
// independent of the in-memory representation.
//
// Session tags: all protocol traffic is produced through the session
// runtime (net/session.h) and carries the (session, phase) pair that routes
// it to the right Phase component inside a SessionMux. Only the engine's
// own ACKs travel untagged, with `session == kNoSession`. The tags ride the
// envelope itself (not a nested payload wrapper) so the reliability layer
// retransmits them untouched and send probes can attribute every
// transmission to its session.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/ids.h"
#include "net/metrics.h"
#include "net/payload.h"
#include "obs/lineage.h"

namespace nf::net {

/// Identifies one protocol session multiplexed over an engine run.
using SessionId = std::uint32_t;
/// Index of a phase within its session's phase list.
using PhaseId = std::uint32_t;

/// Envelope tag for traffic outside any session (engine ACKs).
inline constexpr SessionId kNoSession = 0xFFFFFFFFu;

struct Envelope {
  PeerId from;
  PeerId to;
  TrafficCategory category{TrafficCategory::kControl};
  std::uint64_t bytes{0};
  /// Flat slab-backed payload (kNoSlab when the message has none). The
  /// engine rewrites this ref at the merge barrier when it copies the span
  /// into the destination transit-ring slot's slab.
  PayloadRef flat{};
  SessionId session{kNoSession};
  PhaseId phase{0};
  /// Happened-before node id, stamped by the engine at admission in
  /// canonical merge order (obs/lineage.h). Protocol code reads it via
  /// Context::cause() / PhaseContext::cause(); only the engine writes it.
  /// Stays kNoLineage for ACKs and runs without an obs context.
  obs::LineageId lineage{obs::kNoLineage};
};

static_assert(std::is_trivially_copyable_v<Envelope>,
              "envelopes carry flat payload refs, never owning objects");

}  // namespace nf::net
