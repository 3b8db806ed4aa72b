// Hierarchy maintenance: heartbeats with DEPTH, and repair on churn
// (paper §III-A.3).
//
// Deployed P2P systems already exchange periodic heartbeats; netFilter
// piggybacks a DEPTH counter on them. Repair follows the paper:
//
//  * A peer that misses its upstream neighbor's heartbeats for
//    `timeout_rounds` declares it gone, sets its own depth to infinity and
//    recursively informs its downstream neighbors to do the same (ORPHAN).
//  * A peer at infinite depth that hears a heartbeat from a neighbor at
//    finite depth d re-enters the hierarchy at depth d+1 with that neighbor
//    as its upstream (ATTACH notifies the new parent; DETACH releases a
//    previous parent that is still alive).
//  * A newly joined peer starts at infinite depth and attaches the same way.
//
// The paper's protocol as literally stated is vulnerable to
// count-to-infinity: two orphaned peers can adopt each other's stale finite
// depths and ratchet upward forever (the same pathology as distance-vector
// routing). We harden it the way DSDV/AODV do: the root stamps every
// heartbeat with a monotonically increasing SEQUENCE number, a peer only
// refreshes or adopts depth information carrying a *newer* sequence than it
// already holds, and a peer whose sequence stops advancing for
// `stale_rounds` concludes it is cut off and goes to infinite depth. A
// cycle cannot mint new sequence numbers — only the root can — so stale
// information dies out and repair always converges while the alive overlay
// remains connected.
//
// The protocol is fully decentralized: each peer only touches its own
// state and what heartbeats tell it about neighbors. It runs as one flat
// phase (net::run_phase, or a session of a SessionMux), is never done, and
// so runs for exactly the rounds its driver gives it. Messages are the
// tagged encodings of net/codec.h (MaintenanceMsg). `snapshot()` exports
// the stabilized tree for the aggregation protocols and `stabilized()`
// checks the structural invariants from the outside (test oracle only —
// peers never read each other's state).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "agg/hierarchy.h"
#include "common/arena.h"
#include "common/capability.h"
#include "common/ids.h"
#include "net/codec.h"
#include "net/session.h"

namespace nf::agg {

class HierarchyMaintenance final : public net::Phase {
 public:
  struct Config {
    /// Modelled size of one heartbeat: sender id + DEPTH + SEQ.
    std::uint32_t heartbeat_bytes = 12;
    /// Modelled size of an ORPHAN/ATTACH/DETACH control message.
    std::uint32_t control_bytes = 4;
    /// Rounds without an upstream heartbeat before declaring it gone.
    std::uint32_t timeout_rounds = 3;
    /// Rounds without a sequence advance before concluding we are cut off
    /// (count-to-infinity breaker). Must exceed timeout_rounds.
    std::uint32_t stale_rounds = 6;
  };

  HierarchyMaintenance(const Hierarchy& initial, Config config);

  void on_round(net::PhaseContext& ctx) override;

  /// Maintenance never completes on its own; the driver decides how many
  /// rounds to run it for.
  [[nodiscard]] bool done() const override { return false; }

  /// Exports the current tree. Peers whose parent chain does not reach the
  /// root (mid-repair) are exported as non-members hosted by their nearest
  /// member.
  [[nodiscard]] Hierarchy snapshot(const net::Overlay& overlay) const;

  /// True iff every alive peer is in the tree with a consistent depth and
  /// an alive upstream whose chain reaches the root.
  [[nodiscard]] bool stabilized(const net::Overlay& overlay) const;

  [[nodiscard]] PeerId root() const { return root_; }

  /// Peer's current DEPTH counter (kInfiniteDepth while orphaned).
  [[nodiscard]] std::uint32_t depth(PeerId p) const {
    return state_[p.value()].depth;
  }

 protected:
  NF_SHARD_CONTEXT NF_STEADY_NOALLOC void on_flat(
      net::PhaseContext& ctx, std::span<const std::uint8_t> bytes,
      PeerId from) override;

 private:

  struct PeerState {
    std::uint32_t depth = kInfiniteDepth;
    std::optional<PeerId> upstream;
    std::vector<PeerId> downstream;
    std::uint64_t seq = 0;
    std::int64_t seq_advanced_at = 0;
    // last round a heartbeat arrived from each overlay neighbor; indexed in
    // parallel with Overlay::neighbors(p). -1 means never.
    std::vector<std::int64_t> last_heard;
    bool ever_ticked = false;
  };

  void become_orphan(net::PhaseContext& ctx, PeerState& st);
  void adopt(net::PhaseContext& ctx, PeerState& st, PeerId parent,
             const net::MaintenanceMsg& hb);
  void send_control(net::PhaseContext& ctx, PeerId to,
                    net::MaintenanceTag tag);
  static void remove_downstream(PeerState& st, PeerId child);

  PeerId root_;
  Config config_;
  // Shard-safe by message-passing discipline: a peer's callbacks write only
  // its own slot; cross-peer effects (ATTACH/DETACH) travel as messages.
  PeerArena<PeerState> state_;
};

}  // namespace nf::agg
