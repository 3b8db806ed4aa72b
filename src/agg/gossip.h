// Push-sum gossip aggregation (Kempe, Dobra & Gehring style).
//
// The paper (§III-A) contrasts hierarchical aggregation with gossip
// aggregation: gossip needs O(log N) rounds to (almost) converge and yields
// approximate aggregates, but has no tree to repair. The paper picks the
// hierarchy and leaves "a well-designed gossip aggregation" as future work;
// we implement push-sum so the trade-off can actually be measured
// (bench/ablation_gossip) and so the gossip-based netFilter extension has a
// substrate.
//
// Each peer holds a value vector x_p and a weight w_p (initially 1 at every
// peer). Every round it splits (x, w) in half, keeps one half and sends the
// other to a uniformly random alive neighbor. x_p / w_p converges to the
// network-wide average of the initial vectors; multiplying by the peer
// count (aggregated the same way via an extra "count" coordinate seeded 1
// at the root) estimates the global sum.
//
// Both push-sums — this dense one and the gossip netFilter's sparse one —
// are flat phases built on PushSumPhase; run one with net::run_phase.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/capability.h"
#include "common/ids.h"
#include "common/rng.h"
#include "net/session.h"
#include "obs/context.h"

namespace nf::agg {

/// Draws a uniformly random alive overlay neighbor of `self` from `rng`
/// without building the neighbor list (one draw, as over
/// Overlay::alive_neighbors); nullopt, drawing nothing, when none is alive.
NF_REENTRANT [[nodiscard]] std::optional<PeerId> random_alive_neighbor(
    const net::Overlay& overlay, PeerId self, Rng& rng);

/// The push-sum round both gossip aggregations share: each peer holds a
/// count coordinate (1 at `origin`, 0 elsewhere), a weight (1), a private
/// RNG stream and the causal parents of the shares merged since its last
/// send. Every round, while its rounds last, a peer halves its state in
/// place and ships the kept half — after halving, the kept state IS the
/// share — to a random alive neighbor. Subclasses own the value state and
/// its encoding. Done once the last round has begun; the tick still sends
/// in that round, so a run of R rounds stops in round R+1.
///
/// Shard-safe: per-peer state lives in dense arenas touched only by that
/// peer's callbacks; the round counter advances in on_round_begin on the
/// engine thread.
class PushSumPhase : public net::Phase {
 public:
  void on_run_start(const net::Overlay& overlay) override;
  void on_round_begin(std::uint64_t round) override;
  void on_round(net::PhaseContext& ctx) override;
  [[nodiscard]] bool done() const override { return rounds_done_ >= rounds_; }

  [[nodiscard]] std::uint32_t rounds_done() const { return rounds_done_; }

 protected:
  PushSumPhase(std::uint32_t num_peers, PeerId origin, std::uint32_t rounds,
               std::uint64_t seed, obs::Context* obs);

  /// Halves peer p's values in place, encodes them with the (already
  /// halved) count_[p] and w_[p] into `w`, and returns the modelled bytes.
  NF_SHARD_CONTEXT virtual std::uint64_t halve_and_encode(
      PeerId p, net::PayloadWriter& w) = 0;

  /// Adds a received share into peer p's values, count_[p] and w_[p].
  NF_SHARD_CONTEXT NF_STEADY_NOALLOC virtual void merge(
      PeerId p, std::span<const std::uint8_t> share) = 0;

  NF_SHARD_CONTEXT NF_STEADY_NOALLOC void on_flat(
      net::PhaseContext& ctx, std::span<const std::uint8_t> bytes,
      PeerId from) final;

  std::uint32_t num_peers_;
  PeerArena<double> count_;  // per-peer "1 at the origin" coordinate
  PeerArena<double> w_;      // per-peer weight

 private:
  std::uint32_t rounds_;
  std::uint32_t rounds_done_ = 0;
  PeerArena<Rng> rng_;  // per-peer independent randomness
  // Lineage ids of shares merged since this peer's last send; attached as
  // causal parents of the next outgoing share.
  PeerArena<std::vector<obs::LineageId>> pending_parents_;
  obs::Context* obs_;
  obs::Counter* obs_shares_ = nullptr;
  obs::Histogram* obs_share_bytes_ = nullptr;
};

/// Push-sum over dense value vectors; a share is net::encode_share_to.
class PushSumGossip final : public PushSumPhase {
 public:
  struct Config {
    /// Bytes per transmitted vector coordinate (the paper's sa).
    std::uint32_t bytes_per_coordinate = 4;
    /// Extra bytes for the transmitted weight.
    std::uint32_t weight_bytes = 4;
    /// Stop after this many rounds.
    std::uint32_t rounds = 50;
    std::uint64_t seed = 1;
    /// Optional observability sink (not owned; may be null).
    obs::Context* obs = nullptr;
  };

  /// `initial[p]` is peer p's local vector. All vectors must have the same
  /// dimension. The hidden extra coordinate (1 at peer 0, 0 elsewhere)
  /// estimates 1/N so `estimate_sum` needs no out-of-band peer count.
  PushSumGossip(std::vector<std::vector<double>> initial, Config config);

  /// Peer p's current estimate of the network-wide SUM of coordinate `i`.
  [[nodiscard]] double estimate_sum(PeerId p, std::size_t i) const;

  /// Max over peers of the relative disagreement of coordinate i estimates
  /// (convergence diagnostic).
  [[nodiscard]] double relative_spread(std::size_t i) const;

  /// Sum of coordinate i over all peers' resident state. Once no shares are
  /// in flight this equals the initial global sum exactly (mass
  /// conservation — the invariant push-sum correctness rests on).
  [[nodiscard]] double total_mass(std::size_t i) const;

  [[nodiscard]] std::size_t dimension() const { return dimension_; }

 protected:
  NF_SHARD_CONTEXT std::uint64_t halve_and_encode(
      PeerId p, net::PayloadWriter& w) override;
  NF_SHARD_CONTEXT NF_STEADY_NOALLOC void merge(
      PeerId p, std::span<const std::uint8_t> share) override;

 private:
  /// Checks `initial` and returns its peer count, before any arena sizing.
  static std::uint32_t checked_peers(
      const std::vector<std::vector<double>>& initial);

  Config config_;
  std::size_t dimension_;
  PeerArena<std::vector<double>> x_;  // per-peer value vector
};

}  // namespace nf::agg
