#include "agg/gossip.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/error.h"
#include "net/codec.h"

namespace nf::agg {

std::optional<PeerId> random_alive_neighbor(const net::Overlay& overlay,
                                            PeerId self, Rng& rng) {
  const auto& neighbors = overlay.neighbors(self);
  std::size_t alive = 0;
  for (const PeerId q : neighbors) alive += overlay.is_alive(q) ? 1u : 0u;
  if (alive == 0) return std::nullopt;
  std::size_t k = rng.below(alive);
  for (const PeerId q : neighbors) {
    if (overlay.is_alive(q) && k-- == 0) return q;
  }
  return std::nullopt;  // unreachable: k < alive
}

PushSumPhase::PushSumPhase(std::uint32_t num_peers, PeerId origin,
                           std::uint32_t rounds, std::uint64_t seed,
                           obs::Context* obs)
    : num_peers_(num_peers),
      count_(num_peers, 0.0),
      w_(num_peers, 1.0),
      rounds_(rounds),
      rng_(fork_streams(seed, num_peers)),
      pending_parents_(num_peers),
      obs_(obs) {
  count_[origin.value()] = 1.0;
  if (obs != nullptr) {
    obs_shares_ = &obs->registry.counter("gossip/shares");
    obs_share_bytes_ = &obs->registry.histogram("gossip/share_bytes");
  }
}

void PushSumPhase::on_run_start(const net::Overlay& overlay) {
  // With one-round links a peer merges at most one share per neighbor
  // between two of its own sends; reserving that up front keeps the
  // causal-parent lists from growing inside the round loop.
  for (std::uint32_t p = 0; p < num_peers_; ++p) {
    pending_parents_[p].reserve(overlay.neighbors(PeerId(p)).size());
  }
}

void PushSumPhase::on_round_begin(std::uint64_t /*round*/) {
  ++rounds_done_;
  if (obs_ != nullptr) {
    obs_->tracer.record(obs::EventKind::kGossipRound, "gossip.round",
                        obs::kNoPeer, rounds_done_);
  }
}

void PushSumPhase::on_round(net::PhaseContext& ctx) {
  const PeerId self = ctx.self();
  if (rounds_done_ > rounds_) return;
  const std::optional<PeerId> to =
      random_alive_neighbor(ctx.overlay(), self, rng_[self.value()]);
  if (!to) return;

  count_[self.value()] *= 0.5;
  w_[self.value()] *= 0.5;
  net::PayloadWriter w = ctx.flat_payload();
  const std::uint64_t bytes = halve_and_encode(self, w);
  if (obs_shares_ != nullptr) {
    obs_shares_->add(1);
    obs_share_bytes_->observe(bytes);
  }
  // The outgoing share carries half of everything merged so far; every
  // share received since the last send is a causal parent.
  std::vector<obs::LineageId>& parents = pending_parents_[self.value()];
  ctx.send_flat(*to, net::TrafficCategory::kGossip, bytes, w.finish(),
                std::span<const obs::LineageId>(parents));
  parents.clear();
}

void PushSumPhase::on_flat(net::PhaseContext& ctx,
                           std::span<const std::uint8_t> bytes,
                           PeerId /*from*/) {
  merge(ctx.self(), bytes);
  // Reserved to the peer's degree in on_run_start.
  // nf-lint: nf-cap-noalloc-ok
  pending_parents_[ctx.self().value()].push_back(ctx.cause());
}

std::uint32_t PushSumGossip::checked_peers(
    const std::vector<std::vector<double>>& initial) {
  require(!initial.empty(), "push-sum needs at least one peer");
  for (const auto& v : initial) {
    require(v.size() == initial[0].size(),
            "all initial vectors must share one size");
  }
  return static_cast<std::uint32_t>(initial.size());
}

PushSumGossip::PushSumGossip(std::vector<std::vector<double>> initial,
                             Config config)
    : PushSumPhase(checked_peers(initial), PeerId(0), config.rounds,
                   config.seed, config.obs),
      config_(config),
      dimension_(initial[0].size()),
      x_(std::move(initial)) {}

std::uint64_t PushSumGossip::halve_and_encode(PeerId p,
                                              net::PayloadWriter& w) {
  std::vector<double>& x = x_[p.value()];
  for (double& v : x) v *= 0.5;
  net::encode_share_to(w, x, count_[p.value()], w_[p.value()]);
  return static_cast<std::uint64_t>(dimension_ + 1) *
             config_.bytes_per_coordinate +
         config_.weight_bytes;
}

void PushSumGossip::merge(PeerId p, std::span<const std::uint8_t> share) {
  net::add_share_from(share, x_[p.value()], count_[p.value()],
                      w_[p.value()]);
}

double PushSumGossip::estimate_sum(PeerId p, std::size_t i) const {
  require(i < dimension_, "coordinate out of range");
  const double cnt = count_[p.value()];
  // x/w is the average estimate; count/w estimates 1/N; their ratio is the
  // sum. Peers that have not yet mixed with peer 0 have count == 0.
  if (cnt <= 0.0) return 0.0;
  return x_[p.value()][i] / cnt;
}

double PushSumGossip::total_mass(std::size_t i) const {
  require(i < dimension_, "coordinate out of range");
  double sum = 0.0;
  for (std::uint32_t p = 0; p < num_peers_; ++p) sum += x_[p][i];
  return sum;
}

double PushSumGossip::relative_spread(std::size_t i) const {
  require(i < dimension_, "coordinate out of range");
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (std::uint32_t p = 0; p < num_peers_; ++p) {
    const double e = estimate_sum(PeerId(p), i);
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  if (hi == 0.0 && lo == 0.0) return 0.0;
  const double mid = 0.5 * (hi + lo);
  return mid != 0.0 ? (hi - lo) / std::abs(mid)
                    : std::numeric_limits<double>::infinity();
}

}  // namespace nf::agg
