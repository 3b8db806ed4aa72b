#include "core/gossip_netfilter.h"

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "agg/gossip.h"
#include "common/arena.h"
#include "common/capability.h"
#include "common/error.h"
#include "core/netfilter.h"
#include "net/codec.h"
#include "net/flood.h"
#include "net/session.h"
#include "obs/context.h"

namespace nf::core {

namespace {

/// Push-sum over sparse <item, mass> maps. Push-sum only needs a vector
/// space — halving and adding — which ValueMap<ItemId, double> provides;
/// the support union emerges as shares mix. The count coordinate starts at
/// the initiator. A share is net::encode_map_share_to.
class MapPushSum final : public agg::PushSumPhase {
 public:
  using Map = ValueMap<ItemId, double>;

  MapPushSum(std::vector<Map> initial, PeerId initiator,
             const WireSizes& wire, std::uint32_t rounds, std::uint64_t seed,
             obs::Context* obs = nullptr)
      : PushSumPhase(static_cast<std::uint32_t>(initial.size()), initiator,
                     rounds, seed, obs),
        x_(std::move(initial)),
        wire_(wire) {}

  /// Estimated global <id, value> sums at `p`.
  [[nodiscard]] ValueMap<ItemId, double> estimates(PeerId p) const {
    ValueMap<ItemId, double> out;
    const double cnt = count_[p.value()];
    if (cnt <= 0.0) return out;
    for (const auto& [id, v] : x_[p.value()]) {
      out.add(id, v / cnt);
    }
    return out;
  }

 protected:
  NF_SHARD_CONTEXT std::uint64_t halve_and_encode(
      PeerId p, net::PayloadWriter& w) override {
    Map& x = x_[p.value()];
    x.scale(0.5);
    net::encode_map_share_to(w, x, count_[p.value()], w_[p.value()]);
    return x.size() * wire_.item_value_pair() + 2 * wire_.aggregate_bytes;
  }

  // The merge grows the map as supports union (reserved in merge_add_run):
  // sparse push-sum is outside the zero-alloc guarantee.
  NF_SHARD_CONTEXT NF_STEADY_NOALLOC void merge(
      PeerId p, std::span<const std::uint8_t> share) override {
    net::merge_map_share_from(share, x_[p.value()], count_[p.value()],
                              w_[p.value()]);
  }

 private:
  PeerArena<Map> x_;
  WireSizes wire_;
};

}  // namespace

GossipNetFilter::GossipNetFilter(GossipNetFilterConfig config)
    : config_(config),
      bank_(config.filter_seed, config.num_filters, config.num_groups) {
  config_.validate();
}

GossipNetFilterResult GossipNetFilter::run(
    const ItemSource& items, net::Overlay& overlay, PeerId initiator,
    net::TrafficMeter& meter, Value threshold,
    const ValueMap<ItemId, Value>* oracle) const {
  require(threshold >= 1, "threshold must be >= 1");
  require(overlay.is_alive(initiator), "initiator must be alive");
  const std::uint32_t g = config_.num_groups;
  const std::uint32_t f = config_.num_filters;
  const auto num_peers = overlay.num_peers();
  GossipNetFilterResult result;
  result.stats.threshold = threshold;

  const double prune_bar =
      static_cast<double>(threshold) * (1.0 - config_.slack);

  // ---- Phase 1: push-sum over the f×g group aggregates. ----
  std::vector<std::vector<double>> initial;
  initial.reserve(num_peers);
  for (std::uint32_t p = 0; p < num_peers; ++p) {
    std::vector<double> x(static_cast<std::size_t>(f) * g, 0.0);
    if (overlay.is_alive(PeerId(p))) {
      for (const auto& [id, value] : items.local_items(PeerId(p))) {
        for (std::uint32_t i = 0; i < f; ++i) {
          x[static_cast<std::size_t>(i) * g +
            bank_.filter(i).group_of(id).value()] +=
              static_cast<double>(value);
        }
      }
    }
    initial.push_back(std::move(x));
  }
  const std::uint64_t gossip_before =
      meter.total(net::TrafficCategory::kGossip);
  agg::PushSumGossip::Config p1;
  p1.rounds = config_.phase1_rounds;
  p1.seed = config_.seed;
  p1.bytes_per_coordinate = config_.wire.aggregate_bytes;
  p1.weight_bytes = config_.wire.aggregate_bytes;
  p1.obs = config_.obs;
  agg::PushSumGossip phase1(std::move(initial), p1);
  {
    // Each stage gets its own engine: leftover in-flight shares (or, under
    // the fault model, pending retransmissions) must never be delivered
    // into the next stage's protocol.
    obs::ScopedPhase span(config_.obs, "gossip.phase1");
    net::Engine engine(overlay, meter);
    engine.set_threads(config_.threads);
    engine.set_fault_model(config_.fault);
    engine.set_obs(config_.obs);
    result.stats.rounds += net::run_phase(
        engine, phase1, std::uint64_t{p1.rounds} * 4 + 10, nullptr);
  }
  result.stats.phase1_cost =
      static_cast<double>(meter.total(net::TrafficCategory::kGossip) -
                          gossip_before) /
      num_peers;

  // The initiator prunes with slack against its own estimates.
  HeavyGroupSet heavy;
  heavy.heavy.assign(f, std::vector<bool>(g, false));
  for (std::uint32_t i = 0; i < f; ++i) {
    for (std::uint32_t j = 0; j < g; ++j) {
      const double est = phase1.estimate_sum(
          initiator, static_cast<std::size_t>(i) * g + j);
      heavy.heavy[i][j] = est >= prune_bar;
    }
  }
  const std::uint64_t heavy_total = heavy.total();
  result.stats.heavy_groups_total = heavy_total;

  // ---- Dissemination: flood the heavy bitmap. ----
  // The flood ships the delta-coded heavy ids (encode_heavy_groups); every
  // receiver decodes them. The charge stays the flat sg bytes per heavy id.
  const std::uint64_t flood_before =
      meter.total(net::TrafficCategory::kDissemination);
  std::vector<ValueMap<ItemId, double>> partial(num_peers);
  net::FlatFloodPhase flood(
      initiator, encode_heavy_groups(heavy),
      heavy_total * config_.wire.group_id_bytes,
      net::TrafficCategory::kDissemination, config_.flood_ttl,
      [&](net::PhaseContext& ctx, std::span<const std::uint8_t> bytes) {
        const PeerId p = ctx.self();
        if (!overlay.is_alive(p)) return;
        const HeavyGroupSet received = decode_heavy_groups(bytes, f, g);
        for (const auto& [id, value] : items.local_items(p)) {
          if (received.passes(id, bank_)) {
            partial[p.value()].add(id, static_cast<double>(value));
          }
        }
      });
  {
    obs::ScopedPhase span(config_.obs, "gossip.flood");
    net::Engine engine(overlay, meter);
    engine.set_threads(config_.threads);
    engine.set_fault_model(config_.fault);
    engine.set_obs(config_.obs);
    result.stats.rounds += net::run_phase(
        engine, flood, std::uint64_t{config_.flood_ttl} * 4 + 10, nullptr);
  }
  result.stats.flood_cost =
      static_cast<double>(meter.total(net::TrafficCategory::kDissemination) -
                          flood_before) /
      num_peers;

  // ---- Phase 2: push-sum over the sparse candidate maps. ----
  const std::uint64_t phase2_before =
      meter.total(net::TrafficCategory::kGossip);
  MapPushSum phase2(std::move(partial), initiator, config_.wire,
                    config_.phase2_rounds, config_.seed ^ 0xABCDEFull,
                    config_.obs);
  {
    obs::ScopedPhase span(config_.obs, "gossip.phase2");
    net::Engine engine(overlay, meter);
    engine.set_threads(config_.threads);
    engine.set_fault_model(config_.fault);
    engine.set_obs(config_.obs);
    result.stats.rounds += net::run_phase(
        engine, phase2, std::uint64_t{config_.phase2_rounds} * 4 + 10,
        nullptr);
  }
  result.stats.phase2_cost =
      static_cast<double>(meter.total(net::TrafficCategory::kGossip) -
                          phase2_before) /
      num_peers;

  const auto estimates = phase2.estimates(initiator);
  result.stats.num_candidates = estimates.size();
  for (const auto& [id, est] : estimates) {
    if (est >= prune_bar) {
      result.reported.add(
          id, static_cast<Value>(std::llround(std::max(est, 0.0))));
    }
  }
  result.stats.num_reported = result.reported.size();

  if (oracle != nullptr) {
    for (const auto& [id, v] : result.reported) {
      if (!oracle->contains(id)) {
        ++result.stats.false_positives;
      } else {
        const auto truth = static_cast<double>(oracle->value_of(id));
        result.stats.max_value_rel_error =
            std::max(result.stats.max_value_rel_error,
                     std::abs(static_cast<double>(v) - truth) / truth);
      }
    }
    for (const auto& [id, v] : *oracle) {
      if (!result.reported.contains(id)) ++result.stats.false_negatives;
    }
  }
  return result;
}

}  // namespace nf::core
