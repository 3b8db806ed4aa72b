#include "core/partitioned.h"

#include <algorithm>
#include <span>
#include <vector>

#include "agg/convergecast.h"
#include "agg/flat_phases.h"
#include "common/arena.h"
#include "common/error.h"
#include "net/codec.h"
#include "net/session.h"

namespace nf::core {

PartitionedNetFilter::PartitionedNetFilter(NetFilterConfig config)
    : config_(config),
      bank_(config.filter_seed, config.num_filters, config.num_groups) {
  config_.validate();
}

PartitionedResult PartitionedNetFilter::run(
    const ItemSource& items, const agg::MultiHierarchy& hierarchies,
    net::Overlay& overlay, net::TrafficMeter& meter, Value threshold) const {
  require(threshold >= 1, "threshold must be >= 1");
  const auto k = static_cast<std::uint32_t>(hierarchies.size());
  require(k >= 1, "need at least one hierarchy");
  const std::uint32_t g = config_.num_groups;
  const std::uint32_t f = config_.num_filters;
  const double num_peers = overlay.num_peers();

  PartitionedResult result;
  result.stats.threshold = threshold;

  // Which filters each hierarchy slice owns: filter i -> slice (i mod k).
  std::vector<std::vector<std::uint32_t>> slice_filters(k);
  for (std::uint32_t i = 0; i < f; ++i) {
    slice_filters[i % k].push_back(i);
  }

  // ---- Phase 1: one convergecast per slice, over its own hierarchy. ----
  const std::uint64_t filtering_before =
      meter.total(net::TrafficCategory::kFiltering);
  std::vector<std::vector<bool>> heavy(f, std::vector<bool>(g, false));
  for (std::uint32_t s = 0; s < k; ++s) {
    const auto& filters = slice_filters[s];
    if (filters.empty()) continue;
    const std::uint64_t wire_bytes =
        std::uint64_t{config_.wire.aggregate_bytes} * filters.size() * g;
    agg::ConvergecastPhase<std::vector<Value>> cast(
        hierarchies.at(s), net::TrafficCategory::kFiltering,
        /*local=*/
        [&](PeerId p) {
          std::vector<Value> agg(filters.size() * g, 0);
          for (const auto& [id, value] : items.local_items(p)) {
            for (std::size_t fi = 0; fi < filters.size(); ++fi) {
              agg[fi * g +
                  bank_.filter(filters[fi]).group_of(id).value()] += value;
            }
          }
          return agg;
        },
        /*merge=*/
        [](std::vector<Value>& a, std::vector<Value>&& b) {
          add_columns(a.data(), b.data(), a.size());
        },
        /*wire_bytes=*/
        [wire_bytes](const std::vector<Value>&) { return wire_bytes; });
    net::Engine engine(overlay, meter);
    configure_engine(engine, config_);
    result.stats.rounds +=
        net::run_phase(engine, cast, config_.max_rounds_per_phase, nullptr,
                       {.open_on_message = false});
    ensure(cast.complete(), "partitioned filtering did not complete");
    const auto& sums = cast.result();
    for (std::size_t fi = 0; fi < filters.size(); ++fi) {
      for (std::uint32_t j = 0; j < g; ++j) {
        heavy[filters[fi]][j] = sums[fi * g + j] >= threshold;
      }
    }
  }
  result.stats.filtering_cost =
      static_cast<double>(meter.total(net::TrafficCategory::kFiltering) -
                          filtering_before) /
      num_peers;

  HeavyGroupSet heavy_set;
  heavy_set.heavy = heavy;
  result.stats.heavy_groups_total = heavy_set.total();

  // ---- Dissemination: each root multicasts its slice of the bitmap. ----
  const std::uint64_t dissemination_before =
      meter.total(net::TrafficCategory::kDissemination);
  // Peers reassemble the union; with deterministic slices the reassembled
  // bitmap equals `heavy` everywhere, so we model the traffic (per-slice
  // heavy ids over each hierarchy's edges) and hand peers the full bitmap.
  for (std::uint32_t s = 0; s < k; ++s) {
    std::uint64_t slice_heavy = 0;
    for (std::uint32_t fi : slice_filters[s]) {
      slice_heavy += static_cast<std::uint64_t>(std::count(
          heavy[fi].begin(), heavy[fi].end(), true));
    }
    agg::FlatMulticastPhase mc(
        hierarchies.at(s), net::TrafficCategory::kDissemination,
        [](net::PhaseContext&, std::span<const std::uint8_t>) {});
    net::Bytes slice;  // the slice index; peers need nothing more here
    net::put_varint(slice, s);
    mc.set_payload(slice, slice_heavy * config_.wire.group_id_bytes);
    net::Engine engine(overlay, meter);
    configure_engine(engine, config_);
    result.stats.rounds += net::run_phase(
        engine, mc, config_.max_rounds_per_phase, nullptr);
    ensure(mc.complete(), "slice dissemination did not complete");
  }
  result.stats.dissemination_cost =
      static_cast<double>(meter.total(net::TrafficCategory::kDissemination) -
                          dissemination_before) /
      num_peers;

  // ---- Phase 2: candidates partitioned by item hash across slices. ----
  const std::uint64_t aggregation_before =
      meter.total(net::TrafficCategory::kAggregation);
  for (std::uint32_t s = 0; s < k; ++s) {
    agg::ConvergecastPhase<LocalItems> cast(
        hierarchies.at(s), net::TrafficCategory::kAggregation,
        /*local=*/
        [&](PeerId p) {
          LocalItems out = items.local_items(p);
          out.retain([&](ItemId id, Value) {
            return hash64(id.value(), config_.filter_seed ^ 0x511CEull) %
                           k ==
                       s &&
                   heavy_set.passes(id, bank_);
          });
          return out;
        },
        /*merge=*/
        [](LocalItems& a, LocalItems&& b) { a.merge_add(b); },
        /*wire_bytes=*/
        [this](const LocalItems& m) {
          return m.size() * config_.wire.item_value_pair();
        });
    net::Engine engine(overlay, meter);
    configure_engine(engine, config_);
    result.stats.rounds +=
        net::run_phase(engine, cast, config_.max_rounds_per_phase, nullptr,
                       {.open_on_message = false});
    ensure(cast.complete(), "partitioned verification did not complete");
    result.stats.num_candidates += cast.result().size();
    for (const auto& [id, v] : cast.result()) {
      if (v >= threshold) result.frequent.add(id, v);
    }
  }
  result.stats.aggregation_cost =
      static_cast<double>(meter.total(net::TrafficCategory::kAggregation) -
                          aggregation_before) /
      num_peers;
  result.stats.num_frequent = result.frequent.size();
  return result;
}

}  // namespace nf::core
