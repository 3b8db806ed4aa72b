// netFilter — exact identification of frequent items in P2P systems
// (paper §III).
//
// Phase 1, candidate filtering: every peer folds its local item set into
// f×g item-group aggregates (one g-sized vector per hash filter) and the
// vectors are summed up the hierarchy. Item groups whose aggregate is below
// the threshold are light; an item survives as a candidate only if all f of
// its groups are heavy.
//
// Phase 2, candidate verification: the root multicasts the heavy group ids
// down the hierarchy; each peer materializes the candidates visible in its
// local set (Algorithm 2) and exact <id, value> pairs are merged bottom-up.
// Candidates whose exact global value clears the threshold are the answer —
// no false positives, no false negatives, exact values.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "agg/hierarchy.h"
#include "common/hashing.h"
#include "common/item_source.h"
#include "core/config.h"
#include "net/codec.h"
#include "net/engine.h"
#include "net/metrics.h"

namespace nf::core {

/// The heavy item groups that survive phase 1: one bitmap per filter.
struct HeavyGroupSet {
  std::vector<std::vector<bool>> heavy;  ///< [filter][group]

  /// Σ_f w_f — total heavy groups across filters (what Fig 5(a)/6(a) plot).
  [[nodiscard]] std::uint64_t total() const;

  /// True iff every one of the item's f groups is heavy.
  [[nodiscard]] bool passes(ItemId item, const FilterBank& bank) const;
};

struct NetFilterStats {
  std::uint64_t threshold = 0;             ///< t actually used
  std::uint64_t heavy_groups_total = 0;    ///< Σ_f w_f
  std::uint64_t num_candidates = 0;        ///< |candidate set| at the root
  std::uint64_t num_frequent = 0;          ///< true frequent items reported
  std::uint64_t num_false_positives = 0;   ///< candidates - frequent (fp)
  double candidates_per_peer = 0.0;        ///< avg <id,value> pairs sent/peer
  std::uint64_t rounds_filtering = 0;
  std::uint64_t rounds_verification = 0;
  /// Engine rounds for the whole query. NetFilter::run overlaps the
  /// phases in one session: rounds_filtering counts until the root
  /// completed filtering and rounds_verification is the remainder (phase 2
  /// already ran at the leaves during it). The phase API
  /// (filter_candidates, then verify_candidates) pays them back to back,
  /// so there rounds_total = rounds_filtering + rounds_verification, which
  /// is strictly more — the win the fig5 bench reports.
  std::uint64_t rounds_total = 0;

  // Per-peer average communication cost in bytes (the paper's metric),
  // split the way Figures 5(b)/6(b) plot it.
  double filtering_cost = 0.0;
  double dissemination_cost = 0.0;
  double aggregation_cost = 0.0;
  double host_report_cost = 0.0;

  /// The paper's "total cost": the lumped sum of the three phase costs.
  [[nodiscard]] double total_cost() const {
    return filtering_cost + dissemination_cost + aggregation_cost;
  }

  /// Adds the per-peer filtering, dissemination and aggregation costs and
  /// candidates_per_peer for `bytes`, the bytes charged per traffic
  /// category (indexed by net::TrafficCategory), over `num_peers` peers;
  /// `pair_bytes` is one <id, value> pair. Adding lets the phase API charge
  /// each phase as it ends.
  void add_phase_costs(const net::TrafficMeter::CategoryArray& bytes,
                       std::uint32_t num_peers, std::uint64_t pair_bytes);
};

struct NetFilterResult {
  /// IFI(A, t): exact item ids and exact global values.
  ValueMap<ItemId, Value> frequent;
  NetFilterStats stats;
};

class NetFilter {
 public:
  explicit NetFilter(NetFilterConfig config);

  /// Runs both phases over `hierarchy` and returns the exact frequent-item
  /// set. `items` must cover every peer of the overlay; traffic is charged
  /// to `meter`. `threshold` must be >= 1. Non-members' items first reach
  /// the hierarchy through the host report; the two phases then run as one
  /// session on one engine run, where a peer enters phase 2 the moment the
  /// heavy multicast reaches it (core/ifi_session.h).
  [[nodiscard]] NetFilterResult run(const ItemSource& items,
                                    const agg::Hierarchy& hierarchy,
                                    net::Overlay& overlay,
                                    net::TrafficMeter& meter,
                                    Value threshold) const;

  /// Phase 1 only: returns the heavy group bitmap and fills the filtering
  /// stats fields. Followed by verify_candidates it is the barriered
  /// schedule: the phases back to back, with a global barrier between
  /// them. Unlike run, it reads `items` as given (no host report).
  [[nodiscard]] HeavyGroupSet filter_candidates(const ItemSource& items,
                                                const agg::Hierarchy& hierarchy,
                                                net::Overlay& overlay,
                                                net::TrafficMeter& meter,
                                                Value threshold,
                                                NetFilterStats* stats) const;

  /// Phase 2 only: candidate materialization + verification given the
  /// heavy group bitmap. Completes `stats` (from filter_candidates),
  /// including rounds_total.
  [[nodiscard]] NetFilterResult verify_candidates(
      const ItemSource& items, const agg::Hierarchy& hierarchy,
      net::Overlay& overlay, net::TrafficMeter& meter, Value threshold,
      const HeavyGroupSet& heavy, NetFilterStats stats) const;

  /// The f×g group aggregates of one local item set — what each peer
  /// contributes in phase 1. Layout: filter-major, aggregates[i*g + group].
  [[nodiscard]] std::vector<Value> local_group_aggregates(
      const LocalItems& items) const;

  /// Zero-allocation variant: accumulates the aggregates into `out`
  /// (zero-filled first), which must have size f*g. This is what the flat
  /// filtering convergecast folds straight into its SoA row.
  void local_group_aggregates_into(const LocalItems& items,
                                   std::span<Value> out) const;

  /// The candidates visible in one local item set given the heavy bitmap —
  /// what each peer materializes in phase 2 (Algorithm 2, line 2). Built
  /// from the passing entries alone, in the source's sorted order, so its
  /// memory tracks the candidates, not the local item set.
  [[nodiscard]] LocalItems materialize_candidates(
      const LocalItems& items, const HeavyGroupSet& heavy) const;

  // The charging policy, shared by run and the phase API:
  // kFlatFields charges the paper's flat field sizes (§IV-A), kVarintDelta
  // the encoded wire length. Both ship the same encoded bytes.

  /// Modelled bytes of one filtering message: sa·f·g regardless of
  /// sparsity, or 0 (charge the encoded slab length) under kVarintDelta —
  /// the flat_bytes argument of the filtering convergecast.
  [[nodiscard]] std::uint64_t filtering_flat_bytes() const;

  /// Phase-1 thresholding of the global f×g sums (layout as
  /// local_group_aggregates): a group is heavy iff its sum is >= threshold.
  [[nodiscard]] HeavyGroupSet heavy_groups(std::span<const Value> global,
                                           Value threshold) const;

  /// Modelled bytes of one dissemination copy: sg per heavy group id, or
  /// the length of `encoded` (the wire form of `heavy`) under kVarintDelta.
  [[nodiscard]] std::uint64_t dissemination_wire_bytes(
      const HeavyGroupSet& heavy,
      std::span<const std::uint8_t> encoded) const;

  /// Modelled bytes of one aggregation message: one <id, value> pair per
  /// candidate, or an empty function (charge the encoded length) under
  /// kVarintDelta — the wire_bytes argument of the pairs convergecast.
  [[nodiscard]] std::function<std::uint64_t(const LocalItems&)>
  pair_wire_bytes() const;

  [[nodiscard]] const FilterBank& bank() const { return bank_; }
  [[nodiscard]] const NetFilterConfig& config() const { return config_; }

 private:
  NetFilterConfig config_;
  FilterBank bank_;
};

/// Wire form of a heavy-group bitmap: the set bits flattened to sorted ids
/// (filter-major, i*g + group) and delta-coded (net::encode_sorted_ids).
/// This is what the flat dissemination multicast ships; the flat-field cost
/// model still charges total() * group_id_bytes per message.
[[nodiscard]] net::Bytes encode_heavy_groups(const HeavyGroupSet& heavy);
[[nodiscard]] HeavyGroupSet decode_heavy_groups(
    std::span<const std::uint8_t> in, std::uint32_t num_filters,
    std::uint32_t num_groups);

/// Records one Formula-1 conformance run into config.obs (no-op when null):
/// predicted per-peer phase costs from the analytic model vs the costs in
/// `stats`. Only configurations the closed-form model prices are judged —
/// flat wire fields on a loss-free network. Public so QueryService can
/// record one run per multiplexed session from per-session traffic tallies.
void record_netfilter_conformance(const NetFilterConfig& config,
                                  const NetFilterStats& stats,
                                  std::uint32_t num_peers);

}  // namespace nf::core
