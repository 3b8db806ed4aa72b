// Multi-request serving (paper §III-A.1).
//
// Several peers may concurrently request frequent-item sets with different
// thresholds. Two strategies:
//
// serve() — the paper's sharing optimisation: all requests are forwarded to
// the root, netFilter runs ONCE with the minimum requested threshold, and
// each requester receives the superset filtered at its own threshold.
// Requests and replies travel as agg::RequestPhase / agg::ReplyPhase
// sessions (agg/unicast.h), one per request, charged per hop so the sharing
// win is measurable.
//
// serve_concurrent() — independent queries that cannot share a run (they
// may use distinct thresholds AND distinct filter banks) multiplex as N
// full IFI sessions over a single engine run via the session runtime
// (net/session.h): request -> announce -> filtering -> dissemination ->
// aggregation -> reply per session, all pipelined per peer, with
// per-session trace tracks, traffic tallies and conformance runs so
// nf-inspect can attribute bytes per query.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agg/hierarchy.h"
#include "common/item_source.h"
#include "core/netfilter.h"
#include "net/churn.h"
#include "net/session.h"

namespace nf::core {

struct FrequentItemsRequest {
  PeerId requester;
  double theta;  ///< requested threshold ratio
};

struct FrequentItemsResponse {
  PeerId requester;
  Value threshold = 0;                 ///< t for this requester
  ValueMap<ItemId, Value> frequent;    ///< exact result at their threshold
};

struct QueryServiceStats {
  Value min_threshold = 0;       ///< the single threshold netFilter ran at
  std::uint64_t netfilter_runs = 1;
  NetFilterStats netfilter;      ///< stats of the one shared run
  double request_cost_per_peer = 0.0;  ///< forwarding requests to the root
  double reply_cost_per_peer = 0.0;    ///< shipping per-request results back
};

/// One independent query for serve_concurrent. Zero-valued overrides fall
/// back to the service's NetFilterConfig, so plain {requester, theta}
/// requests share the default filter bank while still running as separate
/// sessions.
struct ConcurrentRequest {
  PeerId requester;
  double theta;                    ///< requested threshold ratio
  std::uint32_t num_filters = 0;   ///< per-query f; 0 = service default
  std::uint32_t num_groups = 0;    ///< per-query g; 0 = service default
  std::uint64_t filter_seed = 0;   ///< per-query seed; 0 = service default
};

/// Per-session accounting of one multiplexed query ("q<i>" in trace tracks,
/// obs counters and nf-inspect breakdowns).
struct ConcurrentSessionStats {
  std::string name;          ///< session name, "q<i>"
  Value threshold = 0;
  /// Counting fields from the session's own run; phase costs are computed
  /// from the session's traffic tally (not the shared meter), so concurrent
  /// sessions don't bleed into each other's numbers. rounds_total is this
  /// session's completion round (SessionMux::done_round — the round of the
  /// gating delivery, matching the lineage critical path's final hop);
  /// per-phase round splits live in the trace spans.
  NetFilterStats netfilter;
  net::SessionTraffic traffic;  ///< per-category bytes/messages
};

struct ConcurrentQueryStats {
  std::uint64_t rounds_total = 0;    ///< the single engine run all sessions shared
  double host_report_cost = 0.0;     ///< charged once, shared by all sessions
  std::vector<ConcurrentSessionStats> sessions;
};

class QueryService {
 public:
  explicit QueryService(NetFilterConfig config) : config_(config) {}

  /// Serves all requests with one shared netFilter run. The request with
  /// the smallest theta defines the run threshold; every response is exact
  /// for its own theta because filtering a superset of frequent items by a
  /// larger threshold loses nothing. Responses come back in request order.
  [[nodiscard]] std::vector<FrequentItemsResponse> serve(
      const std::vector<FrequentItemsRequest>& requests,
      const ItemSource& items, const agg::Hierarchy& hierarchy,
      net::Overlay& overlay, net::TrafficMeter& meter,
      QueryServiceStats* stats = nullptr) const;

  /// Runs every request as its own full IFI session — its own threshold and
  /// (optionally) its own filter bank — multiplexed over ONE engine run.
  /// Responses come back in request order and are bit-identical to running
  /// the same queries back-to-back. `churn` may fail/join peers mid-run;
  /// peers participating in a query (hierarchy members, requesters) must
  /// stay alive or the run cannot complete. Faulty links come from the
  /// config's fault model as usual.
  [[nodiscard]] std::vector<FrequentItemsResponse> serve_concurrent(
      const std::vector<ConcurrentRequest>& requests, const ItemSource& items,
      const agg::Hierarchy& hierarchy, net::Overlay& overlay,
      net::TrafficMeter& meter, ConcurrentQueryStats* stats = nullptr,
      const net::ChurnSchedule* churn = nullptr) const;

 private:
  NetFilterConfig config_;
};

}  // namespace nf::core
