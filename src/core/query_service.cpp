#include "core/query_service.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "agg/flat_phases.h"
#include "agg/unicast.h"
#include "common/error.h"
#include "core/host_report.h"
#include "core/ifi_session.h"
#include "obs/context.h"

namespace nf::core {

namespace {

/// Everything one multiplexed query owns: its six phases (request ->
/// announce -> filtering -> dissemination -> aggregation -> reply) and its
/// own NetFilter (per-query filter bank).
struct QuerySession {
  net::SessionId sid = 0;
  PeerId requester;
  Value threshold = 0;
  NetFilterConfig config;
  std::unique_ptr<NetFilter> netfilter;
  std::unique_ptr<IfiSessionPhases> ifi;
  std::unique_ptr<agg::RequestPhase> request;
  std::unique_ptr<agg::FlatMulticastPhase> announce;
  std::unique_ptr<agg::ReplyPhase> reply;
  net::PhaseId announce_pid = 0;
  net::PhaseId filtering_pid = 0;
  net::PhaseId reply_pid = 0;
};

}  // namespace

std::vector<FrequentItemsResponse> QueryService::serve_concurrent(
    const std::vector<ConcurrentRequest>& requests, const ItemSource& items,
    const agg::Hierarchy& hierarchy, net::Overlay& overlay,
    net::TrafficMeter& meter, ConcurrentQueryStats* stats,
    const net::ChurnSchedule* churn) const {
  require(!requests.empty(), "no requests");
  require(items.num_peers() == overlay.num_peers(),
          "item source and overlay disagree on peer count");
  for (const auto& req : requests) {
    require(req.theta > 0.0 && req.theta <= 1.0, "theta must be in (0,1]");
    require(hierarchy.is_member(req.requester),
            "requester must be a hierarchy member");
  }
  obs::Context* obs = config_.obs;
  obs::ScopedPhase whole(obs, "query-service");

  Value v_total = 0;
  for (std::uint32_t p = 0; p < items.num_peers(); ++p) {
    if (hierarchy.is_member(PeerId(p))) {
      v_total += items.local_items(PeerId(p)).total();
    }
  }
  require(v_total > 0, "system holds no items");

  // The host report runs once; every session queries the same effective
  // (member-folded) item view.
  const std::uint64_t host_before =
      meter.total(net::TrafficCategory::kHostReport);
  const EffectiveItems effective = [&] {
    obs::ScopedPhase phase(obs, "host-report");
    return EffectiveItems(items, hierarchy, overlay, config_.wire, &meter);
  }();

  // Announced query parameters: f, g, seed and t — four flat fields.
  const std::uint64_t announce_bytes =
      std::uint64_t{4} * config_.wire.aggregate_bytes;

  net::SessionMux mux(obs);
  std::vector<std::unique_ptr<QuerySession>> sessions;
  sessions.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ConcurrentRequest& req = requests[i];
    auto owned = std::make_unique<QuerySession>();
    QuerySession* q = owned.get();
    q->requester = req.requester;
    q->threshold = static_cast<Value>(
        std::ceil(req.theta * static_cast<double>(v_total)));
    q->config = config_;
    if (req.num_filters != 0) q->config.num_filters = req.num_filters;
    if (req.num_groups != 0) q->config.num_groups = req.num_groups;
    if (req.filter_seed != 0) q->config.filter_seed = req.filter_seed;
    q->sid = mux.add_session("q" + std::to_string(i));
    q->netfilter = std::make_unique<NetFilter>(q->config);
    q->ifi = std::make_unique<IfiSessionPhases>(*q->netfilter, effective,
                                                hierarchy, q->threshold);

    q->request = std::make_unique<agg::RequestPhase>(
        hierarchy, req.requester, config_.wire.aggregate_bytes,
        [q, announce_bytes](net::PhaseContext& ctx) {
          const std::array<std::uint64_t, 4> params{
              q->config.filter_seed, q->config.num_filters,
              q->config.num_groups, q->threshold};
          q->announce->set_payload(net::encode_aggregates(params),
                                   announce_bytes);
          ctx.open_phase(q->announce_pid);
        });
    net::PhaseOptions ropts;
    ropts.start = net::PhaseStart::kAllPeers;
    ropts.name = "request";
    (void)mux.add_phase(q->sid, *q->request, ropts);

    q->announce = std::make_unique<agg::FlatMulticastPhase>(
        hierarchy, net::TrafficCategory::kControl,
        [q](net::PhaseContext& ctx, std::span<const std::uint8_t> /*params*/) {
          // In deployment the peer derives the session's filter bank from
          // the announced (f, g, seed); here the session's NetFilter holds
          // it already, so receipt just starts filtering at this peer.
          ctx.open_phase(q->filtering_pid);
        },
        obs);
    net::PhaseOptions aopts;
    aopts.name = "announce";
    q->announce_pid = mux.add_phase(q->sid, *q->announce, aopts);

    q->filtering_pid =
        q->ifi->register_phases(mux, q->sid, net::PhaseStart::kOnDemand);

    q->reply = std::make_unique<agg::ReplyPhase>(
        hierarchy, req.requester, config_.wire.item_value_pair());
    net::PhaseOptions popts;
    popts.name = "reply";
    q->reply_pid = mux.add_phase(q->sid, *q->reply, popts);

    q->ifi->set_on_complete([q](net::PhaseContext& ctx) {
      q->reply->set_reply(q->request->route(), q->ifi->result().frequent);
      ctx.open_phase(q->reply_pid);
    });
    sessions.push_back(std::move(owned));
  }

  net::Engine engine(overlay, meter);
  configure_engine(engine, config_);
  const std::uint64_t rounds =
      engine.run(mux, config_.max_rounds_per_phase, churn);

  std::vector<FrequentItemsResponse> responses;
  responses.reserve(sessions.size());
  for (const auto& q : sessions) {
    ensure(mux.session_done(q->sid), "query session did not complete");
    responses.push_back({q->requester, q->threshold, q->reply->answer()});
  }

  mux.flush_obs_counters();
  if (stats != nullptr) {
    stats->rounds_total = rounds;
    const double n = static_cast<double>(overlay.num_peers());
    stats->host_report_cost =
        static_cast<double>(meter.total(net::TrafficCategory::kHostReport) -
                            host_before) /
        n;
    const std::vector<net::SessionTraffic> traffic = mux.traffic();
    for (auto& q : sessions) {
      ConcurrentSessionStats ss;
      ss.traffic = traffic[q->sid];
      ss.name = ss.traffic.name;
      ss.threshold = q->threshold;
      ss.netfilter = q->ifi->take_result().stats;
      // Per-session completion round (the round of the gating delivery, as
      // the lineage critical path reports it), not the shared run length.
      ss.netfilter.rounds_total = mux.done_round(q->sid);
      const auto category_cost = [&](net::TrafficCategory c) {
        return static_cast<double>(
                   ss.traffic.bytes[static_cast<std::size_t>(c)]) /
               n;
      };
      ss.netfilter.filtering_cost =
          category_cost(net::TrafficCategory::kFiltering);
      ss.netfilter.dissemination_cost =
          category_cost(net::TrafficCategory::kDissemination);
      ss.netfilter.aggregation_cost =
          category_cost(net::TrafficCategory::kAggregation);
      ss.netfilter.candidates_per_peer =
          static_cast<double>(ss.traffic.bytes[static_cast<std::size_t>(
              net::TrafficCategory::kAggregation)]) /
          static_cast<double>(q->config.wire.item_value_pair()) / n;
      record_netfilter_conformance(q->config, ss.netfilter,
                                   overlay.num_peers());
      stats->sessions.push_back(std::move(ss));
    }
  }
  return responses;
}

std::vector<FrequentItemsResponse> QueryService::serve(
    const std::vector<FrequentItemsRequest>& requests,
    const ItemSource& items, const agg::Hierarchy& hierarchy,
    net::Overlay& overlay, net::TrafficMeter& meter,
    QueryServiceStats* stats) const {
  require(!requests.empty(), "no requests");
  for (const auto& req : requests) {
    require(req.theta > 0.0 && req.theta <= 1.0, "theta must be in (0,1]");
    require(hierarchy.is_member(req.requester),
            "requester must be a hierarchy member");
  }

  // v is needed to turn thetas into absolute thresholds; in deployment the
  // root gets it from the bootstrap aggregate (see tuner.cpp); the byte
  // charge for that is the tuner's, not the query service's.
  Value v_total = 0;
  for (std::uint32_t p = 0; p < items.num_peers(); ++p) {
    if (hierarchy.is_member(PeerId(p))) {
      v_total += items.local_items(PeerId(p)).total();
    }
  }
  require(v_total > 0, "system holds no items");

  // Requests and replies run one session per request on one mux per
  // stage, in request order; the shared netFilter run sits between them.
  const auto run_stage = [&](const auto& phases, const char* name) {
    net::SessionMux mux(config_.obs);
    for (std::size_t i = 0; i < phases.size(); ++i) {
      (void)mux.add_phase(mux.add_session("r" + std::to_string(i)),
                          *phases[i],
                          {.start = net::PhaseStart::kAllPeers, .name = name});
    }
    net::Engine engine(overlay, meter);
    configure_engine(engine, config_);
    engine.run(mux, 10000);
    ensure(mux.all_done(), "request/reply stage did not complete");
  };

  // Stage 1: route all requests to the root (one theta per message).
  const std::uint64_t control_at_entry =
      meter.total(net::TrafficCategory::kControl);
  std::vector<std::unique_ptr<agg::RequestPhase>> ups;
  ups.reserve(requests.size());
  for (const auto& req : requests) {
    ups.push_back(std::make_unique<agg::RequestPhase>(
        hierarchy, req.requester, config_.wire.aggregate_bytes));
  }
  run_stage(ups, "request");
  const std::uint64_t control_after_requests =
      meter.total(net::TrafficCategory::kControl);

  // Stage 2: one shared netFilter run at the minimum threshold.
  double min_theta = 1.0;
  for (const auto& req : requests) min_theta = std::min(min_theta, req.theta);
  const auto min_threshold = static_cast<Value>(
      std::ceil(min_theta * static_cast<double>(v_total)));
  const NetFilter netfilter(config_);
  const NetFilterResult shared =
      netfilter.run(items, hierarchy, overlay, meter, min_threshold);

  // Stage 3: per-request filtering of the superset, replies retrace routes.
  std::vector<FrequentItemsResponse> responses;
  responses.reserve(requests.size());
  std::vector<std::unique_ptr<agg::ReplyPhase>> downs;
  downs.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    FrequentItemsResponse& r = responses.emplace_back();
    r.requester = requests[i].requester;
    r.threshold = static_cast<Value>(
        std::ceil(requests[i].theta * static_cast<double>(v_total)));
    ValueMap<ItemId, Value> answer = shared.frequent;
    answer.retain([&](ItemId, Value v) { return v >= r.threshold; });
    downs.push_back(std::make_unique<agg::ReplyPhase>(
        hierarchy, r.requester, config_.wire.item_value_pair()));
    downs.back()->set_reply(ups[i]->route(), std::move(answer));
  }
  run_stage(downs, "reply");
  for (std::size_t i = 0; i < requests.size(); ++i) {
    responses[i].frequent = downs[i]->answer();
  }

  if (stats != nullptr) {
    stats->min_threshold = min_threshold;
    stats->netfilter_runs = 1;
    stats->netfilter = shared.stats;
    const double n = static_cast<double>(overlay.num_peers());
    stats->request_cost_per_peer =
        static_cast<double>(control_after_requests - control_at_entry) / n;
    stats->reply_cost_per_peer =
        static_cast<double>(meter.total(net::TrafficCategory::kControl) -
                            control_after_requests) /
        n;
  }
  return responses;
}

}  // namespace nf::core
