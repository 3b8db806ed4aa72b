#include "core/query_service.h"

#include <algorithm>
#include <any>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "agg/multicast.h"
#include "common/arena.h"
#include "common/error.h"
#include "core/host_report.h"
#include "core/ifi_session.h"
#include "obs/context.h"

namespace nf::core {

namespace {

/// Stage 1: every requester's theta travels up the parent chain to the
/// root, recording its route (paper §III-A.1). One protocol instance
/// carries all requests.
class RequestsUp final : public net::Protocol {
 public:
  struct Arrived {
    PeerId requester;
    double theta;
    std::vector<PeerId> route;  // [requester, hop, ...], excluding root
  };

  RequestsUp(const agg::Hierarchy& hierarchy,
             const std::vector<FrequentItemsRequest>& requests,
             std::uint64_t request_bytes)
      : hierarchy_(hierarchy),
        requests_(requests),
        request_bytes_(request_bytes),
        started_(requests.size(), 0) {}

  void on_round(net::Context& ctx) override {
    // The engine calls on_round for every alive peer every round, so each
    // requester originates its own request(s) in round 0. One byte per
    // request (not vector<bool>): only the requester's shard touches its
    // requests' flags, and bytes keep those writes race-free. The
    // requester test comes first, so no shard reads another's flag.
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      if (requests_[i].requester != ctx.self() || started_[i] != 0) continue;
      started_[i] = 1;
      forward(ctx,
              Arrived{requests_[i].requester, requests_[i].theta, {}});
    }
  }

  void on_message(net::Context& ctx, net::Envelope&& env) override {
    auto* msg = std::any_cast<Arrived>(&env.payload);
    ensure(msg != nullptr, "request payload type mismatch");
    forward(ctx, std::move(*msg));
  }

  [[nodiscard]] bool active() const override {
    return arrived_.size() < requests_.size();
  }
  [[nodiscard]] const std::vector<Arrived>& arrived() const {
    return arrived_;
  }

 private:
  void forward(net::Context& ctx, Arrived&& msg) {
    const PeerId self = ctx.self();
    if (self == hierarchy_.root()) {
      arrived_.push_back(std::move(msg));
      return;
    }
    msg.route.push_back(self);
    // Control-plane hop: one tiny routed message per query, off the
    // zero-alloc hot path.
    ctx.send(hierarchy_.upstream(self), net::TrafficCategory::kControl,
             request_bytes_, std::any(std::move(msg)));  // nf-lint: nf-flat-payload-ok
  }

  const agg::Hierarchy& hierarchy_;
  const std::vector<FrequentItemsRequest>& requests_;
  std::uint64_t request_bytes_;
  std::vector<std::uint8_t> started_;
  // Root-shard only: requests arrive via on_message at the root, so there
  // is a single writer and the engine barrier publishes it.
  std::vector<Arrived> arrived_;
};

/// Stage 3: per-requester replies retrace the recorded routes.
class RepliesDown final : public net::Protocol {
 public:
  struct Pending {
    std::vector<PeerId> route;  // remaining hops; requester first
    FrequentItemsResponse response;
  };

  RepliesDown(const agg::Hierarchy& hierarchy, std::vector<Pending> replies,
              std::uint64_t pair_bytes)
      : hierarchy_(hierarchy),
        outbox_(std::move(replies)),
        pair_bytes_(pair_bytes),
        expected_(outbox_.size()) {}

  void on_run_start(const net::Overlay& overlay) override {
    if (delivered_.empty()) delivered_.resize(overlay.num_peers());
  }

  void on_round(net::Context& ctx) override {
    if (ctx.self() != hierarchy_.root() || sent_) return;
    sent_ = true;
    for (auto& pending : outbox_) {
      dispatch(ctx, std::move(pending));
    }
    outbox_.clear();
  }

  void on_message(net::Context& ctx, net::Envelope&& env) override {
    auto* msg = std::any_cast<Pending>(&env.payload);
    ensure(msg != nullptr, "reply payload type mismatch");
    dispatch(ctx, std::move(*msg));
  }

  [[nodiscard]] bool active() const override {
    return delivered_count_.load(std::memory_order_relaxed) < expected_;
  }
  /// Delivered responses in requester id order (per-requester arrival
  /// order within a requester); the caller re-sorts by request position.
  [[nodiscard]] std::vector<FrequentItemsResponse> take_delivered() {
    std::vector<FrequentItemsResponse> out;
    for (auto& per_peer : delivered_) {
      for (auto& response : per_peer) out.push_back(std::move(response));
    }
    return out;
  }

 private:
  void dispatch(net::Context& ctx, Pending&& pending) {
    if (pending.route.empty()) {
      ensure(ctx.self() == pending.response.requester, "reply misrouted");
      // Replies land in the requester's own arena slot, so concurrent
      // arrivals at requesters in different shards never share state.
      delivered_[ctx.self()].push_back(std::move(pending.response));
      delivered_count_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const PeerId next = pending.route.back();
    pending.route.pop_back();
    const std::uint64_t bytes =
        pending.response.frequent.size() * pair_bytes_;
    ctx.send(next, net::TrafficCategory::kControl, bytes,
             std::any(std::move(pending)));  // nf-lint: nf-flat-payload-ok
  }

  const agg::Hierarchy& hierarchy_;
  std::vector<Pending> outbox_;
  std::uint64_t pair_bytes_;
  std::size_t expected_;
  bool sent_ = false;
  PeerArena<std::vector<FrequentItemsResponse>> delivered_;
  std::atomic<std::size_t> delivered_count_{0};
};

// ---- serve_concurrent: per-query session phases (net/session.h) ----

/// Wire shape of a request walking up the parent chain. The route is what
/// the reply retraces; the query parameters themselves are registered at
/// the root per session, so the message body is just the theta the byte
/// charge models.
struct QueryRequestMsg {
  std::vector<PeerId> route;  ///< hops walked so far, excluding the root
};

/// Query parameters the root announces down the tree: enough for a peer to
/// derive the session's filter bank and threshold.
struct QueryAnnounceMsg {
  std::uint64_t filter_seed = 0;
  std::uint32_t num_filters = 0;
  std::uint32_t num_groups = 0;
  Value threshold = 0;
};

/// Reply retracing the recorded route back to the requester.
struct QueryReplyMsg {
  std::vector<PeerId> route;  ///< remaining hops; requester first
  ValueMap<ItemId, Value> frequent;
};

/// Session entry phase: the requester originates when the phase opens
/// (kAllPeers, round 0) and each hop forwards upstream, recording the
/// route. done() once the root has it.
class RequestPhase final  // control plane, not hot path
    : public net::TypedPhase<QueryRequestMsg> {  // nf-lint: nf-flat-payload-ok
 public:
  using ArrivedFn =
      std::function<void(net::PhaseContext&, QueryRequestMsg&&)>;

  RequestPhase(const agg::Hierarchy& hierarchy, PeerId requester,
               std::uint64_t request_bytes, ArrivedFn on_arrived)
      : hierarchy_(hierarchy),
        requester_(requester),
        request_bytes_(request_bytes),
        on_arrived_(std::move(on_arrived)) {}

  void on_start(net::PhaseContext& ctx) override {
    if (ctx.self() != requester_) return;
    forward(ctx, QueryRequestMsg{});
  }

  [[nodiscard]] bool done() const override {
    return arrived_.load(std::memory_order_relaxed);
  }

 protected:
  void on_payload(net::PhaseContext& ctx, QueryRequestMsg&& msg,
                  PeerId /*from*/) override {
    forward(ctx, std::move(msg));
  }

 private:
  void forward(net::PhaseContext& ctx, QueryRequestMsg&& msg) {
    const PeerId self = ctx.self();
    if (self == hierarchy_.root()) {
      arrived_.store(true, std::memory_order_relaxed);
      on_arrived_(ctx, std::move(msg));
      return;
    }
    msg.route.push_back(self);
    this->send(ctx, hierarchy_.upstream(self), net::TrafficCategory::kControl,
               request_bytes_, std::move(msg));
  }

  const agg::Hierarchy& hierarchy_;
  PeerId requester_;
  std::uint64_t request_bytes_;
  ArrivedFn on_arrived_;
  std::atomic<bool> arrived_{false};
};

/// Session exit phase: the root dispatches the finished answer along the
/// recorded route; done() when it lands at the requester.
class ReplyPhase final  // control plane, not hot path
    : public net::TypedPhase<QueryReplyMsg> {  // nf-lint: nf-flat-payload-ok
 public:
  using DeliveredFn =
      std::function<void(net::PhaseContext&, QueryReplyMsg&&)>;

  ReplyPhase(PeerId requester, std::uint64_t pair_bytes,
             DeliveredFn on_delivered)
      : requester_(requester),
        pair_bytes_(pair_bytes),
        on_delivered_(std::move(on_delivered)) {}

  /// Installed at the root (its shard) right before open_phase().
  void set_payload(QueryReplyMsg msg) {
    outbox_ = std::move(msg);
    has_payload_ = true;
  }

  void on_start(net::PhaseContext& ctx) override {
    // Opened at the root by the IFI completion hook (payload installed) or
    // at a relay/requester by message arrival (nothing to originate).
    if (!has_payload_) return;
    has_payload_ = false;
    dispatch(ctx, std::move(outbox_));
  }

  [[nodiscard]] bool done() const override {
    return delivered_.load(std::memory_order_relaxed);
  }

 protected:
  void on_payload(net::PhaseContext& ctx, QueryReplyMsg&& msg,
                  PeerId /*from*/) override {
    dispatch(ctx, std::move(msg));
  }

 private:
  void dispatch(net::PhaseContext& ctx, QueryReplyMsg&& msg) {
    if (msg.route.empty()) {
      ensure(ctx.self() == requester_, "reply misrouted");
      delivered_.store(true, std::memory_order_relaxed);
      on_delivered_(ctx, std::move(msg));
      return;
    }
    const PeerId next = msg.route.back();
    msg.route.pop_back();
    const std::uint64_t bytes = msg.frequent.size() * pair_bytes_;
    this->send(ctx, next, net::TrafficCategory::kControl, bytes,
               std::move(msg));
  }

  PeerId requester_;
  std::uint64_t pair_bytes_;
  DeliveredFn on_delivered_;
  QueryReplyMsg outbox_;
  bool has_payload_ = false;
  std::atomic<bool> delivered_{false};
};

/// Everything one multiplexed query owns: its six phases (request ->
/// announce -> filtering -> dissemination -> aggregation -> reply), its own
/// NetFilter (per-query filter bank), route and response slots.
struct QuerySession {
  net::SessionId sid = 0;
  PeerId requester;
  Value threshold = 0;
  NetFilterConfig config;
  std::unique_ptr<NetFilter> netfilter;
  std::unique_ptr<IfiSessionPhases> ifi;
  std::unique_ptr<RequestPhase> request;
  std::unique_ptr<agg::MulticastPhase<QueryAnnounceMsg>> announce;
  std::unique_ptr<ReplyPhase> reply;
  net::PhaseId announce_pid = 0;
  net::PhaseId filtering_pid = 0;
  net::PhaseId reply_pid = 0;
  std::vector<PeerId> route;       // root shard: recorded at request arrival
  FrequentItemsResponse response;  // requester shard write; read post-run
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

    q->request = std::make_unique<RequestPhase>(
        hierarchy, req.requester, config_.wire.aggregate_bytes,
        [q, announce_bytes](net::PhaseContext& ctx, QueryRequestMsg&& msg) {
          q->route = std::move(msg.route);
          q->announce->set_payload(
              QueryAnnounceMsg{q->config.filter_seed, q->config.num_filters,
                               q->config.num_groups, q->threshold},
              announce_bytes);
          ctx.open_phase(q->announce_pid);
        });
    net::PhaseOptions ropts;
    ropts.start = net::PhaseStart::kAllPeers;
    ropts.name = "request";
    (void)mux.add_phase(q->sid, *q->request, ropts);

    q->announce = std::make_unique<agg::MulticastPhase<QueryAnnounceMsg>>(
        hierarchy, net::TrafficCategory::kControl,
        [q](net::PhaseContext& ctx, const QueryAnnounceMsg& /*msg*/) {
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

    q->reply = std::make_unique<ReplyPhase>(
        req.requester, config_.wire.item_value_pair(),
        [q](net::PhaseContext& ctx, QueryReplyMsg&& msg) {
          q->response.requester = ctx.self();
          q->response.threshold = q->threshold;
          q->response.frequent = std::move(msg.frequent);
        });
    net::PhaseOptions popts;
    popts.name = "reply";
    q->reply_pid = mux.add_phase(q->sid, *q->reply, popts);

    q->ifi->set_on_complete([q](net::PhaseContext& ctx) {
      QueryReplyMsg msg;
      msg.route = q->route;
      msg.frequent = q->ifi->result().frequent;
      q->reply->set_payload(std::move(msg));
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
    responses.push_back(std::move(q->response));
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

  // Stage 1: route all requests to the root (one theta per message).
  const std::uint64_t control_at_entry =
      meter.total(net::TrafficCategory::kControl);
  RequestsUp up(hierarchy, requests, config_.wire.aggregate_bytes);
  {
    net::Engine engine(overlay, meter);
    configure_engine(engine, config_);
    engine.run(up, 10000);
  }
  ensure(up.arrived().size() == requests.size(),
         "not every request reached the root");
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
  std::vector<RepliesDown::Pending> pending;
  pending.reserve(requests.size());
  for (const auto& arrived : up.arrived()) {
    RepliesDown::Pending p;
    p.route = arrived.route;
    p.response.requester = arrived.requester;
    p.response.threshold = static_cast<Value>(
        std::ceil(arrived.theta * static_cast<double>(v_total)));
    p.response.frequent = shared.frequent;
    p.response.frequent.retain([&](ItemId, Value v) {
      return v >= p.response.threshold;
    });
    pending.push_back(std::move(p));
  }
  RepliesDown down(hierarchy, std::move(pending),
                   config_.wire.item_value_pair());
  {
    net::Engine engine(overlay, meter);
    configure_engine(engine, config_);
    engine.run(down, 10000);
  }
  auto responses = down.take_delivered();
  ensure(responses.size() == requests.size(), "lost replies");
  // Restore the caller's request order.
  std::stable_sort(responses.begin(), responses.end(),
                   [&](const FrequentItemsResponse& a,
                       const FrequentItemsResponse& b) {
                     const auto pos = [&](PeerId id) {
                       for (std::size_t i = 0; i < requests.size(); ++i) {
                         if (requests[i].requester == id) return i;
                       }
                       return requests.size();
                     };
                     return pos(a.requester) < pos(b.requester);
                   });

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
