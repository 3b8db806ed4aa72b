// Source-routed request/reply along the hierarchy.
//
// §III-A.1: "requests from different peers are first forwarded to the root
// node ... [which] forwards [the result] to the corresponding peer". A
// request travels up the parent chain recording its route; the root's
// answer retraces the recorded route back to the requester — no peer needs
// global knowledge, only its own upstream link and the route carried in the
// message.
//
// One exchange is two session phases (net/session.h). RequestPhase opens at
// the requester (PhaseStart::kAllPeers) and is done once the request
// reaches the root; ReplyPhase is given the answer and the recorded route,
// sends only from the root, and is done once the answer lands at the
// requester. A session may run other phases in between — the root's
// on_arrived hook opens the next one (QueryService::serve_concurrent runs a
// whole IFI query there) — or the two may run in separate engine runs
// (QueryService::serve). Both charge per hop on kControl: a request costs
// `request_bytes`, a reply |answer| · `pair_bytes`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "agg/hierarchy.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/item_source.h"
#include "net/session.h"

namespace nf::agg {

/// A request climbing the parent chain.
struct RequestMsg {
  std::vector<PeerId> route;  ///< hops walked so far, excluding the root
};

/// The root's answer retracing a recorded route.
struct ReplyMsg {
  std::vector<PeerId> route;  ///< remaining hops; requester first
  ValueMap<ItemId, Value> answer;
};

/// Request half: the requester originates when the phase opens there and
/// each hop forwards upstream, appending itself to the route. Shard-safe:
/// the route and the arrival flag have one writer, the root's shard.
class RequestPhase final  // control plane, not hot path
    : public net::TypedPhase<RequestMsg> {  // nf-lint: nf-flat-payload-ok
 public:
  /// Fires at the root, inside the run, the moment the request arrives —
  /// the hook the session's next phase chains from.
  using ArrivedFn = std::function<void(net::PhaseContext&)>;

  RequestPhase(const Hierarchy& hierarchy, PeerId requester,
               std::uint64_t request_bytes, ArrivedFn on_arrived = {})
      : hierarchy_(hierarchy),
        requester_(requester),
        request_bytes_(request_bytes),
        on_arrived_(std::move(on_arrived)) {
    require(hierarchy.is_member(requester), "requester must be a member");
  }

  void on_start(net::PhaseContext& ctx) override {
    if (ctx.self() != requester_) return;
    forward(ctx, RequestMsg{});
  }

  [[nodiscard]] bool done() const override {
    return arrived_.load(std::memory_order_relaxed);
  }

  /// The route the request walked, requester first, root excluded — what
  /// the reply retraces. Valid once done().
  [[nodiscard]] const std::vector<PeerId>& route() const {
    require(done(), "request has not reached the root");
    return route_;
  }

 protected:
  void on_payload(net::PhaseContext& ctx, RequestMsg&& msg,
                  PeerId /*from*/) override {
    forward(ctx, std::move(msg));
  }

 private:
  void forward(net::PhaseContext& ctx, RequestMsg&& msg) {
    const PeerId self = ctx.self();
    if (self == hierarchy_.root()) {
      route_ = std::move(msg.route);
      arrived_.store(true, std::memory_order_relaxed);
      if (on_arrived_) on_arrived_(ctx);
      return;
    }
    msg.route.push_back(self);
    this->send(ctx, hierarchy_.upstream(self), net::TrafficCategory::kControl,
               request_bytes_, std::move(msg));
  }

  const Hierarchy& hierarchy_;
  PeerId requester_;
  std::uint64_t request_bytes_;
  ArrivedFn on_arrived_;
  std::vector<PeerId> route_;
  std::atomic<bool> arrived_{false};
};

/// Reply half: the root dispatches the installed answer along the recorded
/// route. Only the root originates, however the phase opens there, so it
/// may open at every peer (kAllPeers) or on demand. Shard-safe: the outbox
/// is read only at the root, the delivered answer written only at the
/// requester.
class ReplyPhase final  // control plane, not hot path
    : public net::TypedPhase<ReplyMsg> {  // nf-lint: nf-flat-payload-ok
 public:
  ReplyPhase(const Hierarchy& hierarchy, PeerId requester,
             std::uint64_t pair_bytes)
      : hierarchy_(hierarchy), requester_(requester), pair_bytes_(pair_bytes) {
    require(hierarchy.is_member(requester), "requester must be a member");
  }

  /// Installs the answer and the route to retrace (RequestPhase::route()).
  /// Must happen before the phase opens at the root — either up front, or
  /// from an earlier phase's callback (the root's shard) right before
  /// open_phase().
  void set_reply(std::vector<PeerId> route, ValueMap<ItemId, Value> answer) {
    outbox_ = ReplyMsg{std::move(route), std::move(answer)};
    has_reply_ = true;
  }

  void on_start(net::PhaseContext& ctx) override {
    if (ctx.self() != hierarchy_.root()) return;
    ensure(has_reply_, "reply opened at root without an answer");
    dispatch(ctx, std::move(outbox_));
  }

  [[nodiscard]] bool done() const override {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// The answer as delivered at the requester. Valid once done().
  [[nodiscard]] const ValueMap<ItemId, Value>& answer() const {
    require(done(), "reply not delivered yet");
    return answer_;
  }

 protected:
  void on_payload(net::PhaseContext& ctx, ReplyMsg&& msg,
                  PeerId /*from*/) override {
    dispatch(ctx, std::move(msg));
  }

 private:
  void dispatch(net::PhaseContext& ctx, ReplyMsg&& msg) {
    if (msg.route.empty()) {
      ensure(ctx.self() == requester_, "reply misrouted");
      answer_ = std::move(msg.answer);
      delivered_.store(true, std::memory_order_relaxed);
      return;
    }
    const PeerId next = msg.route.back();
    msg.route.pop_back();
    const std::uint64_t bytes = msg.answer.size() * pair_bytes_;
    this->send(ctx, next, net::TrafficCategory::kControl, bytes,
               std::move(msg));
  }

  const Hierarchy& hierarchy_;
  PeerId requester_;
  std::uint64_t pair_bytes_;
  ReplyMsg outbox_;
  bool has_reply_ = false;
  ValueMap<ItemId, Value> answer_;
  std::atomic<bool> delivered_{false};
};

}  // namespace nf::agg
