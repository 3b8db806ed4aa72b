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
//
// On the wire (net/codec.h) a request is the route walked so far — a
// varint peer list — and a reply is the hops still to go (requester first)
// followed by the answer's encode_pairs run. A hop re-encodes the route
// around the raw id bytes, so forwarding decodes no answer and allocates
// nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "agg/hierarchy.h"
#include "common/capability.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/item_source.h"
#include "net/codec.h"
#include "net/session.h"

namespace nf::agg {

/// Request half: the requester originates when the phase opens there and
/// each hop forwards upstream, appending itself to the route. Shard-safe:
/// the route and the arrival flag have one writer, the root's shard.
class RequestPhase final : public net::FlatPhase {
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
    forward(ctx, net::RouteFrame{});
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
  NF_SHARD_CONTEXT NF_STEADY_NOALLOC void on_flat(
      net::PhaseContext& ctx, std::span<const std::uint8_t> bytes,
      PeerId /*from*/) override {
    const net::RouteFrame route = net::decode_route(bytes);
    ensure(route.rest.empty(), "trailing bytes after request route");
    forward(ctx, route);
  }

 private:
  void forward(net::PhaseContext& ctx, const net::RouteFrame& route) {
    const PeerId self = ctx.self();
    if (self == hierarchy_.root()) {
      route_.reserve(route.count);
      for (std::size_t off = 0; off < route.ids.size();) {
        route_.emplace_back(
            static_cast<std::uint32_t>(net::get_varint(route.ids, off)));
      }
      arrived_.store(true, std::memory_order_relaxed);
      if (on_arrived_) on_arrived_(ctx);
      return;
    }
    net::PayloadWriter w = ctx.flat_payload();
    w.put_varint(route.count + 1);
    w.put_bytes(route.ids);
    w.put_varint(self.value());
    ctx.send_flat(hierarchy_.upstream(self), net::TrafficCategory::kControl,
                  request_bytes_, w.finish());
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
/// may open at every peer (kAllPeers) or on demand. Shard-safe: the
/// installed route and answer are read only at the root, and the answer is
/// overwritten with the delivered copy only at the requester, rounds later.
class ReplyPhase final : public net::FlatPhase {
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
    route_ = std::move(route);
    answer_ = std::move(answer);
    has_reply_ = true;
  }

  void on_start(net::PhaseContext& ctx) override {
    if (ctx.self() != hierarchy_.root()) return;
    ensure(has_reply_, "reply opened at root without an answer");
    if (route_.empty()) {
      ensure(ctx.self() == requester_, "reply misrouted");
      delivered_.store(true, std::memory_order_relaxed);
      return;
    }
    net::PayloadWriter w = ctx.flat_payload();
    net::encode_route_to(w, std::span(route_).first(route_.size() - 1));
    net::encode_pairs_to(w, answer_);
    ctx.send_flat(route_.back(), net::TrafficCategory::kControl,
                  answer_.size() * pair_bytes_, w.finish());
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
  NF_SHARD_CONTEXT NF_STEADY_NOALLOC void on_flat(
      net::PhaseContext& ctx, std::span<const std::uint8_t> bytes,
      PeerId /*from*/) override {
    const net::RouteFrame route = net::decode_route(bytes);
    if (route.count == 0) {
      ensure(ctx.self() == requester_, "reply misrouted");
      answer_ = net::decode_pairs(route.rest);
      delivered_.store(true, std::memory_order_relaxed);
      return;
    }
    // Pop the last hop and pass the answer bytes through untouched.
    net::PayloadWriter w = ctx.flat_payload();
    w.put_varint(route.count - 1);
    w.put_bytes(route.ids.first(route.last_offset));
    w.put_bytes(route.rest);
    ctx.send_flat(route.last, net::TrafficCategory::kControl,
                  net::pair_count(route.rest) * pair_bytes_, w.finish());
  }

 private:
  const Hierarchy& hierarchy_;
  PeerId requester_;
  std::uint64_t pair_bytes_;
  std::vector<PeerId> route_;
  bool has_reply_ = false;
  ValueMap<ItemId, Value> answer_;
  std::atomic<bool> delivered_{false};
};

}  // namespace nf::agg
