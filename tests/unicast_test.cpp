#include "agg/unicast.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/session.h"
#include "net/topology.h"

namespace nf::agg {
namespace {

using net::Engine;
using net::Overlay;
using net::PhaseContext;
using net::Topology;
using net::TrafficCategory;
using net::TrafficMeter;
using Answer = ValueMap<ItemId, Value>;

struct Fixture {
  explicit Fixture(Topology topo, PeerId root = PeerId(0))
      : overlay(std::move(topo)),
        meter(overlay.num_peers()),
        hierarchy(build_bfs_hierarchy(overlay, root)) {}

  Overlay overlay;
  TrafficMeter meter;
  Hierarchy hierarchy;
};

Topology line(std::uint32_t n) {
  Topology t(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  return t;
}

Answer answer_of(std::initializer_list<std::pair<std::uint64_t, Value>> kv) {
  Answer a;
  for (const auto& [id, v] : kv) a.add(ItemId(id), v);
  return a;
}

struct Exchange {
  bool done = false;
  std::uint64_t rounds = 0;
  std::vector<PeerId> route;
  Answer answer;
};

// One request/reply exchange as one session, the way serve_concurrent
// chains it: the request phase opens at every peer (it originates only at
// the requester), and its arrival at the root installs `answer` and opens
// the reply phase there.
Exchange round_trip(Fixture& fx, PeerId requester,
                    std::uint64_t request_bytes, const Answer& answer,
                    std::uint64_t pair_bytes) {
  net::SessionMux mux;
  const net::SessionId sid = mux.add_session();
  ReplyPhase reply(fx.hierarchy, requester, pair_bytes);
  net::PhaseId reply_pid = 0;
  std::unique_ptr<RequestPhase> request;
  request = std::make_unique<RequestPhase>(
      fx.hierarchy, requester, request_bytes, [&](PhaseContext& ctx) {
        EXPECT_EQ(ctx.self(), fx.hierarchy.root());
        reply.set_reply(request->route(), answer);
        ctx.open_phase(reply_pid);
      });
  (void)mux.add_phase(sid, *request, {.start = net::PhaseStart::kAllPeers});
  reply_pid = mux.add_phase(sid, reply, {});
  Engine engine(fx.overlay, fx.meter);
  Exchange out;
  out.rounds = engine.run(mux, 200);
  out.done = mux.all_done();
  if (out.done) {
    out.route = request->route();
    out.answer = reply.answer();
  }
  return out;
}

TEST(RequestReplyTest, RoundTripsAlongTheLine) {
  Fixture fx(line(6));
  const Answer answer = answer_of({{42, 7}, {43, 1}});
  const Exchange x = round_trip(fx, PeerId(5), /*request_bytes=*/4, answer,
                                /*pair_bytes=*/8);
  ASSERT_TRUE(x.done);
  EXPECT_EQ(x.answer, answer);
  // Requester first, root excluded.
  EXPECT_EQ(x.route, (std::vector<PeerId>{PeerId(5), PeerId(4), PeerId(3),
                                          PeerId(2), PeerId(1)}));
}

TEST(RequestReplyTest, CompletesInTwiceDepthRounds) {
  Fixture fx(line(8));
  const Exchange x =
      round_trip(fx, PeerId(7), 4, answer_of({{1, 1}}), /*pair_bytes=*/4);
  EXPECT_TRUE(x.done);
  EXPECT_LE(x.rounds, 2u * 7u + 2u);
}

TEST(RequestReplyTest, ChargesPerHopBothWays) {
  Fixture fx(line(4));  // requester depth 3
  const Exchange x = round_trip(fx, PeerId(3), /*request_bytes=*/10,
                                answer_of({{1, 1}, {2, 2}}),
                                /*pair_bytes=*/10);
  ASSERT_TRUE(x.done);
  // 3 request hops at 10 bytes + 3 reply hops at 2 pairs * 10 bytes.
  EXPECT_EQ(fx.meter.total(TrafficCategory::kControl), 3u * 10 + 3u * 20);
  EXPECT_EQ(fx.meter.num_messages(), 6u);
}

TEST(RequestReplyTest, RootRequesterIsServedLocally) {
  Fixture fx(line(3));
  const Answer answer = answer_of({{7, 14}});
  const Exchange x = round_trip(fx, PeerId(0), 4, answer, 4);
  ASSERT_TRUE(x.done);
  EXPECT_EQ(x.answer, answer);
  EXPECT_TRUE(x.route.empty());
  EXPECT_EQ(fx.meter.total(), 0u);
}

TEST(RequestReplyTest, WorksOnRandomTreesFromAnyRequester) {
  Rng rng(3);
  Fixture fx(net::random_tree(60, 3, rng));
  for (std::uint32_t requester : {1u, 17u, 42u, 59u}) {
    const Answer answer = answer_of({{requester, requester + 1000}});
    const Exchange x = round_trip(fx, PeerId(requester), 4, answer, 4);
    ASSERT_TRUE(x.done) << requester;
    EXPECT_EQ(x.answer, answer);
    EXPECT_EQ(x.route.size(), fx.hierarchy.depth(PeerId(requester)));
  }
}

TEST(RequestReplyTest, NonMemberRequesterRejected) {
  Overlay overlay(line(4));
  overlay.fail(PeerId(3));
  const Hierarchy h = build_bfs_hierarchy(overlay, PeerId(0));
  EXPECT_THROW(RequestPhase(h, PeerId(3), 4), InvalidArgument);
  EXPECT_THROW(ReplyPhase(h, PeerId(3), 4), InvalidArgument);
}

TEST(RequestReplyTest, ReplyBeforeCompletionThrows) {
  Fixture fx(line(3));
  const RequestPhase request(fx.hierarchy, PeerId(2), 4);
  const ReplyPhase reply(fx.hierarchy, PeerId(2), 4);
  EXPECT_THROW((void)request.route(), InvalidArgument);
  EXPECT_THROW((void)reply.answer(), InvalidArgument);
}

TEST(RequestReplyTest, ReplyOpenedAtEveryPeerSendsOnlyFromTheRoot) {
  // Rooted mid-line at 3, so lower-id peers open the phase before the root
  // does; only the root may originate.
  Fixture fx(line(6), PeerId(3));
  ReplyPhase reply(fx.hierarchy, PeerId(5), /*pair_bytes=*/8);
  const Answer answer = answer_of({{9, 9}});
  reply.set_reply({PeerId(5), PeerId(4)}, answer);
  Engine engine(fx.overlay, fx.meter);
  (void)net::run_phase(engine, reply, 100, nullptr);  // opens at all peers
  ASSERT_TRUE(reply.done());
  EXPECT_EQ(reply.answer(), answer);
  EXPECT_EQ(fx.meter.num_messages(), 2u);
  EXPECT_EQ(fx.meter.peer_total(PeerId(3)), 8u);
  EXPECT_EQ(fx.meter.peer_total(PeerId(4)), 8u);
  for (std::uint32_t p : {0u, 1u, 2u, 5u}) {
    EXPECT_EQ(fx.meter.peer_total(PeerId(p)), 0u) << "peer " << p;
  }
}

}  // namespace
}  // namespace nf::agg
