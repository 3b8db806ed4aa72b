#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>

#include "agg/flat_phases.h"
#include "net/session.h"

namespace nf::agg {
namespace {

using net::Engine;
using net::PhaseContext;
using net::run_phase;
using net::Overlay;
using net::Topology;
using net::TrafficCategory;
using net::TrafficMeter;

using Span = std::span<const std::uint8_t>;

// A one-byte payload; most cases only count deliveries and bytes.
const net::Bytes kByte{1};

struct Fixture {
  explicit Fixture(Topology topo)
      : overlay(std::move(topo)),
        meter(overlay.num_peers()),
        hierarchy(build_bfs_hierarchy(overlay, PeerId(0))) {}

  Overlay overlay;
  TrafficMeter meter;
  Hierarchy hierarchy;
};

TEST(MulticastTest, EveryMemberReceivesExactlyOnce) {
  Rng rng(1);
  Fixture fx(net::random_tree(100, 3, rng));
  std::multiset<std::uint32_t> receivers;
  const std::string payload = "payload";
  FlatMulticastPhase mc(fx.hierarchy, TrafficCategory::kDissemination,
                        [&](PhaseContext& ctx, Span bytes) {
                          EXPECT_EQ(std::string(bytes.begin(), bytes.end()),
                                    payload);
                          receivers.insert(ctx.self().value());
                        });
  mc.set_payload(net::Bytes(payload.begin(), payload.end()), 16);
  Engine engine(fx.overlay, fx.meter);
  run_phase(engine, mc, 200, nullptr);
  ASSERT_TRUE(mc.complete());
  EXPECT_EQ(mc.num_received(), 100u);
  EXPECT_EQ(receivers.size(), 100u);
  for (std::uint32_t p = 0; p < 100; ++p) {
    EXPECT_EQ(receivers.count(p), 1u) << "peer " << p;
  }
}

TEST(MulticastTest, ChargesOneMessagePerEdge) {
  Rng rng(2);
  Fixture fx(net::random_tree(64, 4, rng));
  FlatMulticastPhase mc(fx.hierarchy, TrafficCategory::kDissemination,
                        [](PhaseContext&, Span) {});
  // The charge is the modelled 10 bytes, not the 3-byte encoding.
  mc.set_payload(net::Bytes{7, 7, 7}, 10);
  Engine engine(fx.overlay, fx.meter);
  run_phase(engine, mc, 100, nullptr);
  // N-1 tree edges, one message of 10 bytes each.
  EXPECT_EQ(fx.meter.num_messages(), 63u);
  EXPECT_EQ(fx.meter.total(TrafficCategory::kDissemination), 630u);
}

TEST(MulticastTest, CompletesInHeightRounds) {
  Topology t(6);
  for (std::uint32_t i = 0; i + 1 < 6; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  Fixture fx(std::move(t));
  FlatMulticastPhase mc(fx.hierarchy, TrafficCategory::kDissemination,
                        [](PhaseContext&, Span) {});
  mc.set_payload(kByte, 1);
  Engine engine(fx.overlay, fx.meter);
  const std::uint64_t rounds = run_phase(engine, mc, 100, nullptr);
  EXPECT_TRUE(mc.complete());
  EXPECT_LE(rounds, fx.hierarchy.height() + 1);
}

TEST(MulticastTest, SingletonRootOnlyDeliversLocally) {
  Fixture fx{Topology(1)};
  int deliveries = 0;
  FlatMulticastPhase mc(fx.hierarchy, TrafficCategory::kDissemination,
                        [&](PhaseContext&, Span) { ++deliveries; });
  mc.set_payload(kByte, 1);
  Engine engine(fx.overlay, fx.meter);
  run_phase(engine, mc, 10, nullptr);
  EXPECT_TRUE(mc.complete());
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(fx.meter.total(), 0u);
}

TEST(MulticastTest, RootHandlerRunsFirst) {
  Rng rng(3);
  Fixture fx(net::random_tree(30, 3, rng));
  std::vector<std::uint32_t> order;
  FlatMulticastPhase mc(fx.hierarchy, TrafficCategory::kDissemination,
                        [&](PhaseContext& ctx, Span) {
                          order.push_back(ctx.self().value());
                        });
  mc.set_payload(kByte, 1);
  Engine engine(fx.overlay, fx.meter);
  run_phase(engine, mc, 100, nullptr);
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.front(), 0u);
  // Delivery order respects depth: a child never precedes its parent.
  std::vector<std::uint32_t> depth_at_delivery;
  for (std::uint32_t p : order) {
    depth_at_delivery.push_back(fx.hierarchy.depth(PeerId(p)));
  }
  EXPECT_TRUE(std::is_sorted(depth_at_delivery.begin(),
                             depth_at_delivery.end()));
}

}  // namespace
}  // namespace nf::agg
