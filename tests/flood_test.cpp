#include "net/flood.h"

#include <gtest/gtest.h>

#include <span>
#include <string>

#include "net/session.h"
#include "net/topology.h"

namespace nf::net {
namespace {

using Span = std::span<const std::uint8_t>;

// A one-byte payload; most cases only count reach and bytes.
const Bytes kByte{1};

Overlay make_overlay(std::uint32_t n, std::uint64_t seed) {
  Rng rng(seed);
  return Overlay(random_connected(n, 4.0, rng));
}

TEST(FloodTest, ReachesEveryAlivePeerExactlyOnce) {
  Overlay overlay = make_overlay(100, 1);
  TrafficMeter meter(100);
  std::vector<int> deliveries(100, 0);
  const std::string payload = "hello";
  FlatFloodPhase flood(PeerId(7), Bytes(payload.begin(), payload.end()), 8,
                       TrafficCategory::kDissemination, 64,
                       [&](PhaseContext& ctx, Span bytes) {
                         // The ttl framing is stripped before delivery.
                         EXPECT_EQ(std::string(bytes.begin(), bytes.end()),
                                   payload);
                         ++deliveries[ctx.self().value()];
                       });
  Engine engine(overlay, meter);
  run_phase(engine, flood, 200, nullptr);
  EXPECT_EQ(flood.num_reached(), 100u);
  for (int d : deliveries) EXPECT_EQ(d, 1);
}

TEST(FloodTest, DuplicatesAreCountedButSuppressed) {
  Overlay overlay = make_overlay(50, 2);
  TrafficMeter meter(50);
  FlatFloodPhase flood(PeerId(0), kByte, 4, TrafficCategory::kDissemination,
                       64, [](PhaseContext&, Span) {});
  Engine engine(overlay, meter);
  run_phase(engine, flood, 200, nullptr);
  EXPECT_EQ(flood.num_reached(), 50u);
  // A flood on a graph with cycles necessarily sees duplicates.
  EXPECT_GT(flood.num_copies(), 49u);
}

TEST(FloodTest, TtlLimitsPropagation) {
  // Line topology: TTL 3 reaches exactly peers 0..3.
  Topology t(10);
  for (std::uint32_t i = 0; i + 1 < 10; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  Overlay overlay(std::move(t));
  TrafficMeter meter(10);
  FlatFloodPhase flood(PeerId(0), kByte, 4, TrafficCategory::kDissemination,
                       3, [](PhaseContext&, Span) {});
  Engine engine(overlay, meter);
  run_phase(engine, flood, 100, nullptr);
  EXPECT_EQ(flood.num_reached(), 4u);
  EXPECT_TRUE(flood.reached(PeerId(3)));
  EXPECT_FALSE(flood.reached(PeerId(4)));
}

TEST(FloodTest, DeadPeersBlockButDoNotCrash) {
  Topology t(5);
  for (std::uint32_t i = 0; i + 1 < 5; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  Overlay overlay(std::move(t));
  overlay.fail(PeerId(2));
  TrafficMeter meter(5);
  FlatFloodPhase flood(PeerId(0), kByte, 4, TrafficCategory::kDissemination,
                       10, [](PhaseContext&, Span) {});
  Engine engine(overlay, meter);
  run_phase(engine, flood, 100, nullptr);
  EXPECT_EQ(flood.num_reached(), 2u);  // 0 and 1; 2 is dead, 3-4 unreachable
}

TEST(FloodTest, BytesChargedPerForwardedCopy) {
  Topology t(3);
  t.add_edge(PeerId(0), PeerId(1));
  t.add_edge(PeerId(1), PeerId(2));
  Overlay overlay(std::move(t));
  TrafficMeter meter(3);
  FlatFloodPhase flood(PeerId(0), kByte, 16, TrafficCategory::kDissemination,
                       10, [](PhaseContext&, Span) {});
  Engine engine(overlay, meter);
  run_phase(engine, flood, 100, nullptr);
  // 0 -> 1, then 1 -> 2 (not back to 0): two copies of 16 bytes.
  EXPECT_EQ(meter.total(TrafficCategory::kDissemination), 32u);
}

TEST(FloodTest, FrameWithTtlAtOrAboveTheBoundIsRejected) {
  // A frame carrying ttl = 2^32 once passed a `ttl > 0` check and was
  // narrowed to 32 bits, forwarding 0u - 1 hops: one corrupt copy would
  // re-flood without bound. The originator of a ttl-64 flood sends 63.
  const auto frame = [](std::uint64_t ttl) {
    Bytes out;
    put_varint(out, ttl);
    out.push_back(0xAB);
    return out;
  };
  EXPECT_THROW((void)decode_flood_frame(frame(1ull << 32), 64),
               ProtocolError);
  EXPECT_THROW((void)decode_flood_frame(frame(1ull << 32), 0xFFFF'FFFFu),
               ProtocolError);
  EXPECT_THROW((void)decode_flood_frame(frame(64), 64), ProtocolError);
  const Bytes ok = frame(63);
  const FloodFrame f = decode_flood_frame(ok, 64);
  EXPECT_EQ(f.ttl, 63u);
  ASSERT_EQ(f.body.size(), 1u);
  EXPECT_EQ(f.body[0], 0xAB);
  EXPECT_THROW((void)decode_flood_frame(Bytes{}, 64), ProtocolError);
  EXPECT_THROW((void)decode_flood_frame(Bytes{0x80}, 64), ProtocolError);
}

TEST(FloodTest, InvalidTtlThrows) {
  EXPECT_THROW(FlatFloodPhase(PeerId(0), kByte, 4,
                              TrafficCategory::kDissemination, 0,
                              [](PhaseContext&, Span) {}),
               InvalidArgument);
}

}  // namespace
}  // namespace nf::net
