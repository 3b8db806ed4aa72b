#include "net/engine.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "net/codec.h"
#include "net/session.h"

namespace nf::net {
namespace {

Overlay make_line(std::uint32_t n) {
  Topology t(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  return Overlay(std::move(t));
}

/// Relays a token from peer 0 down the line, recording arrival rounds.
class RelayProtocol final : public FlatPhase {
 public:
  explicit RelayProtocol(std::uint32_t n) : arrival_round_(n, -1) {}

  void on_round(PhaseContext& ctx) override {
    if (ctx.self() == PeerId(0) && !started_) {
      started_ = true;
      arrival_round_[0] = static_cast<std::int64_t>(ctx.round());
      send_hop(ctx, 1);
    }
  }

  [[nodiscard]] bool done() const override { return done_; }

  std::vector<std::int64_t> arrival_round_;
  std::vector<PeerId> received_from_;
  bool started_ = false;
  bool done_ = false;

 protected:
  void on_flat(PhaseContext& ctx, std::span<const std::uint8_t> bytes,
               PeerId from) override {
    const std::uint32_t self = ctx.self().value();
    arrival_round_[self] = static_cast<std::int64_t>(ctx.round());
    received_from_.push_back(from);
    if (self + 1 < arrival_round_.size()) {
      std::size_t offset = 0;
      send_hop(ctx, get_varint(bytes, offset) + 1);
    } else {
      done_ = true;
    }
  }

 private:
  /// Sends the hop count on to the next peer of the line.
  static void send_hop(PhaseContext& ctx, std::uint64_t hop) {
    PayloadWriter w = ctx.flat_payload();
    w.put_varint(hop);
    ctx.send_flat(PeerId(ctx.self().value() + 1), TrafficCategory::kControl,
                  4, w.finish());
  }
};

std::uint64_t run(Engine& engine, Phase& phase, std::uint64_t max_rounds,
                  const ChurnSchedule* churn = nullptr) {
  return run_phase(engine, phase, max_rounds, nullptr, {}, churn);
}

TEST(EngineTest, MessagesTakeOneRoundPerHop) {
  Overlay overlay = make_line(5);
  TrafficMeter meter(5);
  Engine engine(overlay, meter);
  RelayProtocol relay(5);
  run(engine, relay, 100);
  EXPECT_TRUE(relay.done_);
  for (std::uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(relay.arrival_round_[p], p) << "peer " << p;
  }
}

TEST(EngineTest, ChargesSenderOnSend) {
  Overlay overlay = make_line(3);
  TrafficMeter meter(3);
  Engine engine(overlay, meter);
  RelayProtocol relay(3);
  run(engine, relay, 100);
  EXPECT_EQ(meter.peer_total(PeerId(0)), 4u);
  EXPECT_EQ(meter.peer_total(PeerId(1)), 4u);
  EXPECT_EQ(meter.peer_total(PeerId(2)), 0u);  // last peer never sends
  EXPECT_EQ(meter.num_messages(), 2u);
}

TEST(EngineTest, StopsWhenQuiescent) {
  Overlay overlay = make_line(4);
  TrafficMeter meter(4);
  Engine engine(overlay, meter);
  RelayProtocol relay(4);
  const std::uint64_t rounds = run(engine, relay, 1000);
  EXPECT_LE(rounds, 6u);  // 3 hops + bounded overhead, not 1000
}

TEST(EngineTest, DropsMessagesToDeadPeers) {
  Overlay overlay = make_line(3);
  TrafficMeter meter(3);
  Engine engine(overlay, meter);
  RelayProtocol relay(3);
  ChurnSchedule churn;
  churn.fail_at(1, PeerId(1));  // dies before the message arrives
  run(engine, relay, 10, &churn);
  EXPECT_FALSE(relay.done_);
  EXPECT_EQ(engine.dropped_messages(), 1u);
  EXPECT_EQ(relay.arrival_round_[1], -1);
}

TEST(EngineTest, ChurnJoinRevivesPeer) {
  Overlay overlay = make_line(3);
  overlay.fail(PeerId(2));
  TrafficMeter meter(3);
  Engine engine(overlay, meter);
  RelayProtocol relay(3);
  ChurnSchedule churn;
  churn.join_at(1, PeerId(2));
  run(engine, relay, 10, &churn);
  EXPECT_TRUE(relay.done_);
}

TEST(EngineTest, DeadPeersGetNoOnRound) {
  Overlay overlay = make_line(2);
  overlay.fail(PeerId(0));
  TrafficMeter meter(2);
  Engine engine(overlay, meter);
  RelayProtocol relay(2);
  run(engine, relay, 5);
  EXPECT_FALSE(relay.started_);
}

TEST(EngineTest, RespectsMaxRounds) {
  /// A phase that is never done.
  class Forever final : public Phase {
   public:
    void on_round(PhaseContext&) override { ++ticks; }
    void on_message(PhaseContext&, Envelope&&) override {}
    [[nodiscard]] bool done() const override { return false; }
    int ticks = 0;
  };
  Overlay overlay = make_line(1);
  TrafficMeter meter(1);
  Engine engine(overlay, meter);
  Forever forever;
  const std::uint64_t rounds = run(engine, forever, 7);
  EXPECT_EQ(rounds, 7u);
  EXPECT_EQ(forever.ticks, 7);
}

TEST(EngineTest, RoundCounterAdvancesAcrossRuns) {
  Overlay overlay = make_line(2);
  TrafficMeter meter(2);
  Engine engine(overlay, meter);
  RelayProtocol r1(2);
  run(engine, r1, 10);
  const std::uint64_t after_first = engine.round();
  EXPECT_GT(after_first, 0u);
  RelayProtocol r2(2);
  run(engine, r2, 10);
  EXPECT_GT(engine.round(), after_first);
}

TEST(EngineTest, MismatchedMeterThrows) {
  Overlay overlay = make_line(3);
  TrafficMeter meter(2);
  EXPECT_THROW(Engine(overlay, meter), InvalidArgument);
}

TEST(EngineTest, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Overlay overlay = make_line(6);
    TrafficMeter meter(6);
    Engine engine(overlay, meter);
    RelayProtocol relay(6);
    run(engine, relay, 100);
    return relay.arrival_round_;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace nf::net
