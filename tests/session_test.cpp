// Unit tests for the session runtime (net/session.h): envelope routing
// between multiplexed sessions, per-peer phase opening, buffered replay
// and per-session traffic attribution.
#include "net/session.h"

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "net/codec.h"
#include "net/engine.h"
#include "net/topology.h"

namespace nf::net {
namespace {

constexpr std::uint32_t kPeers = 8;

Overlay line_overlay() {
  // 0 - 1 - 2 - ... - 7.
  Topology topo(kPeers);
  for (std::uint32_t p = 0; p + 1 < kPeers; ++p) {
    topo.add_edge(PeerId(p), PeerId(p + 1));
  }
  return Overlay(std::move(topo));
}

/// Sends `token` to `to` as a varint payload charged `bytes`.
void send_token(PhaseContext& ctx, PeerId to, std::uint64_t bytes,
                std::uint64_t token) {
  PayloadWriter w = ctx.flat_payload();
  w.put_varint(token);
  ctx.send_flat(to, TrafficCategory::kControl, bytes, w.finish());
}

std::uint32_t read_token(std::span<const std::uint8_t> bytes) {
  std::size_t offset = 0;
  return static_cast<std::uint32_t>(get_varint(bytes, offset));
}

/// Relays one uint32 token from peer 0 to the last peer, one hop per round.
class RelayPhase final : public Phase {
 public:
  explicit RelayPhase(std::uint32_t token) : token_(token) {}

  void on_start(PhaseContext& ctx) override {
    if (ctx.self() != PeerId(0)) return;
    send_token(ctx, PeerId(1), 8, token_);
  }

  [[nodiscard]] bool done() const override {
    return arrived_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t received() const { return received_; }

 protected:
  void on_flat(PhaseContext& ctx, std::span<const std::uint8_t> bytes,
               PeerId /*from*/) override {
    const std::uint32_t token = read_token(bytes);
    if (ctx.self().value() + 1 < kPeers) {
      send_token(ctx, PeerId(ctx.self().value() + 1), 8, token);
      return;
    }
    received_ = token;
    arrived_.store(true, std::memory_order_relaxed);
  }

 private:
  std::uint32_t token_;
  std::uint32_t received_ = 0;
  std::atomic<bool> arrived_{false};
};

TEST(SessionMuxTest, RoutesEnvelopesToTheirOwnSession) {
  Overlay overlay = line_overlay();
  TrafficMeter meter(kPeers);
  SessionMux mux;
  RelayPhase a(111);
  RelayPhase b(222);
  PhaseOptions opts;
  opts.start = PhaseStart::kAllPeers;
  const SessionId sa = mux.add_session("a");
  (void)mux.add_phase(sa, a, opts);
  const SessionId sb = mux.add_session("b");
  (void)mux.add_phase(sb, b, opts);

  Engine engine(overlay, meter);
  (void)engine.run(mux, 100);

  EXPECT_TRUE(mux.all_done());
  EXPECT_TRUE(mux.session_done(sa));
  EXPECT_TRUE(mux.session_done(sb));
  // Same phase type, same wire shape — only the session tag kept the two
  // token streams apart.
  EXPECT_EQ(a.received(), 111u);
  EXPECT_EQ(b.received(), 222u);
}

TEST(SessionMuxTest, RunPhaseOpensALonePhaseAtEveryPeer) {
  // Default options say kOnDemand, which would leave a lone phase closed
  // forever; run_phase opens it at every peer on the first tick.
  Overlay overlay = line_overlay();
  TrafficMeter meter(kPeers);
  RelayPhase relay(42);
  Engine engine(overlay, meter);
  const std::uint64_t rounds = run_phase(engine, relay, 100, nullptr);
  EXPECT_TRUE(relay.done());
  EXPECT_EQ(relay.received(), 42u);
  EXPECT_EQ(meter.total(TrafficCategory::kControl), 7u * 8);
  EXPECT_LT(rounds, 100u);
}

TEST(SessionMuxTest, PerSessionTrafficTalliesSplitTheMeter) {
  Overlay overlay = line_overlay();
  TrafficMeter meter(kPeers);
  SessionMux mux;
  RelayPhase a(1);
  RelayPhase b(2);
  PhaseOptions opts;
  opts.start = PhaseStart::kAllPeers;
  const SessionId sa = mux.add_session();  // unnamed -> "s0"
  (void)mux.add_phase(sa, a, opts);
  const SessionId sb = mux.add_session("named");
  (void)mux.add_phase(sb, b, opts);

  Engine engine(overlay, meter);
  (void)engine.run(mux, 100);

  const auto traffic = mux.traffic();
  ASSERT_EQ(traffic.size(), 2u);
  EXPECT_EQ(traffic[0].name, "s0");
  EXPECT_EQ(traffic[1].name, "named");
  const auto control = static_cast<std::size_t>(TrafficCategory::kControl);
  // 7 hops of 8 bytes each, per session; together they account for the
  // meter's total exactly.
  EXPECT_EQ(traffic[0].bytes[control], 56u);
  EXPECT_EQ(traffic[0].msgs[control], 7u);
  EXPECT_EQ(traffic[0].total_bytes(), traffic[1].total_bytes());
  EXPECT_EQ(traffic[0].total_bytes() + traffic[1].total_bytes(),
            meter.total());
}

/// Sends a token from peer 0 to peer 1 as soon as the phase opens at 0;
/// records the round each delivery fires at.
class SinkPhase final : public Phase {
 public:
  void on_start(PhaseContext& ctx) override {
    ++opens_;
    if (ctx.self() != PeerId(0)) return;
    send_token(ctx, PeerId(1), 4, 7);
  }

  [[nodiscard]] bool done() const override {
    return done_.load(std::memory_order_relaxed);
  }
  void finish() { done_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] int opens() const { return opens_; }
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::uint64_t>>&
  seen() const {
    return seen_;
  }

 protected:
  void on_flat(PhaseContext& ctx, std::span<const std::uint8_t> bytes,
               PeerId /*from*/) override {
    seen_.emplace_back(read_token(bytes), ctx.round());
  }

 private:
  int opens_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> seen_;
  std::atomic<bool> done_{false};
};

/// Opens the sink at peer 0 immediately and at peer 1 only in round 3 —
/// after the sink's token has already arrived there.
class DriverPhase final : public Phase {
 public:
  DriverPhase(SinkPhase& sink, PhaseId sink_pid)
      : sink_(sink), sink_pid_(sink_pid) {}

  void on_start(PhaseContext& ctx) override {
    if (ctx.self() == PeerId(0)) ctx.open_phase(sink_pid_);
  }

  void on_round(PhaseContext& ctx) override {
    if (ctx.self() == PeerId(1) && ctx.round() == 3) {
      ctx.open_phase(sink_pid_);
      sink_.finish();
      done_.store(true, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] bool done() const override {
    return done_.load(std::memory_order_relaxed);
  }

 protected:
  void on_flat(PhaseContext& /*ctx*/, std::span<const std::uint8_t> /*bytes*/,
               PeerId /*from*/) override {}

 private:
  SinkPhase& sink_;
  PhaseId sink_pid_;
  std::atomic<bool> done_{false};
};

TEST(SessionMuxTest, BuffersEarlyArrivalsUntilThePhaseOpens) {
  Overlay overlay = line_overlay();
  TrafficMeter meter(kPeers);
  SessionMux mux;
  SinkPhase sink;
  DriverPhase driver(sink, /*sink_pid=*/1);

  const SessionId s = mux.add_session();
  PhaseOptions driver_opts;
  driver_opts.start = PhaseStart::kAllPeers;
  (void)mux.add_phase(s, driver, driver_opts);
  PhaseOptions sink_opts;
  sink_opts.open_on_message = false;
  const PhaseId sink_pid = mux.add_phase(s, sink, sink_opts);
  ASSERT_EQ(sink_pid, 1u);

  Engine engine(overlay, meter);
  (void)engine.run(mux, 100);

  EXPECT_TRUE(mux.all_done());
  // The sink opened exactly where the driver opened it, nowhere else:
  // peer 0 (round 0) and peer 1 (round 3). The token reached peer 1 in
  // round 1 but was held until the round-3 open replayed it.
  EXPECT_EQ(sink.opens(), 2);
  ASSERT_EQ(sink.seen().size(), 1u);
  EXPECT_EQ(sink.seen()[0].first, 7u);
  EXPECT_EQ(sink.seen()[0].second, 3u);
}

TEST(SessionMuxTest, OpenOnMessageDeliversImmediately) {
  // Same wiring, but the default open_on_message: the token's arrival at
  // peer 1 opens the sink right there in round 1.
  Overlay overlay = line_overlay();
  TrafficMeter meter(kPeers);
  SessionMux mux;
  SinkPhase sink;
  DriverPhase driver(sink, /*sink_pid=*/1);

  const SessionId s = mux.add_session();
  PhaseOptions driver_opts;
  driver_opts.start = PhaseStart::kAllPeers;
  (void)mux.add_phase(s, driver, driver_opts);
  PhaseOptions sink_opts;  // open_on_message = true
  (void)mux.add_phase(s, sink, sink_opts);

  Engine engine(overlay, meter);
  (void)engine.run(mux, 100);

  EXPECT_TRUE(mux.all_done());
  ASSERT_EQ(sink.seen().size(), 1u);
  EXPECT_EQ(sink.seen()[0].second, 1u);
}

TEST(SessionMuxTest, RejectsUnknownSessionIds) {
  SessionMux mux;
  (void)mux.add_session("only");
  EXPECT_THROW((void)mux.session_done(3), InvalidArgument);
  RelayPhase phase(0);
  EXPECT_THROW((void)mux.add_phase(7, phase, PhaseOptions{}),
               InvalidArgument);
}

}  // namespace
}  // namespace nf::net
