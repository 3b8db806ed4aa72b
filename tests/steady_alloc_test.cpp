// Zero-allocation steady state (ISSUE: million-peer hot path).
//
// The flat payload path exists so a warmed engine performs no heap
// allocation per round: slabs, outboxes, inboxes and protocol arenas all
// reach their high-water mark during a warm-up run and are reused
// afterwards. This test links the nf_alloc_hook operator-new override,
// warms an engine with one full flat convergecast run, flips
// begin_steady_state(), and runs a second (fresh) protocol instance on the
// same engine — asserting the round loop allocated exactly nothing.
//
// Each run goes through net::run_phase, the path every standalone
// hierarchy primitive takes. Phase instances are one-shot (SessionMux
// `opened` gating), so the steady-state run uses a fresh instance B while
// the *engine* stays warm; B's own arenas fill in on_run_start, which sits
// before the measured round loop by design.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "agg/flat_phases.h"
#include "agg/gossip.h"
#include "agg/hierarchy.h"
#include "agg/maintenance.h"
#include "common/alloc_hook.h"
#include "common/rng.h"
#include "net/engine.h"
#include "net/session.h"
#include "net/topology.h"
#include "obs/context.h"

namespace nf::agg {
namespace {

using net::Engine;
using net::Overlay;
using net::TrafficCategory;
using net::TrafficMeter;

constexpr std::uint32_t kPeers = 256;
constexpr std::uint32_t kWidth = 96;  // f*g group sums per message

FlatAggregateConvergecastPhase make_cast(const Hierarchy& hierarchy,
                                         obs::Context* obs = nullptr) {
  return FlatAggregateConvergecastPhase(
      hierarchy, TrafficCategory::kFiltering, kWidth,
      [](PeerId p, std::span<std::uint64_t> out) {
        for (std::uint32_t j = 0; j < kWidth; ++j) {
          out[j] = (p.value() + j) % 7;
        }
      },
      /*flat_bytes=*/0, obs);
}

void run_cast(Engine& engine, FlatAggregateConvergecastPhase& cast,
              obs::Context* obs = nullptr) {
  net::run_phase(engine, cast, 100, obs, {.open_on_message = false});
}

TEST(SteadyAllocTest, HookIsArmedAndCounting) {
  // Guard against a silently missing link line: a binary without the
  // override TU would report zero allocations for any run.
  ASSERT_TRUE(alloc_hook::armed());
  const std::uint64_t before = alloc_hook::count();
  std::vector<std::uint8_t> sink(1 << 16);
  ASSERT_NE(sink.data(), nullptr);
  EXPECT_GT(alloc_hook::count(), before);
}

TEST(SteadyAllocTest, WarmedFlatRunAllocatesNothing) {
  ASSERT_TRUE(alloc_hook::armed());
  Rng rng(11);
  Overlay overlay(net::random_tree(kPeers, 3, rng));
  TrafficMeter meter(overlay.num_peers());
  const Hierarchy hierarchy = build_bfs_hierarchy(overlay, PeerId(0));
  Engine engine(overlay, meter);

  // Warm-up: one full run grows every slab, outbox and inbox to its
  // high-water mark.
  FlatAggregateConvergecastPhase warm = make_cast(hierarchy);
  run_cast(engine, warm);
  ASSERT_TRUE(warm.complete());

  engine.begin_steady_state();
  FlatAggregateConvergecastPhase steady = make_cast(hierarchy);
  run_cast(engine, steady);
  ASSERT_TRUE(steady.complete());
  EXPECT_EQ(engine.steady_allocs(), 0u)
      << "flat hot path allocated on a warmed engine";
}

TEST(SteadyAllocTest, WarmedStarOfLeavesAllocatesNothing) {
  // Every member but the root is a leaf, so all contributions but one go
  // through the per-thread scratch row instead of a phase-owned row: the
  // scratch must outlive the warm-up phase object for this to stay at 0.
  ASSERT_TRUE(alloc_hook::armed());
  net::Topology star(kPeers);
  for (std::uint32_t p = 1; p < kPeers; ++p) {
    star.add_edge(PeerId(0), PeerId(p));
  }
  Overlay overlay(std::move(star));
  TrafficMeter meter(overlay.num_peers());
  const Hierarchy hierarchy = build_bfs_hierarchy(overlay, PeerId(0));
  Engine engine(overlay, meter);

  FlatAggregateConvergecastPhase warm = make_cast(hierarchy);
  run_cast(engine, warm);
  ASSERT_TRUE(warm.complete());
  ASSERT_EQ(warm.num_rows(), 1u);  // the root's alone

  engine.begin_steady_state();
  FlatAggregateConvergecastPhase steady = make_cast(hierarchy);
  run_cast(engine, steady);
  ASSERT_TRUE(steady.complete());
  EXPECT_EQ(engine.steady_allocs(), 0u)
      << "leaf scratch path allocated on a warmed engine";
}

TEST(SteadyAllocTest, WarmedHeartbeatRunAllocatesNothing) {
  // Hierarchy maintenance on a stable, loss-free overlay: every round each
  // peer heartbeats all its neighbors and nobody repairs anything. The
  // protocol instance carries on across both runs, as a deployment would.
  ASSERT_TRUE(alloc_hook::armed());
  Rng rng(13);
  Overlay overlay(net::random_connected(kPeers, 4.0, rng));
  TrafficMeter meter(overlay.num_peers());
  const Hierarchy hierarchy = build_bfs_hierarchy(overlay, PeerId(0));
  HierarchyMaintenance maint(hierarchy, HierarchyMaintenance::Config{});
  Engine engine(overlay, meter);

  net::run_phase(engine, maint, 10, nullptr);
  engine.begin_steady_state();
  net::run_phase(engine, maint, 10, nullptr);
  EXPECT_TRUE(maint.stabilized(overlay));
  EXPECT_EQ(engine.steady_allocs(), 0u)
      << "heartbeats allocated on a warmed engine";
}

TEST(SteadyAllocTest, WarmedPushSumRunAllocatesNothing) {
  // Push-sum gossip: one fixed-size share per peer per round. A fresh
  // instance runs on the warmed engine, as the convergecast tests do.
  ASSERT_TRUE(alloc_hook::armed());
  Rng rng(14);
  Overlay overlay(net::random_connected(kPeers, 4.0, rng));
  TrafficMeter meter(overlay.num_peers());
  Engine engine(overlay, meter);
  const auto make_gossip = [&] {
    PushSumGossip::Config cfg;
    cfg.rounds = 20;
    return PushSumGossip(
        std::vector<std::vector<double>>(kPeers, std::vector<double>(8, 1.0)),
        cfg);
  };

  PushSumGossip warm = make_gossip();
  net::run_phase(engine, warm, 100, nullptr);
  engine.begin_steady_state();
  PushSumGossip steady = make_gossip();
  net::run_phase(engine, steady, 100, nullptr);
  EXPECT_EQ(steady.rounds_done(), 21u);
  EXPECT_EQ(engine.steady_allocs(), 0u)
      << "push-sum shares allocated on a warmed engine";
}

TEST(SteadyAllocTest, WarmedLinkStatsChargePathAllocatesNothing) {
  // The telemetry plane's own contract: after the warm-up calls
  // (set_link_capacity / configure_levels / bind_series), charge() touches
  // only preallocated storage — including the Misra-Gries overflow path,
  // which this stream forces by feeding far more distinct links than the
  // summary's capacity.
  ASSERT_TRUE(alloc_hook::armed());
  obs::Context obs;
  obs::LinkStats& ls = obs.link_stats;
  std::vector<std::uint32_t> depths(kPeers);
  for (std::uint32_t p = 0; p < kPeers; ++p) {
    depths[p] = p == 0 ? 0 : 1 + p % 3;
  }
  ls.set_link_capacity(64);
  ls.configure_levels(depths, 4);
  ls.bind_series(obs.registry, obs.series);

  const std::uint64_t before = alloc_hook::count();
  for (std::uint32_t i = 0; i < 20000; ++i) {
    ls.charge(i % kPeers, (i * 7 + 1) % kPeers, i % 9, 64);
  }
  EXPECT_EQ(alloc_hook::count(), before)
      << "LinkStats::charge allocated on a warmed telemetry plane";
}

TEST(SteadyAllocTest, SteadyAllocsMirroredIntoObsCounter) {
  // With an obs context attached the per-round delta also feeds the
  // `engine/steady_allocs` counter. Obs itself allocates (tracer events,
  // metric names), so this test checks the mirror, not zero.
  Rng rng(12);
  Overlay overlay(net::random_tree(64, 3, rng));
  TrafficMeter meter(overlay.num_peers());
  const Hierarchy hierarchy = build_bfs_hierarchy(overlay, PeerId(0));
  Engine engine(overlay, meter);
  obs::Context obs;
  engine.set_obs(&obs);

  FlatAggregateConvergecastPhase warm = make_cast(hierarchy, &obs);
  run_cast(engine, warm, &obs);
  engine.begin_steady_state();
  FlatAggregateConvergecastPhase steady = make_cast(hierarchy, &obs);
  run_cast(engine, steady, &obs);
  ASSERT_TRUE(steady.complete());
  EXPECT_EQ(obs.registry.counter("engine/steady_allocs").value(),
            engine.steady_allocs());
}

}  // namespace
}  // namespace nf::agg
