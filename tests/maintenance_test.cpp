#include "agg/maintenance.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace nf::agg {
namespace {

using net::ChurnSchedule;
using net::Engine;
using net::Overlay;
using net::Topology;
using net::TrafficMeter;

struct Fixture {
  explicit Fixture(Topology topo)
      : overlay(std::move(topo)),
        meter(overlay.num_peers()),
        hierarchy(build_bfs_hierarchy(overlay, PeerId(0))) {}

  Overlay overlay;
  TrafficMeter meter;
  Hierarchy hierarchy;
};

HierarchyMaintenance::Config fast_config() {
  HierarchyMaintenance::Config c;
  c.timeout_rounds = 2;
  return c;
}

TEST(MaintenanceTest, StableNetworkStaysStable) {
  Rng rng(1);
  Fixture fx(net::random_tree(50, 3, rng));
  HierarchyMaintenance maint(fx.hierarchy, fast_config());
  Engine engine(fx.overlay, fx.meter);
  net::run_phase(engine, maint, 20, nullptr);
  EXPECT_TRUE(maint.stabilized(fx.overlay));
  const Hierarchy snap = maint.snapshot(fx.overlay);
  snap.validate(fx.overlay);
  // Without churn the tree should be exactly the original.
  for (std::uint32_t p = 0; p < 50; ++p) {
    EXPECT_EQ(snap.depth(PeerId(p)), fx.hierarchy.depth(PeerId(p)));
  }
}

TEST(MaintenanceTest, HeartbeatsFlowEveryRound) {
  Rng rng(2);
  Fixture fx(net::random_tree(10, 3, rng));
  HierarchyMaintenance maint(fx.hierarchy, fast_config());
  Engine engine(fx.overlay, fx.meter);
  net::run_phase(engine, maint, 5, nullptr);
  // Every peer heartbeats all neighbors every round: 2 * edges * rounds
  // messages (minus the last round still in flight).
  EXPECT_GT(fx.meter.num_messages(), 2u * 9u * 3u);
  EXPECT_GT(fx.meter.total(net::TrafficCategory::kControl), 0u);
}

TEST(MaintenanceTest, LeafFailureNeedsNoRepair) {
  Rng rng(3);
  Fixture fx(net::random_tree(30, 3, rng));
  HierarchyMaintenance maint(fx.hierarchy, fast_config());
  Engine engine(fx.overlay, fx.meter);
  // Find a leaf.
  PeerId leaf(0);
  for (std::uint32_t p = 0; p < 30; ++p) {
    if (fx.hierarchy.is_leaf(PeerId(p))) {
      leaf = PeerId(p);
      break;
    }
  }
  ChurnSchedule churn;
  churn.fail_at(3, leaf);
  net::run_phase(engine, maint, 30, nullptr, {}, &churn);
  EXPECT_TRUE(maint.stabilized(fx.overlay));
  const Hierarchy snap = maint.snapshot(fx.overlay);
  snap.validate(fx.overlay);
  EXPECT_EQ(snap.num_members(), 29u);
  EXPECT_FALSE(snap.is_member(leaf));
}

TEST(MaintenanceTest, InternalFailureRepairsWhenRouteExists) {
  // Ring: every peer has two routes to the root, so any single non-root
  // failure leaves the rest reattachable.
  Topology t(12);
  for (std::uint32_t i = 0; i < 12; ++i) {
    t.add_edge(PeerId(i), PeerId((i + 1) % 12));
  }
  Fixture fx(std::move(t));
  HierarchyMaintenance maint(fx.hierarchy, fast_config());
  Engine engine(fx.overlay, fx.meter);
  ChurnSchedule churn;
  churn.fail_at(3, PeerId(1));  // internal node on one side of the ring
  net::run_phase(engine, maint, 60, nullptr, {}, &churn);
  EXPECT_TRUE(maint.stabilized(fx.overlay));
  const Hierarchy snap = maint.snapshot(fx.overlay);
  snap.validate(fx.overlay);
  EXPECT_EQ(snap.num_members(), 11u);
  // Peer 2 lost its parent (1) and must have reattached via peer 3.
  EXPECT_TRUE(snap.is_member(PeerId(2)));
}

TEST(MaintenanceTest, JoiningPeerAttaches) {
  Topology t(5);
  for (std::uint32_t i = 0; i + 1 < 5; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  Overlay overlay(std::move(t));
  overlay.fail(PeerId(4));
  TrafficMeter meter(5);
  const Hierarchy initial = build_bfs_hierarchy(overlay, PeerId(0));
  EXPECT_EQ(initial.num_members(), 4u);
  HierarchyMaintenance maint(initial, fast_config());
  Engine engine(overlay, meter);
  ChurnSchedule churn;
  churn.join_at(3, PeerId(4));
  net::run_phase(engine, maint, 30, nullptr, {}, &churn);
  EXPECT_TRUE(maint.stabilized(overlay));
  const Hierarchy snap = maint.snapshot(overlay);
  snap.validate(overlay);
  EXPECT_TRUE(snap.is_member(PeerId(4)));
  EXPECT_EQ(snap.depth(PeerId(4)), 4u);
  EXPECT_EQ(snap.upstream(PeerId(4)), PeerId(3));
}

// True iff every alive peer is reachable from `from` over alive peers.
// (build_bfs_hierarchy throws on a disconnected overlay, so it cannot be
// the predicate.)
bool alive_connected(const Overlay& overlay, PeerId from) {
  std::vector<bool> seen(overlay.num_peers(), false);
  std::vector<PeerId> stack{from};
  seen[from.value()] = true;
  std::uint32_t count = 1;
  while (!stack.empty()) {
    const PeerId p = stack.back();
    stack.pop_back();
    for (PeerId q : overlay.alive_neighbors(p)) {
      if (!seen[q.value()]) {
        seen[q.value()] = true;
        ++count;
        stack.push_back(q);
      }
    }
  }
  return count == overlay.num_alive();
}

// Every round in [first_round, last_round], each alive peer but `protect`
// fails with probability `fail_prob` — unless its loss would disconnect the
// alive overlay. Repair only promises to converge while the overlay stays
// connected, so the schedule keeps it connected by construction.
ChurnSchedule connected_random_failures(const Overlay& overlay,
                                        std::uint64_t first_round,
                                        std::uint64_t last_round,
                                        double fail_prob, PeerId protect,
                                        Rng& rng) {
  Overlay alive = overlay;
  ChurnSchedule s;
  for (std::uint64_t r = first_round; r <= last_round; ++r) {
    for (std::uint32_t p = 0; p < alive.num_peers(); ++p) {
      const PeerId peer(p);
      if (peer == protect || !rng.chance(fail_prob)) continue;
      if (!alive.is_alive(peer)) continue;
      alive.fail(peer);
      if (alive_connected(alive, protect)) {
        s.fail_at(r, peer);
      } else {
        alive.revive(peer);
      }
    }
  }
  return s;
}

class MaintenanceChurnTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(MaintenanceChurnTest, RandomChurnConvergesOnWellConnectedGraphs) {
  const auto [seed, fail_prob] = GetParam();
  Rng rng(seed);
  Fixture fx(net::random_connected(60, 6.0, rng));
  HierarchyMaintenance maint(fx.hierarchy, fast_config());
  Engine engine(fx.overlay, fx.meter);
  const ChurnSchedule churn =
      connected_random_failures(fx.overlay, 2, 6, fail_prob, PeerId(0), rng);
  ASSERT_FALSE(churn.empty());
  net::run_phase(engine, maint, 100, nullptr, {}, &churn);

  ASSERT_TRUE(alive_connected(fx.overlay, PeerId(0)));
  EXPECT_TRUE(maint.stabilized(fx.overlay));
  const Hierarchy snap = maint.snapshot(fx.overlay);
  snap.validate(fx.overlay);
  EXPECT_EQ(snap.num_members(), fx.overlay.num_alive());
}

INSTANTIATE_TEST_SUITE_P(
    Churn, MaintenanceChurnTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(0.01, 0.05)));

TEST(MaintenanceTest, DepthCountersMatchSnapshotAfterRepair) {
  Topology t(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    t.add_edge(PeerId(i), PeerId((i + 1) % 8));
  }
  Fixture fx(std::move(t));
  HierarchyMaintenance maint(fx.hierarchy, fast_config());
  Engine engine(fx.overlay, fx.meter);
  ChurnSchedule churn;
  churn.fail_at(2, PeerId(7));
  net::run_phase(engine, maint, 50, nullptr, {}, &churn);
  ASSERT_TRUE(maint.stabilized(fx.overlay));
  const Hierarchy snap = maint.snapshot(fx.overlay);
  for (std::uint32_t p = 0; p < 8; ++p) {
    if (!snap.is_member(PeerId(p))) continue;
    EXPECT_EQ(maint.depth(PeerId(p)), snap.depth(PeerId(p)));
  }
}

}  // namespace
}  // namespace nf::agg
