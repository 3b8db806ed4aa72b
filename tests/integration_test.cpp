// End-to-end integration: netFilter running on top of the full substrate
// stack — overlay churn, hierarchy repair, stable-peer recruitment,
// multi-hierarchy failover, application scenarios.
#include <gtest/gtest.h>

#include "agg/maintenance.h"
#include "agg/multi_hierarchy.h"
#include "core/naive.h"
#include "core/netfilter.h"
#include "core/tuner.h"
#include "net/topology.h"
#include "workload/scenarios.h"
#include "workload/workload.h"

namespace nf {
namespace {

using agg::build_bfs_hierarchy;
using agg::Hierarchy;
using agg::HierarchyMaintenance;
using core::NetFilter;
using core::NetFilterConfig;
using net::ChurnSchedule;
using net::Engine;
using net::Overlay;
using net::TrafficMeter;

NetFilterConfig config(std::uint32_t g, std::uint32_t f) {
  NetFilterConfig c;
  c.num_groups = g;
  c.num_filters = f;
  return c;
}

TEST(IntegrationTest, RepairThenRunStaysExact) {
  // A peer dies; the maintenance protocol repairs the hierarchy; netFilter
  // runs on the repaired snapshot and must still be exact (the dead peer's
  // items are gone from the system, so the oracle shrinks accordingly).
  Rng rng(1);
  Overlay overlay(net::random_connected(60, 5.0, rng));
  TrafficMeter meter(60);
  const Hierarchy initial = build_bfs_hierarchy(overlay, PeerId(0));

  // Pick a victim whose removal keeps the alive overlay connected (a cut
  // vertex would legitimately strand peers, which is not what this test is
  // about).
  const auto is_cut_vertex = [&](PeerId v) {
    overlay.fail(v);
    std::vector<bool> seen(60, false);
    std::vector<PeerId> stack{PeerId(0)};
    seen[0] = true;
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
    overlay.revive(v);
    return count != overlay.num_alive() - 1;
  };
  PeerId victim(13);
  while (is_cut_vertex(victim)) victim = PeerId(victim.value() + 1);

  HierarchyMaintenance::Config mc;
  mc.timeout_rounds = 2;
  HierarchyMaintenance maint(initial, mc);
  Engine engine(overlay, meter);
  ChurnSchedule churn;
  churn.fail_at(2, victim);
  net::run_phase(engine, maint, 60, nullptr, {}, &churn);
  ASSERT_TRUE(maint.stabilized(overlay));
  const Hierarchy repaired = maint.snapshot(overlay);
  repaired.validate(overlay);

  wl::WorkloadConfig wc;
  wc.num_peers = 60;
  wc.num_items = 5000;
  wc.seed = 2;
  const wl::Workload workload = wl::Workload::generate(wc);

  // Oracle over alive peers only.
  LocalItems truth;
  for (std::uint32_t p = 0; p < 60; ++p) {
    if (overlay.is_alive(PeerId(p))) {
      truth.merge_add(workload.local_items(PeerId(p)));
    }
  }
  const Value t = static_cast<Value>(truth.total() / 100);
  truth.retain([&](ItemId, Value v) { return v >= t; });

  const NetFilter nf(config(60, 3));
  const auto res = nf.run(workload, repaired, overlay, meter, t);
  EXPECT_EQ(res.frequent, truth);
}

TEST(IntegrationTest, MultiHierarchyFailoverAfterRootDeath) {
  Rng rng(3);
  Overlay overlay(net::random_connected(50, 5.0, rng));
  TrafficMeter meter(50);
  const agg::MultiHierarchy mh =
      agg::MultiHierarchy::build(overlay, {PeerId(0), PeerId(25)});

  wl::WorkloadConfig wc;
  wc.num_peers = 50;
  wc.num_items = 3000;
  wc.seed = 4;
  const wl::Workload workload = wl::Workload::generate(wc);
  const Value t = workload.threshold_for(0.01);

  overlay.fail(PeerId(0));  // primary root dies
  const Hierarchy& fallback = mh.surviving(overlay);
  EXPECT_EQ(fallback.root(), PeerId(25));
  // Rebuild over alive peers (the dead root is gone from the replica too).
  const Hierarchy usable = build_bfs_hierarchy(overlay, fallback.root());

  LocalItems truth;
  for (std::uint32_t p = 1; p < 50; ++p) {
    truth.merge_add(workload.local_items(PeerId(p)));
  }
  truth.retain([&](ItemId, Value v) { return v >= t; });

  const NetFilter nf(config(50, 3));
  const auto res = nf.run(workload, usable, overlay, meter, t);
  EXPECT_EQ(res.frequent, truth);
}

TEST(IntegrationTest, StablePeerRecruitmentStaysExact) {
  // Only 40% of peers participate; the rest host-report. The result must
  // still be exact over the whole system.
  Rng rng(5);
  Overlay overlay(net::random_connected(100, 5.0, rng));
  TrafficMeter meter(100);
  std::vector<double> uptime(100);
  for (auto& u : uptime) u = rng.uniform();
  const auto participant = agg::select_stable_peers(uptime, 0.4, PeerId(0));
  const Hierarchy h = build_bfs_hierarchy(overlay, PeerId(0), participant);
  h.validate(overlay);

  wl::WorkloadConfig wc;
  wc.num_peers = 100;
  wc.num_items = 8000;
  wc.seed = 6;
  const wl::Workload workload = wl::Workload::generate(wc);
  const Value t = workload.threshold_for(0.01);

  const NetFilter nf(config(80, 3));
  const auto res = nf.run(workload, h, overlay, meter, t);
  EXPECT_EQ(res.frequent, workload.frequent_items(t));
  EXPECT_GT(meter.total(net::TrafficCategory::kHostReport), 0u);
  EXPECT_GT(res.stats.host_report_cost, 0.0);
}

TEST(IntegrationTest, NetFilterAndNaiveAgreeEverywhere) {
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    Rng rng(seed);
    Overlay overlay(net::random_tree(70, 3, rng));
    TrafficMeter meter(70);
    const Hierarchy h = build_bfs_hierarchy(overlay, PeerId(0));
    wl::WorkloadConfig wc;
    wc.num_peers = 70;
    wc.num_items = 4000;
    wc.seed = seed;
    const wl::Workload workload = wl::Workload::generate(wc);
    const Value t = workload.threshold_for(0.02);

    const NetFilter nf(config(64, 2));
    const auto fast = nf.run(workload, h, overlay, meter, t);
    const core::NaiveCollector naive{WireSizes{}};
    const auto slow = naive.run(workload, h, overlay, meter, t);
    EXPECT_EQ(fast.frequent, slow.frequent);
  }
}

TEST(IntegrationTest, DdosScenarioFindsExactlyTheVictims) {
  const wl::ScenarioOutput scenario = wl::ddos_flows(120, 20000, 300, 4, 7);
  Rng rng(8);
  Overlay overlay(net::random_tree(120, 3, rng));
  TrafficMeter meter(120);
  const Hierarchy h = build_bfs_hierarchy(overlay, PeerId(0));

  // Tune automatically, then run.
  const core::TunedSetting ts =
      core::tune(scenario.workload, h, 0.004, core::TunerConfig{}, &meter);
  const NetFilter nf(ts.to_config(NetFilterConfig{}));
  const auto res =
      nf.run(scenario.workload, h, overlay, meter, ts.threshold);
  EXPECT_EQ(res.frequent,
            scenario.workload.frequent_items(ts.threshold));
  for (ItemId victim : scenario.planted) {
    EXPECT_TRUE(res.frequent.contains(victim))
        << scenario.catalog.name_of(victim);
  }
}

TEST(IntegrationTest, ChurnBetweenPhasesKeepsVerificationRunnable) {
  // A leaf dies after candidate filtering; verification runs on the
  // repaired hierarchy. Candidate filtering aggregates included the dead
  // peer's mass, but verification recomputes values over surviving peers —
  // the reported values must be exact over the survivors, with no crash.
  Rng rng(9);
  Overlay overlay(net::random_connected(40, 5.0, rng));
  TrafficMeter meter(40);
  const Hierarchy h = build_bfs_hierarchy(overlay, PeerId(0));
  wl::WorkloadConfig wc;
  wc.num_peers = 40;
  wc.num_items = 2000;
  wc.seed = 10;
  const wl::Workload workload = wl::Workload::generate(wc);
  const Value t = workload.threshold_for(0.02);

  const NetFilter nf(config(40, 2));
  core::NetFilterStats stats;
  const auto heavy = nf.filter_candidates(workload, h, overlay, meter, t,
                                          &stats);

  // Kill a leaf, repair, verify on the new snapshot.
  PeerId victim(0);
  for (std::uint32_t p = 1; p < 40; ++p) {
    if (h.is_leaf(PeerId(p))) {
      victim = PeerId(p);
      break;
    }
  }
  overlay.fail(victim);
  const Hierarchy repaired = build_bfs_hierarchy(overlay, PeerId(0));
  const auto res = nf.verify_candidates(workload, repaired, overlay, meter,
                                        t, heavy, stats);

  // Every reported item's value equals the survivors' total for it.
  for (const auto& [id, v] : res.frequent) {
    Value truth = 0;
    for (std::uint32_t p = 0; p < 40; ++p) {
      if (overlay.is_alive(PeerId(p))) {
        truth += workload.local_items(PeerId(p)).value_of(id);
      }
    }
    EXPECT_EQ(v, truth);
    EXPECT_GE(v, t);
  }
}

}  // namespace
}  // namespace nf
