#include "core/query_service.h"

#include <gtest/gtest.h>

#include "net/link_model.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace nf::core {
namespace {

using net::Overlay;
using net::TrafficMeter;

struct Rig {
  explicit Rig(std::uint64_t seed)
      : workload([&] {
          wl::WorkloadConfig cfg;
          cfg.num_peers = 80;
          cfg.num_items = 8000;
          cfg.seed = seed;
          return wl::Workload::generate(cfg);
        }()),
        overlay([&] {
          Rng rng(seed + 1);
          return Overlay(net::random_tree(80, 3, rng));
        }()),
        meter(80),
        hierarchy(agg::build_bfs_hierarchy(overlay, PeerId(0))) {}

  wl::Workload workload;
  Overlay overlay;
  TrafficMeter meter;
  agg::Hierarchy hierarchy;
};

NetFilterConfig config() {
  NetFilterConfig c;
  c.num_groups = 80;
  c.num_filters = 3;
  return c;
}

TEST(QueryServiceTest, EachRequesterGetsItsExactSet) {
  Rig rig(1);
  const QueryService svc(config());
  const std::vector<FrequentItemsRequest> reqs{
      {PeerId(5), 0.1}, {PeerId(17), 0.01}, {PeerId(40), 0.03}};
  QueryServiceStats stats;
  const auto responses = svc.serve(reqs, rig.workload, rig.hierarchy,
                                   rig.overlay, rig.meter, &stats);
  ASSERT_EQ(responses.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(responses[i].requester, reqs[i].requester);
    const Value t = rig.workload.threshold_for(reqs[i].theta);
    EXPECT_EQ(responses[i].threshold, t);
    EXPECT_EQ(responses[i].frequent, rig.workload.frequent_items(t))
        << "request " << i;
  }
}

TEST(QueryServiceTest, RunsNetFilterOnceAtMinTheta) {
  Rig rig(2);
  const QueryService svc(config());
  QueryServiceStats stats;
  (void)svc.serve({{PeerId(1), 0.05}, {PeerId(2), 0.01}, {PeerId(3), 0.2}},
                  rig.workload, rig.hierarchy, rig.overlay, rig.meter,
                  &stats);
  EXPECT_EQ(stats.netfilter_runs, 1u);
  EXPECT_EQ(stats.min_threshold, rig.workload.threshold_for(0.01));
}

TEST(QueryServiceTest, SupersetRelationHolds) {
  Rig rig(3);
  const QueryService svc(config());
  const auto responses =
      svc.serve({{PeerId(1), 0.005}, {PeerId(2), 0.05}}, rig.workload,
                rig.hierarchy, rig.overlay, rig.meter);
  ASSERT_EQ(responses.size(), 2u);
  // The low-theta set contains the high-theta set.
  for (const auto& [id, v] : responses[1].frequent) {
    EXPECT_TRUE(responses[0].frequent.contains(id));
  }
  EXPECT_GE(responses[0].frequent.size(), responses[1].frequent.size());
}

TEST(QueryServiceTest, SharingBeatsSeparateRuns) {
  // Total bytes of the shared run must be below the sum of three separate
  // netFilter runs at each requested theta.
  Rig shared_rig(4);
  const QueryService svc(config());
  (void)svc.serve({{PeerId(1), 0.01}, {PeerId(2), 0.02}, {PeerId(3), 0.05}},
                  shared_rig.workload, shared_rig.hierarchy,
                  shared_rig.overlay, shared_rig.meter);
  const std::uint64_t shared_bytes = shared_rig.meter.total();

  Rig separate_rig(4);
  const NetFilter nf(config());
  for (double theta : {0.01, 0.02, 0.05}) {
    (void)nf.run(separate_rig.workload, separate_rig.hierarchy,
                 separate_rig.overlay, separate_rig.meter,
                 separate_rig.workload.threshold_for(theta));
  }
  EXPECT_LT(shared_bytes, separate_rig.meter.total());
}

TEST(QueryServiceTest, ChargesRequestAndReplyTraffic) {
  Rig rig(5);
  const QueryService svc(config());
  QueryServiceStats stats;
  (void)svc.serve({{PeerId(60), 0.01}}, rig.workload, rig.hierarchy,
                  rig.overlay, rig.meter, &stats);
  EXPECT_GT(stats.request_cost_per_peer, 0.0);
  EXPECT_GT(stats.reply_cost_per_peer, 0.0);
}

// Every request climbs depth(requester) hops at one aggregate field each;
// every answer descends the same hops at one item-value pair per entry.
// Nothing else is control traffic on a loss-free network.
TEST(QueryServiceTest, ChargesExactlyDepthHopsEachWay) {
  Rig rig(7);
  const NetFilterConfig cfg = config();
  const QueryService svc(cfg);
  // The root asks too (depth 0).
  const std::vector<FrequentItemsRequest> reqs{{PeerId(60), 0.01},
                                               {PeerId(33), 0.05},
                                               {PeerId(0), 0.02},
                                               {PeerId(17), 0.1}};
  QueryServiceStats stats;
  const auto responses = svc.serve(reqs, rig.workload, rig.hierarchy,
                                   rig.overlay, rig.meter, &stats);
  ASSERT_EQ(responses.size(), reqs.size());
  std::uint64_t request_bytes = 0;
  std::uint64_t reply_bytes = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(responses[i].requester, reqs[i].requester);
    ASSERT_EQ(responses[i].threshold,
              rig.workload.threshold_for(reqs[i].theta));
    const std::uint64_t depth = rig.hierarchy.depth(reqs[i].requester);
    request_bytes += depth * cfg.wire.aggregate_bytes;
    reply_bytes +=
        depth * responses[i].frequent.size() * cfg.wire.item_value_pair();
  }
  EXPECT_GT(reply_bytes, 0u);
  EXPECT_EQ(rig.meter.total(net::TrafficCategory::kControl),
            request_bytes + reply_bytes);
  const double n = rig.overlay.num_peers();
  EXPECT_DOUBLE_EQ(stats.request_cost_per_peer,
                   static_cast<double>(request_bytes) / n);
  EXPECT_DOUBLE_EQ(stats.reply_cost_per_peer,
                   static_cast<double>(reply_bytes) / n);
}

// A peer may ask more than once; each of its requests gets its own answer
// in its own slot of the request order.
TEST(QueryServiceTest, RepeatedRequesterKeepsRequestOrder) {
  Rig rig(8);
  const QueryService svc(config());
  const std::vector<FrequentItemsRequest> reqs{
      {PeerId(60), 0.01}, {PeerId(33), 0.05}, {PeerId(60), 0.1}};
  const auto responses = svc.serve(reqs, rig.workload, rig.hierarchy,
                                   rig.overlay, rig.meter);
  ASSERT_EQ(responses.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(responses[i].requester, reqs[i].requester) << "request " << i;
    const Value t = rig.workload.threshold_for(reqs[i].theta);
    EXPECT_EQ(responses[i].threshold, t) << "request " << i;
    EXPECT_EQ(responses[i].frequent, rig.workload.frequent_items(t))
        << "request " << i;
  }
}

TEST(QueryServiceTest, RejectsBadInput) {
  Rig rig(6);
  const QueryService svc(config());
  EXPECT_THROW((void)svc.serve({}, rig.workload, rig.hierarchy, rig.overlay,
                               rig.meter),
               InvalidArgument);
  EXPECT_THROW((void)svc.serve({{PeerId(1), 0.0}}, rig.workload,
                               rig.hierarchy, rig.overlay, rig.meter),
               InvalidArgument);
}

// ---- serve_concurrent: multiplexed sessions over one engine run ----

TEST(QueryServiceTest, ConcurrentSessionsEachGetExactAnswers) {
  Rig rig(7);
  const QueryService svc(config());
  const std::vector<ConcurrentRequest> reqs{
      {PeerId(5), 0.1, 0, 0, 0},
      {PeerId(17), 0.01, 0, 0, 0},
      {PeerId(40), 0.03, 4, 120, 99},  // its own filter bank
      {PeerId(2), 0.05, 0, 0, 0},
  };
  ConcurrentQueryStats stats;
  const auto responses = svc.serve_concurrent(reqs, rig.workload,
                                              rig.hierarchy, rig.overlay,
                                              rig.meter, &stats);
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "request " << i);
    EXPECT_EQ(responses[i].requester, reqs[i].requester);
    EXPECT_EQ(responses[i].frequent,
              rig.workload.frequent_items(responses[i].threshold));
  }

  // One engine run served all four sessions.
  EXPECT_GT(stats.rounds_total, 0u);
  ASSERT_EQ(stats.sessions.size(), 4u);
  for (std::size_t i = 0; i < stats.sessions.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "session " << i);
    const ConcurrentSessionStats& ss = stats.sessions[i];
    EXPECT_EQ(ss.name, "q" + std::to_string(i));
    // Per-session completion round (the gating delivery the lineage
    // critical path reports), bounded by the shared run length.
    EXPECT_GT(ss.netfilter.rounds_total, 0u);
    EXPECT_LE(ss.netfilter.rounds_total, stats.rounds_total);
    EXPECT_EQ(ss.threshold, responses[i].threshold);
    // Per-session traffic attribution: every phase of every session moved
    // its own bytes (request/announce/reply ride kControl).
    using net::TrafficCategory;
    const auto bytes = [&](TrafficCategory c) {
      return ss.traffic.bytes[static_cast<std::size_t>(c)];
    };
    EXPECT_GT(bytes(TrafficCategory::kFiltering), 0u);
    EXPECT_GT(bytes(TrafficCategory::kDissemination), 0u);
    EXPECT_GT(bytes(TrafficCategory::kAggregation), 0u);
    EXPECT_GT(bytes(TrafficCategory::kControl), 0u);
    EXPECT_GT(ss.netfilter.total_cost(), 0.0);
  }
  // The tallies attribute real traffic: the sum over sessions plus the
  // shared host report accounts for every metered byte.
  std::uint64_t attributed = 0;
  for (const auto& ss : stats.sessions) attributed += ss.traffic.total_bytes();
  EXPECT_EQ(attributed + rig.meter.total(net::TrafficCategory::kHostReport),
            rig.meter.total());
}

TEST(QueryServiceTest, ConcurrentMatchesBackToBackRuns) {
  Rig rig(8);
  const QueryService svc(config());
  const std::vector<ConcurrentRequest> reqs{
      {PeerId(10), 0.02, 0, 0, 0}, {PeerId(33), 0.04, 2, 50, 13}};
  const auto responses = svc.serve_concurrent(reqs, rig.workload,
                                              rig.hierarchy, rig.overlay,
                                              rig.meter);
  ASSERT_EQ(responses.size(), 2u);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    NetFilterConfig cfg = config();
    if (reqs[i].num_filters != 0) cfg.num_filters = reqs[i].num_filters;
    if (reqs[i].num_groups != 0) cfg.num_groups = reqs[i].num_groups;
    if (reqs[i].filter_seed != 0) cfg.filter_seed = reqs[i].filter_seed;
    const NetFilter nf(cfg);
    Rig fresh(8);
    const NetFilterResult solo =
        nf.run(fresh.workload, fresh.hierarchy, fresh.overlay, fresh.meter,
               responses[i].threshold);
    EXPECT_EQ(solo.frequent, responses[i].frequent) << "request " << i;
  }
}

TEST(QueryServiceTest, ConcurrentStaysExactUnderLoss) {
  Rig rig(9);
  NetFilterConfig cfg = config();
  cfg.fault.loss_probability = 0.15;
  cfg.fault.seed = 42;
  const QueryService svc(cfg);
  const std::vector<ConcurrentRequest> reqs{
      {PeerId(5), 0.02, 0, 0, 0},
      {PeerId(17), 0.01, 0, 0, 0},
      {PeerId(40), 0.05, 0, 0, 0},
      {PeerId(2), 0.1, 0, 0, 0},
  };
  ConcurrentQueryStats stats;
  const auto responses = svc.serve_concurrent(reqs, rig.workload,
                                              rig.hierarchy, rig.overlay,
                                              rig.meter, &stats);
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(responses[i].frequent,
              rig.workload.frequent_items(responses[i].threshold))
        << "request " << i;
  }
  // The reliability layer paid for the losses in rounds, not correctness.
  EXPECT_GT(rig.meter.total(net::TrafficCategory::kControl), 0u);
}

TEST(QueryServiceTest, ConcurrentSurvivesNonMemberChurn) {
  // Hierarchy over the 70 most stable of 80 peers; the 10 non-members host
  // their items with members before the run, so killing them mid-run must
  // not disturb any session.
  Rig rig(10);
  std::vector<double> uptime(80, 0.0);
  for (std::size_t p = 0; p < 80; ++p) {
    uptime[p] = p < 70 ? 1.0 : 0.1;
  }
  const auto participant =
      agg::select_stable_peers(uptime, 70.0 / 80.0, PeerId(0));
  const agg::Hierarchy partial =
      agg::build_bfs_hierarchy(rig.overlay, PeerId(0), participant);
  ASSERT_LT(partial.num_members(), 80u);

  const std::vector<ConcurrentRequest> reqs{
      {PeerId(1), 0.02, 0, 0, 0}, {PeerId(7), 0.05, 0, 0, 0}};
  for (const auto& req : reqs) {
    ASSERT_TRUE(partial.is_member(req.requester));
  }

  const auto serve = [&](const net::ChurnSchedule* churn) {
    Rig fresh(10);
    const QueryService svc(config());
    return svc.serve_concurrent(reqs, fresh.workload, partial, fresh.overlay,
                                fresh.meter, nullptr, churn);
  };

  net::ChurnSchedule churn;
  std::uint64_t round = 1;
  for (std::uint32_t p = 0; p < 80; ++p) {
    if (!partial.is_member(PeerId(p))) churn.fail_at(round++, PeerId(p));
  }
  const auto calm = serve(nullptr);
  const auto churned = serve(&churn);
  ASSERT_EQ(calm.size(), churned.size());
  for (std::size_t i = 0; i < calm.size(); ++i) {
    EXPECT_EQ(calm[i].threshold, churned[i].threshold);
    EXPECT_EQ(calm[i].frequent, churned[i].frequent) << "request " << i;
  }
}

TEST(QueryServiceTest, ConcurrentHonoursTheLinkModel) {
  // The multiplexed engine takes its link model from the config like every
  // other engine a NetFilterConfig drives: a narrow uniform link makes the
  // batch queue (more rounds) while the answers stay exact.
  const std::vector<ConcurrentRequest> reqs{
      {PeerId(5), 0.02, 0, 0, 0}, {PeerId(40), 0.05, 0, 0, 0}};
  const auto rounds_with = [&](const net::LinkModel& link) {
    Rig rig(12);
    NetFilterConfig cfg = config();
    cfg.link = link;
    ConcurrentQueryStats stats;
    const auto responses = QueryService(cfg).serve_concurrent(
        reqs, rig.workload, rig.hierarchy, rig.overlay, rig.meter, &stats);
    EXPECT_EQ(responses.size(), reqs.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(responses[i].frequent,
                rig.workload.frequent_items(responses[i].threshold))
          << "request " << i;
    }
    return stats.rounds_total;
  };
  net::LinkModel narrow;
  narrow.classes = net::LinkClassModel::uniform(400);
  EXPECT_GT(rounds_with(narrow), rounds_with(net::LinkModel{}));
}

TEST(QueryServiceTest, ConcurrentRejectsBadInput) {
  Rig rig(11);
  const QueryService svc(config());
  EXPECT_THROW((void)svc.serve_concurrent({}, rig.workload, rig.hierarchy,
                                          rig.overlay, rig.meter),
               InvalidArgument);
  EXPECT_THROW(
      (void)svc.serve_concurrent({{PeerId(1), 0.0, 0, 0, 0}}, rig.workload,
                                 rig.hierarchy, rig.overlay, rig.meter),
      InvalidArgument);
}

}  // namespace
}  // namespace nf::core
