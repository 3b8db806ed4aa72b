#include "core/netfilter.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/ifi_session.h"
#include "net/codec.h"
#include "net/session.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace nf::core {
namespace {

using net::Overlay;
using net::TrafficCategory;
using net::TrafficMeter;

struct Rig {
  Rig(std::uint32_t num_peers, std::uint64_t num_items, double alpha,
      std::uint64_t seed, std::uint32_t fanout = 3)
      : workload([&] {
          wl::WorkloadConfig cfg;
          cfg.num_peers = num_peers;
          cfg.num_items = num_items;
          cfg.alpha = alpha;
          cfg.seed = seed;
          return wl::Workload::generate(cfg);
        }()),
        overlay([&] {
          Rng rng(seed + 1);
          return Overlay(net::random_tree(num_peers, fanout, rng));
        }()),
        meter(num_peers),
        hierarchy(agg::build_bfs_hierarchy(overlay, PeerId(0))) {}

  wl::Workload workload;
  Overlay overlay;
  TrafficMeter meter;
  agg::Hierarchy hierarchy;
};

NetFilterConfig config(std::uint32_t g, std::uint32_t f) {
  NetFilterConfig c;
  c.num_groups = g;
  c.num_filters = f;
  return c;
}

TEST(NetFilterTest, ExactOnDefaultishSetup) {
  Rig rig(100, 10000, 1.0, 1);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(100, 3));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  EXPECT_EQ(res.frequent, rig.workload.frequent_items(t));
  EXPECT_GT(res.frequent.size(), 0u);
}

TEST(NetFilterTest, PaperWorkedExample) {
  // Figure 1 of the paper: 3 peers, 8 items a..h, threshold 3; only item d
  // (global value 3) is frequent.
  std::vector<LocalItems> locals(3);
  const ItemId a(1), b(2), c(3), d(4), e(5), f(6), g(7), h(8);
  locals[0] = LocalItems::from_unsorted({{a, 1}, {b, 1}, {d, 1}});
  locals[1] = LocalItems::from_unsorted({{d, 1}, {f, 1}, {g, 1}});
  locals[2] = LocalItems::from_unsorted({{c, 1}, {d, 1}, {e, 1}, {h, 1}});
  const wl::Workload w = wl::Workload::from_local_sets(std::move(locals));

  net::Topology topo(3);
  topo.add_edge(PeerId(0), PeerId(1));
  topo.add_edge(PeerId(0), PeerId(2));
  Overlay overlay(std::move(topo));
  TrafficMeter meter(3);
  const agg::Hierarchy hier = agg::build_bfs_hierarchy(overlay, PeerId(0));

  const NetFilter nf(config(4, 1));
  const NetFilterResult res = nf.run(w, hier, overlay, meter, 3);
  ASSERT_EQ(res.frequent.size(), 1u);
  EXPECT_EQ(res.frequent.value_of(d), 3u);
}

class NetFilterExactnessTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, double, std::uint64_t>> {};

TEST_P(NetFilterExactnessTest, NoFalsePositivesOrNegativesEver) {
  const auto [g, f, theta, seed] = GetParam();
  Rig rig(60, 5000, 1.0, seed);
  const Value t = rig.workload.threshold_for(theta);
  const NetFilter nf(config(g, f));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  EXPECT_EQ(res.frequent, rig.workload.frequent_items(t))
      << "g=" << g << " f=" << f << " theta=" << theta << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NetFilterExactnessTest,
    ::testing::Combine(::testing::Values(1u, 4u, 25u, 100u, 1000u),
                       ::testing::Values(1u, 2u, 5u),
                       ::testing::Values(0.1, 0.01, 0.003),
                       ::testing::Values(1u, 2u)));

TEST(NetFilterTest, CandidateSetNeverLosesFrequentItems) {
  // Phase-1 invariant: every truly frequent item passes every filter
  // (group aggregate >= item's own value >= t).
  Rig rig(80, 8000, 1.2, 5);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(50, 4));
  NetFilterStats stats;
  const HeavyGroupSet heavy = nf.filter_candidates(
      rig.workload, rig.hierarchy, rig.overlay, rig.meter, t, &stats);
  for (const auto& [id, v] : rig.workload.frequent_items(t)) {
    EXPECT_TRUE(heavy.passes(id, nf.bank())) << "item " << id;
  }
}

TEST(NetFilterTest, ReportedValuesAreExact) {
  Rig rig(100, 10000, 1.0, 3);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(100, 3));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  for (const auto& [id, v] : res.frequent) {
    EXPECT_EQ(v, rig.workload.global().value_of(id));
  }
}

TEST(NetFilterTest, FilteringCostIsExactlySaFG) {
  Rig rig(64, 5000, 1.0, 7);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(75, 4));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  // Every non-root peer sends sa*f*g once: total = 63 * 4*4*75.
  const double expected =
      63.0 * 4 * 4 * 75 / 64.0;
  EXPECT_DOUBLE_EQ(res.stats.filtering_cost, expected);
}

TEST(NetFilterTest, DisseminationCostMatchesHeavyGroups) {
  Rig rig(64, 5000, 1.0, 9);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(60, 2));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  // Each of the 63 tree edges carries sg * (total heavy groups) bytes.
  const double expected =
      63.0 * 4.0 * static_cast<double>(res.stats.heavy_groups_total) / 64.0;
  EXPECT_DOUBLE_EQ(res.stats.dissemination_cost, expected);
}

TEST(NetFilterTest, StatsCountsAreConsistent) {
  Rig rig(100, 10000, 1.0, 11);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(100, 3));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  const auto& s = res.stats;
  EXPECT_EQ(s.threshold, t);
  EXPECT_EQ(s.num_frequent, res.frequent.size());
  EXPECT_EQ(s.num_candidates, s.num_frequent + s.num_false_positives);
  EXPECT_GT(s.heavy_groups_total, 0u);
  EXPECT_GT(s.candidates_per_peer, 0.0);
  EXPECT_GT(s.rounds_filtering, 0u);
  EXPECT_GT(s.rounds_verification, 0u);
  EXPECT_NEAR(s.total_cost(),
              s.filtering_cost + s.dissemination_cost + s.aggregation_cost,
              1e-9);
}

TEST(NetFilterTest, TrivialFilterDegeneratesToNaiveCandidates) {
  // g=1: the single group holds everything and is heavy, so every item is
  // a candidate — still exact, just expensive.
  Rig rig(30, 1000, 1.0, 13);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(1, 1));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  EXPECT_EQ(res.frequent, rig.workload.frequent_items(t));
  EXPECT_EQ(res.stats.num_candidates, rig.workload.num_distinct());
}

TEST(NetFilterTest, ImpossibleThresholdYieldsEmptyResult) {
  Rig rig(30, 1000, 1.0, 15);
  const NetFilter nf(config(50, 2));
  const NetFilterResult res = nf.run(rig.workload, rig.hierarchy, rig.overlay,
                                     rig.meter, rig.workload.total_value() + 1);
  EXPECT_EQ(res.frequent.size(), 0u);
  EXPECT_EQ(res.stats.heavy_groups_total, 0u);
  EXPECT_EQ(res.stats.num_candidates, 0u);
}

TEST(NetFilterTest, ThresholdOneReportsEverything) {
  Rig rig(30, 500, 1.0, 17);
  const NetFilter nf(config(64, 2));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, 1);
  EXPECT_EQ(res.frequent, rig.workload.global());
}

TEST(NetFilterTest, LocalGroupAggregatesPreserveMass) {
  Rig rig(20, 1000, 1.0, 19);
  const NetFilter nf(config(37, 3));
  for (std::uint32_t p = 0; p < 20; ++p) {
    const auto& items = rig.workload.local_items(PeerId(p));
    const auto agg = nf.local_group_aggregates(items);
    ASSERT_EQ(agg.size(), 37u * 3u);
    // Each filter partitions the mass: per-filter sum == local total.
    for (std::uint32_t fi = 0; fi < 3; ++fi) {
      Value sum = 0;
      for (std::uint32_t gi = 0; gi < 37; ++gi) sum += agg[fi * 37 + gi];
      EXPECT_EQ(sum, items.total());
    }
  }
}

TEST(NetFilterTest, MaterializeCandidatesHonorsAllFilters) {
  Rig rig(20, 1000, 1.0, 21);
  const NetFilter nf(config(8, 2));
  HeavyGroupSet heavy;
  heavy.heavy = {std::vector<bool>(8, false), std::vector<bool>(8, true)};
  heavy.heavy[0][3] = true;  // filter 0 admits only group 3
  const auto& items = rig.workload.local_items(PeerId(5));
  const LocalItems cands = nf.materialize_candidates(items, heavy);
  for (const auto& [id, v] : cands) {
    EXPECT_EQ(nf.bank().filter(0).group_of(id).value(), 3u);
  }
  for (const auto& [id, v] : items) {
    const bool expect = nf.bank().filter(0).group_of(id).value() == 3;
    EXPECT_EQ(cands.contains(id), expect);
  }
}

TEST(NetFilterTest, InvalidInputsThrow) {
  Rig rig(10, 100, 1.0, 23);
  EXPECT_THROW(NetFilter(config(0, 1)), InvalidArgument);
  EXPECT_THROW(NetFilter(config(10, 0)), InvalidArgument);
  const NetFilter nf(config(10, 1));
  EXPECT_THROW((void)nf.run(rig.workload, rig.hierarchy, rig.overlay,
                            rig.meter, 0),
               InvalidArgument);
}

TEST(NetFilterTest, RunIsDeterministic) {
  auto run_once = [] {
    Rig rig(50, 2000, 1.0, 25);
    const Value t = rig.workload.threshold_for(0.01);
    const NetFilter nf(config(40, 2));
    return nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.frequent, b.frequent);
  EXPECT_EQ(a.stats.heavy_groups_total, b.stats.heavy_groups_total);
  EXPECT_EQ(a.stats.num_candidates, b.stats.num_candidates);
}

// Phase-2 candidate maps, pipelined and barriered, against
// materialize_candidates for every peer. A member's aggregation message is
// its own candidate map merged with its children's messages, so each
// message pins one peer's map given its subtree's.
enum class Theta { kEveryItem, kSome, kNoItem };

Value theta_for(Theta kind, const wl::Workload& workload) {
  switch (kind) {
    case Theta::kEveryItem:
      return 1;  // every group with mass is heavy: all items are candidates
    case Theta::kSome:
      return workload.threshold_for(0.01);
    case Theta::kNoItem:
      return workload.total_value() + 1;  // no group is heavy
  }
  return 1;
}

// Every member's expected aggregation message, bottom-up; also checks that
// materialize_candidates is the heavy-set filter of the local map.
std::vector<LocalItems> expected_messages(const NetFilter& nf,
                                          const wl::Workload& workload,
                                          const agg::Hierarchy& hierarchy,
                                          const HeavyGroupSet& heavy) {
  std::vector<LocalItems> out(hierarchy.num_peers());
  for (const PeerId p : hierarchy.members_deepest_first()) {
    const LocalItems& local = workload.local_items(p);
    const LocalItems own = nf.materialize_candidates(local, heavy);
    LocalItems filtered = local;
    filtered.retain(
        [&](ItemId id, Value) { return heavy.passes(id, nf.bank()); });
    EXPECT_EQ(own, filtered) << "peer " << p.value();
    out[p.value()].merge_add(own);
    for (const PeerId c : hierarchy.downstream(p)) {
      out[p.value()].merge_add(out[c.value()]);
    }
  }
  return out;
}

std::uint64_t count_frequent(const LocalItems& candidates, Value t) {
  std::uint64_t n = 0;
  for (const auto& [id, v] : candidates) n += v >= t ? 1 : 0;
  return n;
}

std::string candidate_map_case_name(
    const ::testing::TestParamInfo<std::tuple<Theta, std::uint32_t>>& info) {
  static constexpr const char* kThetas[] = {"EveryItem", "Some", "NoItem"};
  return kThetas[static_cast<int>(std::get<0>(info.param))] +
         std::string("_threads") + std::to_string(std::get<1>(info.param));
}

class NetFilterCandidateMapTest
    : public ::testing::TestWithParam<std::tuple<Theta, std::uint32_t>> {};

TEST_P(NetFilterCandidateMapTest, PipelinedMessagesMatchMaterialization) {
  const auto [kind, threads] = GetParam();
  Rig rig(120, 3000, 1.0, 31);
  const Value t = theta_for(kind, rig.workload);
  const NetFilter nf(config(40, 2));
  net::SessionMux mux(nullptr);
  const net::SessionId sid = mux.add_session();
  IfiSessionPhases ifi(nf, rig.workload, rig.hierarchy, t);
  (void)ifi.register_phases(mux, sid, net::PhaseStart::kAllPeers);
  net::Engine engine(rig.overlay, rig.meter);
  engine.set_threads(threads);
  std::vector<std::optional<LocalItems>> sent(rig.overlay.num_peers());
  engine.set_send_probe([&](const net::Envelope& env) {
    if (env.category != TrafficCategory::kAggregation) return;
    ASSERT_FALSE(sent[env.from.value()].has_value());
    sent[env.from.value()] = net::decode_pairs(engine.resolve(env.flat));
  });
  (void)engine.run(mux, 10000);
  ASSERT_TRUE(ifi.complete());

  const std::vector<LocalItems> expect =
      expected_messages(nf, rig.workload, rig.hierarchy, ifi.heavy());
  const PeerId root = rig.hierarchy.root();
  for (const PeerId p : rig.hierarchy.members_deepest_first()) {
    if (p == root) continue;
    ASSERT_TRUE(sent[p.value()].has_value()) << "peer " << p.value();
    EXPECT_EQ(*sent[p.value()], expect[p.value()]) << "peer " << p.value();
  }
  const NetFilterResult& res = ifi.result();
  EXPECT_EQ(res.stats.num_candidates, expect[root.value()].size());
  EXPECT_EQ(res.stats.num_frequent, count_frequent(expect[root.value()], t));
  EXPECT_EQ(res.frequent, rig.workload.frequent_items(t));
  if (kind == Theta::kEveryItem) {
    EXPECT_EQ(expect[root.value()], rig.workload.global());
  }
  if (kind == Theta::kNoItem) {
    EXPECT_TRUE(expect[root.value()].empty());
  }
}

TEST_P(NetFilterCandidateMapTest, BarrieredMessagesMatchMaterialization) {
  const auto [kind, threads] = GetParam();
  Rig rig(120, 3000, 1.0, 31);
  const Value t = theta_for(kind, rig.workload);
  NetFilterConfig cfg = config(40, 2);
  cfg.threads = threads;
  const NetFilter nf(cfg);
  NetFilterStats stats;
  const HeavyGroupSet heavy = nf.filter_candidates(
      rig.workload, rig.hierarchy, rig.overlay, rig.meter, t, &stats);
  const NetFilterResult res =
      nf.verify_candidates(rig.workload, rig.hierarchy, rig.overlay,
                           rig.meter, t, heavy, stats);

  // Flat-field charging: every aggregation message costs one pair per
  // entry, so each peer's charged bytes give its message's size.
  const std::vector<LocalItems> expect =
      expected_messages(nf, rig.workload, rig.hierarchy, heavy);
  const std::uint64_t pair = cfg.wire.item_value_pair();
  const PeerId root = rig.hierarchy.root();
  for (const PeerId p : rig.hierarchy.members_deepest_first()) {
    if (p == root) continue;
    EXPECT_EQ(rig.meter.per_peer_breakdown(p)[static_cast<std::size_t>(
                  TrafficCategory::kAggregation)],
              pair * expect[p.value()].size())
        << "peer " << p.value();
  }
  EXPECT_EQ(res.stats.num_candidates, expect[root.value()].size());
  EXPECT_EQ(res.stats.num_frequent, count_frequent(expect[root.value()], t));
  EXPECT_EQ(res.frequent, rig.workload.frequent_items(t));
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, NetFilterCandidateMapTest,
    ::testing::Combine(::testing::Values(Theta::kEveryItem, Theta::kSome,
                                         Theta::kNoItem),
                       ::testing::Values(1u, 4u)),
    candidate_map_case_name);

}  // namespace
}  // namespace nf::core
