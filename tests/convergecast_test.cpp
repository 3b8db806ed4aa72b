#include "agg/convergecast.h"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "agg/flat_phases.h"
#include "common/value_map.h"
#include "net/churn.h"
#include "net/session.h"

namespace nf::agg {
namespace {

using net::Engine;
using net::run_phase;
using net::Overlay;
using net::Topology;
using net::TrafficCategory;
using net::TrafficMeter;

struct Fixture {
  explicit Fixture(Topology topo)
      : overlay(std::move(topo)),
        meter(overlay.num_peers()),
        hierarchy(build_bfs_hierarchy(overlay, PeerId(0))) {}
  // Only the marked peers join the hierarchy; the rest are hosted.
  Fixture(Topology topo, const std::vector<bool>& participant)
      : overlay(std::move(topo)),
        meter(overlay.num_peers()),
        hierarchy(build_bfs_hierarchy(overlay, PeerId(0), participant)) {}

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

TEST(ConvergecastTest, SumsScalarsOverLine) {
  Fixture fx(line(5));
  ConvergecastPhase<std::uint64_t> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId p) { return std::uint64_t{p.value() + 1}; },  // 1..5
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  Engine engine(fx.overlay, fx.meter);
  run_phase(engine, cast, 100, nullptr, {.open_on_message = false});
  ASSERT_TRUE(cast.complete());
  EXPECT_EQ(cast.result(), 15u);
}

TEST(ConvergecastTest, CompletesInHeightRounds) {
  Fixture fx(line(8));  // height 8
  ConvergecastPhase<std::uint64_t> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId) { return std::uint64_t{1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  Engine engine(fx.overlay, fx.meter);
  const std::uint64_t rounds =
      run_phase(engine, cast, 100, nullptr, {.open_on_message = false});
  EXPECT_EQ(cast.result(), 8u);
  // One level per round plus the final quiescence checks.
  EXPECT_LE(rounds, fx.hierarchy.height() + 2);
}

TEST(ConvergecastTest, OneMessagePerNonRootMember) {
  Rng rng(4);
  Fixture fx(net::random_tree(100, 3, rng));
  ConvergecastPhase<std::uint64_t> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId) { return std::uint64_t{1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  Engine engine(fx.overlay, fx.meter);
  run_phase(engine, cast, 200, nullptr, {.open_on_message = false});
  EXPECT_EQ(cast.result(), 100u);
  EXPECT_EQ(fx.meter.num_messages(), 99u);
  EXPECT_EQ(fx.meter.total(TrafficCategory::kFiltering), 99u * 4);
  // The root never sends.
  EXPECT_EQ(cast.sent_bytes(PeerId(0)), 0u);
}

TEST(ConvergecastTest, VectorAggregatesAddElementwise) {
  Rng rng(5);
  Fixture fx(net::random_tree(50, 3, rng));
  ConvergecastPhase<std::vector<std::uint64_t>> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId p) {
        return std::vector<std::uint64_t>{1, p.value(), 2 * p.value()};
      },
      [](std::vector<std::uint64_t>& a, std::vector<std::uint64_t>&& b) {
        for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
      },
      [](const std::vector<std::uint64_t>& v) { return 4 * v.size(); });
  Engine engine(fx.overlay, fx.meter);
  run_phase(engine, cast, 200, nullptr, {.open_on_message = false});
  ASSERT_TRUE(cast.complete());
  const std::uint64_t sum_ids = 50 * 49 / 2;
  EXPECT_EQ(cast.result()[0], 50u);
  EXPECT_EQ(cast.result()[1], sum_ids);
  EXPECT_EQ(cast.result()[2], 2 * sum_ids);
}

TEST(ConvergecastTest, ValueMapMergeMatchesGroundTruth) {
  Rng rng(6);
  Fixture fx(net::random_tree(64, 4, rng));
  // Each peer holds items {p mod 7, p mod 3} with value p+1.
  auto local = [](PeerId p) {
    ValueMap<ItemId, std::uint64_t> m;
    m.add(ItemId(p.value() % 7), p.value() + 1);
    m.add(ItemId(100 + p.value() % 3), p.value() + 1);
    return m;
  };
  ValueMap<ItemId, std::uint64_t> truth;
  for (std::uint32_t p = 0; p < 64; ++p) truth.merge_add(local(PeerId(p)));

  ConvergecastPhase<ValueMap<ItemId, std::uint64_t>> cast(
      fx.hierarchy, TrafficCategory::kAggregation, local,
      [](auto& a, auto&& b) { a.merge_add(b); },
      [](const auto& m) { return 8 * m.size(); });
  Engine engine(fx.overlay, fx.meter);
  run_phase(engine, cast, 200, nullptr, {.open_on_message = false});
  ASSERT_TRUE(cast.complete());
  EXPECT_EQ(cast.result(), truth);
}

TEST(ConvergecastTest, SingletonHierarchyCompletesWithoutTraffic) {
  Fixture fx{Topology(1)};
  ConvergecastPhase<std::uint64_t> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId) { return std::uint64_t{42}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  Engine engine(fx.overlay, fx.meter);
  run_phase(engine, cast, 10, nullptr, {.open_on_message = false});
  ASSERT_TRUE(cast.complete());
  EXPECT_EQ(cast.result(), 42u);
  EXPECT_EQ(fx.meter.total(), 0u);
}

TEST(ConvergecastTest, ResultBeforeCompletionThrows) {
  Fixture fx(line(3));
  ConvergecastPhase<std::uint64_t> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId) { return std::uint64_t{1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  EXPECT_THROW((void)cast.result(), InvalidArgument);
}

// Why run_phase takes PhaseOptions: under kAllPeers a peer that is down at
// the first tick and joins later can receive a child's message before its
// own first tick. Buffering the message (open_on_message = false) defers
// the merged forward to that tick; opening on it sends the forward from the
// delivery callback. Same aggregate, different canonical send order.
TEST(ConvergecastTest, OpenOnMessageReordersALateJoinersForward) {
  // Root 0 with subtrees 0-1-2 and 0-3-4; relay 1 joins in round 1, just as
  // leaf 2's round-0 message reaches it.
  const auto run = [](bool open_on_message) {
    Topology topo(5);
    topo.add_edge(PeerId(0), PeerId(1));
    topo.add_edge(PeerId(1), PeerId(2));
    topo.add_edge(PeerId(0), PeerId(3));
    topo.add_edge(PeerId(3), PeerId(4));
    Fixture fx(std::move(topo));
    fx.overlay.fail(PeerId(1));
    net::ChurnSchedule churn;
    churn.join_at(1, PeerId(1));
    ConvergecastPhase<std::uint64_t> cast(
        fx.hierarchy, TrafficCategory::kFiltering,
        [](PeerId p) { return std::uint64_t{p.value() + 1}; },
        [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
        [](const std::uint64_t&) { return std::uint64_t{4}; });
    Engine engine(fx.overlay, fx.meter);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> sends;
    engine.set_send_probe([&sends](const net::Envelope& env) {
      sends.emplace_back(env.from.value(), env.to.value());
    });
    run_phase(engine, cast, 100, nullptr,
              {.open_on_message = open_on_message}, &churn);
    EXPECT_TRUE(cast.complete());
    EXPECT_EQ(cast.result(), 1u + 2u + 3u + 4u + 5u);
    return sends;
  };
  using Sends = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  EXPECT_EQ(run(false), (Sends{{2, 1}, {4, 3}, {3, 0}, {1, 0}}));
  EXPECT_EQ(run(true), (Sends{{2, 1}, {4, 3}, {1, 0}, {3, 0}}));
}

class ConvergecastTopologyTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(ConvergecastTopologyTest, SumIsExactOnArbitraryGraphs) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  Fixture fx(net::random_connected(n, 4.0, rng));
  ConvergecastPhase<std::uint64_t> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId p) { return std::uint64_t{p.value()} * 3 + 1; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  Engine engine(fx.overlay, fx.meter);
  run_phase(engine, cast, 1000, nullptr, {.open_on_message = false});
  ASSERT_TRUE(cast.complete());
  std::uint64_t expect = 0;
  for (std::uint32_t p = 0; p < n; ++p) expect += std::uint64_t{p} * 3 + 1;
  EXPECT_EQ(cast.result(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, ConvergecastTopologyTest,
    ::testing::Combine(::testing::Values(2u, 5u, 37u, 256u, 1000u),
                       ::testing::Values(11u, 12u)));

// The flat f×g convergecast holds rows only at peers that merge. Each case
// checks the global sums against a brute-force column sum over the members
// and the row count against members-with-children plus the root, serial
// and 4-sharded.
constexpr std::uint32_t kFlatWidth = 5;

std::uint64_t flat_slot(PeerId p, std::uint32_t j) {
  return std::uint64_t{p.value()} * 7 + j * j + 1;
}

void expect_flat_sums(Fixture& fx, std::uint32_t threads) {
  FlatAggregateConvergecastPhase cast(
      fx.hierarchy, TrafficCategory::kFiltering, kFlatWidth,
      [](PeerId p, std::span<std::uint64_t> out) {
        for (std::uint32_t j = 0; j < kFlatWidth; ++j) {
          out[j] += flat_slot(p, j);  // adds: the row must arrive zeroed
        }
      },
      /*flat_bytes=*/0);
  Engine engine(fx.overlay, fx.meter);
  engine.set_threads(threads);
  run_phase(engine, cast, 1000, nullptr, {.open_on_message = false});
  ASSERT_TRUE(cast.complete());

  std::vector<std::uint64_t> expect(kFlatWidth, 0);
  std::uint32_t rows = 0;
  for (std::uint32_t i = 0; i < fx.hierarchy.num_peers(); ++i) {
    const PeerId p(i);
    if (!fx.hierarchy.is_member(p)) continue;
    for (std::uint32_t j = 0; j < kFlatWidth; ++j) expect[j] += flat_slot(p, j);
    if (p == fx.hierarchy.root() || !fx.hierarchy.is_leaf(p)) ++rows;
  }
  const auto got = cast.result();
  EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expect)
      << "threads=" << threads;
  EXPECT_EQ(cast.num_rows(), rows) << "threads=" << threads;
}

void expect_flat_sums(Fixture& fx) {
  expect_flat_sums(fx, 1);
  expect_flat_sums(fx, 4);
}

TEST(FlatConvergecastTest, SinglePeerIsItsOwnRoot) {
  Fixture fx{Topology(1)};
  expect_flat_sums(fx);
}

TEST(FlatConvergecastTest, ChainHasOneLeaf) {
  Fixture fx(line(9));
  expect_flat_sums(fx);
}

TEST(FlatConvergecastTest, StarHoldsOnlyTheRootRow) {
  Topology t(12);
  for (std::uint32_t i = 1; i < 12; ++i) t.add_edge(PeerId(0), PeerId(i));
  Fixture fx(std::move(t));
  expect_flat_sums(fx);
}

TEST(FlatConvergecastTest, NonMembersHoldNoRowAndContributeNothing) {
  Rng rng(13);
  std::vector<bool> participant(60, false);
  for (std::uint32_t p = 0; p < 60; p += 2) participant[p] = true;
  Fixture fx(net::random_connected(60, 4.0, rng), participant);
  ASSERT_LT(fx.hierarchy.num_members(), 60u);
  ASSERT_GT(fx.hierarchy.num_members(), 1u);
  expect_flat_sums(fx);
}

TEST(FlatConvergecastTest, RandomTreeMatchesColumnSum) {
  Rng rng(14);
  Fixture fx(net::random_tree(300, 3, rng));
  expect_flat_sums(fx);
}

}  // namespace
}  // namespace nf::agg
