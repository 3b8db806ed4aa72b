// Causal lineage layer (obs/lineage.h, docs/OBSERVABILITY.md "Causal
// lineage"): DAG recording, critical-path extraction, and the structural
// guarantee the Perfetto flow export rides on — a node dropped by the
// fault model or churn is never delivered, so neither the critical paths
// nor the flow arrows may ever reference it, and every gating chain still
// terminates at the session's done() round.
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/convergecast.h"
#include "agg/hierarchy.h"
#include "common/rng.h"
#include "net/churn.h"
#include "net/engine.h"
#include "net/flood.h"
#include "net/session.h"
#include "net/topology.h"
#include "obs/context.h"
#include "obs/export.h"
#include "obs/lineage.h"
#include "obs/trace_event.h"

namespace nf {
namespace {

using net::Engine;
using net::Overlay;
using net::TrafficCategory;
using net::TrafficMeter;
using obs::CriticalPath;
using obs::LineageRecorder;

constexpr std::uint32_t kPeers = 40;

struct World {
  Overlay overlay;
  agg::Hierarchy hierarchy;

  static World make() {
    Rng rng(17);
    Overlay overlay(net::random_tree(kPeers, 3, rng));
    agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
    return World{std::move(overlay), std::move(h)};
  }
};

/// Sum-convergecast with a named phase so the trace grows an "agg" span
/// track for the flow arrows to bind to.
std::uint64_t run_convergecast(World& world, obs::Context& ctx,
                               const net::LinkFaultModel* fault = nullptr,
                               std::uint64_t* retransmissions = nullptr) {
  agg::ConvergecastPhase<std::uint64_t> phase(
      world.hierarchy, TrafficCategory::kAggregation,
      [](PeerId p) { return std::uint64_t{p.value() + 1}; },
      [](std::uint64_t& acc, std::uint64_t&& child) { acc += child; },
      [](const std::uint64_t&) { return std::uint64_t{16}; }, &ctx);

  TrafficMeter meter(kPeers);
  Engine engine(world.overlay, meter);
  engine.set_obs(&ctx);
  if (fault != nullptr) engine.set_fault_model(*fault);
  const std::uint64_t rounds = net::run_phase(
      engine, phase, 5000, &ctx, {.open_on_message = false, .name = "agg"});
  EXPECT_TRUE(phase.complete());
  if (retransmissions != nullptr) *retransmissions = engine.retransmissions();
  return rounds;
}

/// Every node id a critical path references must be retained and delivered.
void expect_paths_reference_only_delivered(
    const LineageRecorder& rec, const std::vector<CriticalPath>& paths) {
  for (const CriticalPath& p : paths) {
    ASSERT_FALSE(p.hops.empty());
    for (const obs::CriticalHop& h : p.hops) {
      EXPECT_TRUE(rec.retained(h.id)) << "hop id " << h.id;
      EXPECT_TRUE(rec.was_delivered(h.id)) << "hop id " << h.id;
      EXPECT_LT(h.send_round, h.deliver_round);
    }
    // The chain terminates at (never after) the session's done() round.
    EXPECT_LE(p.hops.back().deliver_round, p.done_round);
    for (std::size_t i = 1; i < p.hops.size(); ++i) {
      EXPECT_GE(p.hops[i].send_round, p.hops[i - 1].deliver_round);
    }
  }
}

TEST(LineageTest, ConvergecastBuildsACausalChainEndingAtDone) {
  World world = World::make();
  obs::Context ctx;
  run_convergecast(world, ctx);

  const LineageRecorder& rec = ctx.lineage;
  ASSERT_GT(rec.total(), 0u);
  EXPECT_EQ(rec.dropped_nodes(), 0u);
  ASSERT_EQ(rec.runs().size(), 1u);

  // Ids are a topological order: every recorded parent precedes its child.
  for (obs::LineageId id = rec.first_retained_id(); id <= rec.total(); ++id) {
    const LineageRecorder::NodeView n = rec.node(id);
    if (n.parent != obs::kNoLineage) {
      EXPECT_LT(n.parent, id);
    }
  }
  for (const obs::LineageEdge& e : rec.extra_edges()) {
    EXPECT_LT(e.parent, e.child);
  }

  const std::vector<CriticalPath> paths = obs::critical_paths(rec);
  ASSERT_EQ(paths.size(), 1u);
  expect_paths_reference_only_delivered(rec, paths);
  // Loss-free, the gating delivery is the root's last merge: exactly at the
  // session's recorded done round.
  EXPECT_EQ(paths[0].hops.back().deliver_round, paths[0].done_round);
  EXPECT_EQ(paths[0].hops.back().phase_name, "agg");
}

TEST(LineageTest, LossNeverLeaksUndeliveredNodesIntoPathsOrFlows) {
  World world = World::make();
  obs::Context ctx;
  net::LinkFaultModel fault;
  fault.loss_probability = 0.3;
  fault.seed = 12;
  std::uint64_t retransmissions = 0;
  run_convergecast(world, ctx, &fault, &retransmissions);
  // The link really ate messages; the reliability layer recovered them, so
  // recovered hops stretch across the retransmission delay and the path
  // must follow the delivered copies.
  ASSERT_GT(retransmissions, 0u);

  const LineageRecorder& rec = ctx.lineage;
  const obs::LineageId lo =
      std::max(rec.runs().back().first_id, rec.first_retained_id());
  std::set<std::uint64_t> delivered_clocks;
  for (obs::LineageId id = lo; id <= rec.total(); ++id) {
    if (rec.was_delivered(id)) {
      delivered_clocks.insert(rec.node(id).send_clock);
      delivered_clocks.insert(rec.node(id).deliver_clock);
    }
  }

  const std::vector<CriticalPath> paths = obs::critical_paths(rec);
  ASSERT_EQ(paths.size(), 1u);
  expect_paths_reference_only_delivered(rec, paths);
  EXPECT_EQ(paths[0].hops.back().deliver_round, paths[0].done_round);

  // Flow arrows in the Perfetto export bind only to clocks of delivered
  // nodes — never to a dropped message's send/deliver time.
  const obs::Json trace = obs::trace_event_json(ctx);
  const obs::Json* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t starts = 0;
  std::size_t finishes = 0;
  for (const obs::Json& e : events->as_array()) {
    const obs::Json* cat = e.find("cat");
    if (cat == nullptr || cat->as_string() != "lineage") continue;
    const std::string ph = e.at("ph").as_string();
    if (ph == "s") ++starts;
    if (ph == "f") ++finishes;
    const auto ts = static_cast<std::uint64_t>(e.at("ts").as_double());
    EXPECT_EQ(delivered_clocks.count(ts), 1u) << "flow ts " << ts;
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(finishes, 1u);
}

TEST(LineageTest, ChurnedPeerDropsOutOfCriticalPaths) {
  // One session, two concurrent phases: a convergecast that gates
  // completion, and a flood whose copy to the churned leaf is in flight
  // when the leaf dies. The dropped copy becomes a permanently undelivered
  // lineage node and must never surface in the gating chain; the chain
  // still terminates at the session's done() round.
  Rng rng(23);
  Overlay overlay(net::random_tree(kPeers, 3, rng));
  obs::Context ctx;

  // BFS from the originator: a peer at depth d receives the flood during
  // iteration d, so its parent's copy is in flight exactly then.
  std::vector<std::uint32_t> depth(kPeers, 0);
  std::vector<PeerId> frontier{PeerId(0)};
  std::vector<bool> seen(kPeers, false);
  seen[0] = true;
  PeerId victim(0);
  while (!frontier.empty()) {
    std::vector<PeerId> next;
    for (const PeerId p : frontier) {
      for (const PeerId n : overlay.neighbors(p)) {
        if (seen[n.value()]) continue;
        seen[n.value()] = true;
        depth[n.value()] = depth[p.value()] + 1;
        victim = n;  // last one discovered = a deepest peer
        next.push_back(n);
      }
    }
    frontier = std::move(next);
  }
  ASSERT_GE(depth[victim.value()], 2u);

  agg::Hierarchy hierarchy = agg::build_bfs_hierarchy(overlay, PeerId(0));

  net::SessionMux mux(&ctx);
  const net::SessionId sid = mux.add_session();
  agg::ConvergecastPhase<std::uint64_t> cast(
      hierarchy, TrafficCategory::kAggregation,
      [](PeerId p) { return std::uint64_t{p.value() + 1}; },
      [](std::uint64_t& acc, std::uint64_t&& child) { acc += child; },
      [](const std::uint64_t&) { return std::uint64_t{16}; }, &ctx);
  net::PhaseOptions cast_opts;
  cast_opts.start = net::PhaseStart::kAllPeers;
  cast_opts.open_on_message = false;
  cast_opts.name = "agg";
  (void)mux.add_phase(sid, cast, cast_opts);

  std::uint32_t receipts = 0;
  net::FlatFloodPhase flood(
      PeerId(0), net::Bytes{7}, 8, TrafficCategory::kDissemination,
      /*ttl=*/16, [&receipts](net::PhaseContext&,
                              std::span<const std::uint8_t>) { ++receipts; });
  net::PhaseOptions flood_opts;
  flood_opts.start = net::PhaseStart::kAllPeers;
  flood_opts.name = "flood";
  (void)mux.add_phase(sid, flood, flood_opts);

  // The victim is a deepest leaf: its convergecast contribution is already
  // delivered at round 1, and the flood copy addressed to it is in flight
  // when churn (applied at the top of the round, before delivery) kills it
  // — so the network drops that copy and its node stays undelivered.
  net::ChurnSchedule churn;
  churn.fail_at(depth[victim.value()], victim);

  TrafficMeter meter(kPeers);
  Engine engine(overlay, meter);
  engine.set_obs(&ctx);
  (void)engine.run(mux, 100, &churn);
  EXPECT_TRUE(cast.complete());
  EXPECT_GT(receipts, 0u);
  EXPECT_FALSE(flood.reached(victim));

  const LineageRecorder& rec = ctx.lineage;
  std::size_t undelivered = 0;
  for (obs::LineageId id = rec.first_retained_id(); id <= rec.total(); ++id) {
    if (!rec.was_delivered(id)) ++undelivered;
  }
  ASSERT_GT(undelivered, 0u);

  const std::vector<CriticalPath> paths = obs::critical_paths(ctx.lineage);
  ASSERT_EQ(paths.size(), 1u);
  expect_paths_reference_only_delivered(ctx.lineage, paths);
  EXPECT_EQ(paths[0].hops.back().deliver_round, paths[0].done_round);
  for (const obs::CriticalHop& h : paths[0].hops) {
    EXPECT_NE(h.to, victim.value());
  }
}

TEST(LineageTest, TinyRingWrapsWithoutBreakingAnalysis) {
  World world = World::make();
  obs::Context ctx(/*trace_capacity=*/4096, /*series_capacity=*/4096,
                   /*lineage_capacity=*/8);
  run_convergecast(world, ctx);

  const LineageRecorder& rec = ctx.lineage;
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_GT(rec.dropped_nodes(), 0u);
  EXPECT_EQ(rec.first_retained_id(), rec.total() - 7);

  // Analysis over the surviving window stays well-formed: retained,
  // delivered hops in causal order, nothing referencing evicted ids.
  const std::vector<CriticalPath> paths = obs::critical_paths(rec);
  expect_paths_reference_only_delivered(rec, paths);
  const obs::Json j = obs::to_json(rec);
  const obs::Json* nodes = j.find("nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_LE(nodes->at("id").size(), 8u);
  EXPECT_EQ(static_cast<std::uint64_t>(j.at("dropped_nodes").as_double()),
            rec.dropped_nodes());
}

TEST(LineageTest, ReservoirEdgeSamplingIsDeterministic) {
  const auto build = [] {
    LineageRecorder rec(/*capacity=*/64, /*edge_capacity=*/4);
    for (std::uint64_t i = 1; i <= 40; ++i) {
      const obs::LineageId id =
          rec.admit(/*parent=*/i > 1 ? i - 1 : 0, PeerId(0), PeerId(1),
                    /*session=*/0, /*phase=*/0, /*bytes=*/8,
                    /*send_clock=*/i);
      rec.delivered(id, i + 1);
      // Two extra parents per node once enough ancestors exist.
      if (i > 4) {
        rec.link(id, i - 2);
        rec.link(id, i - 3);
      }
    }
    return rec;
  };
  const LineageRecorder a = build();
  const LineageRecorder b = build();
  EXPECT_GT(a.edges_seen(), a.edge_capacity());
  ASSERT_EQ(a.extra_edges().size(), a.edge_capacity());
  for (std::size_t i = 0; i < a.extra_edges().size(); ++i) {
    EXPECT_EQ(a.extra_edges()[i].parent, b.extra_edges()[i].parent);
    EXPECT_EQ(a.extra_edges()[i].child, b.extra_edges()[i].child);
  }
}

}  // namespace
}  // namespace nf
