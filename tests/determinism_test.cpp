// Golden determinism suite for the sharded round engine (DESIGN.md §6c).
//
// The engine's contract is that the shard count is invisible: a K-shard run
// must produce the SAME execution as the serial engine, bit for bit — the
// same envelopes admitted in the same order (observed via set_send_probe),
// the same meter charges, and the same protocol results. These tests pin
// that contract for K ∈ {2, 4, 8} against K = 1, for plain runs and under
// the adversarial engine features (link loss, latency jitter), and for the
// full netFilter and gossip-netFilter drivers.
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "agg/convergecast.h"
#include "agg/flat_phases.h"
#include "agg/gossip.h"
#include "agg/hierarchy.h"
#include "agg/maintenance.h"
#include "agg/multi_hierarchy.h"
#include "core/gossip_netfilter.h"
#include "core/netfilter.h"
#include "core/partitioned.h"
#include "core/query_service.h"
#include "core/tuner.h"
#include "net/engine.h"
#include "net/link_model.h"
#include "net/session.h"
#include "net/topology.h"
#include "obs/context.h"
#include "obs/export.h"
#include "workload/workload.h"

namespace nf {
namespace {

using net::Engine;
using net::Envelope;
using net::LinkFaultModel;
using net::LinkModel;
using net::Overlay;
using net::TrafficCategory;
using net::TrafficMeter;

// 60 peers: not a multiple of 8, so every K in {2,4,8} gets uneven
// contiguous shards — the case where a sloppy merge would reorder sends.
constexpr std::uint32_t kPeers = 60;
constexpr std::uint32_t kShardCounts[] = {2, 4, 8};

struct TestWorld {
  wl::Workload workload;
  Overlay overlay;
  agg::Hierarchy hierarchy;

  static TestWorld make() {
    wl::WorkloadConfig wc;
    wc.num_peers = kPeers;
    wc.num_items = 2000;
    wc.seed = 11;
    wl::Workload w = wl::Workload::generate(wc);
    Rng rng(5);
    Overlay overlay(net::random_tree(kPeers, 3, rng));
    agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
    return TestWorld{std::move(w), std::move(overlay), std::move(h)};
  }
};

/// One admitted envelope, flattened for exact comparison. The payload is
/// protocol-internal; identity of (from, to, category, bytes) in identical
/// order pins the wire-visible execution.
using SendRecord = std::tuple<std::uint32_t, std::uint32_t, int, std::uint64_t>;

struct RunTrace {
  std::vector<SendRecord> sends;
  std::array<std::uint64_t, net::kNumTrafficCategories> totals{};
  std::uint64_t num_messages = 0;
  std::uint64_t rounds = 0;
  std::vector<Value> result;
};

/// Runs the fig5-style phase-1 convergecast (group aggregates up the
/// hierarchy) at the given shard count and records everything observable.
RunTrace run_convergecast(const TestWorld& world, std::uint32_t threads,
                          const LinkFaultModel* fault,
                          const LinkModel* latency) {
  const core::NetFilter nf(core::NetFilterConfig{});
  TrafficMeter meter(kPeers);
  Overlay overlay = world.overlay;  // engines never mutate it, but stay safe
  Engine engine(overlay, meter);
  engine.set_threads(threads);
  if (fault != nullptr) engine.set_fault_model(*fault);
  if (latency != nullptr) engine.set_link_model(*latency);

  RunTrace trace;
  engine.set_send_probe([&trace](const Envelope& env) {
    trace.sends.emplace_back(env.from.value(), env.to.value(),
                             static_cast<int>(env.category), env.bytes);
  });

  agg::ConvergecastPhase<std::vector<Value>> cast(
      world.hierarchy, TrafficCategory::kFiltering,
      [&](PeerId p) {
        return nf.local_group_aggregates(world.workload.local_items(p));
      },
      [](std::vector<Value>& acc, std::vector<Value>&& child) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += child[i];
      },
      [](const std::vector<Value>&) { return std::uint64_t{128}; });
  trace.rounds =
      net::run_phase(engine, cast, 5000, nullptr, {.open_on_message = false});
  EXPECT_TRUE(cast.complete());
  trace.result = cast.result();
  for (std::size_t c = 0; c < net::kNumTrafficCategories; ++c) {
    trace.totals[c] = meter.total(static_cast<TrafficCategory>(c));
  }
  trace.num_messages = meter.num_messages();
  return trace;
}

void expect_identical(const RunTrace& serial, const RunTrace& sharded,
                      std::uint32_t threads) {
  SCOPED_TRACE(::testing::Message() << "threads=" << threads);
  EXPECT_EQ(serial.rounds, sharded.rounds);
  EXPECT_EQ(serial.result, sharded.result);
  EXPECT_EQ(serial.totals, sharded.totals);
  EXPECT_EQ(serial.num_messages, sharded.num_messages);
  ASSERT_EQ(serial.sends.size(), sharded.sends.size());
  // Element-wise (not one big EQ) so a failure names the first divergence.
  for (std::size_t i = 0; i < serial.sends.size(); ++i) {
    ASSERT_EQ(serial.sends[i], sharded.sends[i]) << "send index " << i;
  }
}

TEST(DeterminismTest, ShardedConvergecastIsBitIdenticalToSerial) {
  const TestWorld world = TestWorld::make();
  const RunTrace serial = run_convergecast(world, 1, nullptr, nullptr);
  ASSERT_FALSE(serial.sends.empty());
  for (const std::uint32_t k : kShardCounts) {
    expect_identical(serial, run_convergecast(world, k, nullptr, nullptr), k);
  }
}

TEST(DeterminismTest, LossyLinksPreserveTheSendStream) {
  const TestWorld world = TestWorld::make();
  LinkFaultModel fault;
  fault.loss_probability = 0.25;
  fault.seed = 99;
  const RunTrace serial = run_convergecast(world, 1, &fault, nullptr);
  // Loss forces retransmissions and ACK traffic through the probe too.
  EXPECT_GT(serial.totals[static_cast<std::size_t>(TrafficCategory::kControl)],
            0u);
  for (const std::uint32_t k : kShardCounts) {
    expect_identical(serial, run_convergecast(world, k, &fault, nullptr), k);
  }
}

TEST(DeterminismTest, LatencyJitterPreservesTheSendStream) {
  const TestWorld world = TestWorld::make();
  const LinkModel latency{.min_delay = 1, .max_delay = 4, .seed = 7};
  const RunTrace serial = run_convergecast(world, 1, nullptr, &latency);
  for (const std::uint32_t k : kShardCounts) {
    expect_identical(serial, run_convergecast(world, k, nullptr, &latency), k);
  }
}

TEST(DeterminismTest, LossPlusLatencyPreservesTheSendStream) {
  const TestWorld world = TestWorld::make();
  LinkFaultModel fault;
  fault.loss_probability = 0.15;
  fault.seed = 3;
  const LinkModel latency{.min_delay = 1, .max_delay = 3, .seed = 21};
  const RunTrace serial = run_convergecast(world, 1, &fault, &latency);
  for (const std::uint32_t k : kShardCounts) {
    expect_identical(serial, run_convergecast(world, k, &fault, &latency), k);
  }
}

// Flat payloads raise the determinism bar from "same envelope stream" to
// "same wire bytes": slab-backed payload spans — written into per-shard
// outbox slabs and copied to transit-ring slots at the canonical-order
// merge barrier — must resolve to byte-identical content at every shard
// count, not just the same (from, to, category, bytes) metadata.
TEST(DeterminismTest, FlatPayloadBytesAreBitIdenticalAcrossShardCounts) {
  const TestWorld world = TestWorld::make();
  constexpr std::uint32_t kWidth = 80;  // f=2 banks of g=40 group sums

  struct FlatTrace {
    std::vector<SendRecord> sends;
    std::vector<net::Bytes> payloads;
    std::vector<Value> result;
  };

  const auto run_at = [&](std::uint32_t threads) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    Engine engine(overlay, meter);
    engine.set_threads(threads);

    FlatTrace trace;
    // The probe fires at admission, after the engine parked the payload in
    // the delivery slot's slab — resolve() here reads the actual wire span.
    engine.set_send_probe([&trace, &engine](const Envelope& env) {
      trace.sends.emplace_back(env.from.value(), env.to.value(),
                               static_cast<int>(env.category), env.bytes);
      const std::span<const std::uint8_t> bytes = engine.resolve(env.flat);
      trace.payloads.emplace_back(bytes.begin(), bytes.end());
    });

    agg::FlatAggregateConvergecastPhase cast(
        world.hierarchy, TrafficCategory::kFiltering, kWidth,
        [&](PeerId p, std::span<Value> out) {
          nf.local_group_aggregates_into(world.workload.local_items(p), out);
        },
        /*flat_bytes=*/0);
    net::run_phase(engine, cast, 5000, nullptr, {.open_on_message = false});
    EXPECT_TRUE(cast.complete());
    const std::span<const Value> result = cast.result();
    trace.result.assign(result.begin(), result.end());
    return trace;
  };

  const FlatTrace serial = run_at(1);
  ASSERT_FALSE(serial.sends.empty());
  // Every upward merge ships a real encoded payload, not an empty ref.
  for (const net::Bytes& p : serial.payloads) ASSERT_FALSE(p.empty());
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const FlatTrace sharded = run_at(k);
    EXPECT_EQ(serial.result, sharded.result);
    ASSERT_EQ(serial.sends.size(), sharded.sends.size());
    for (std::size_t i = 0; i < serial.sends.size(); ++i) {
      ASSERT_EQ(serial.sends[i], sharded.sends[i]) << "send index " << i;
      ASSERT_EQ(serial.payloads[i], sharded.payloads[i])
          << "payload bytes diverge at send index " << i;
    }
  }
}

TEST(DeterminismTest, NetFilterEndToEndMatchesSerial) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.01);

  const auto run_at = [&](std::uint32_t threads) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::NetFilterResult r =
        nf.run(world.workload, world.hierarchy, overlay, meter, t);
    return std::make_tuple(std::move(r), meter.total(), meter.num_messages());
  };

  const auto [serial, serial_bytes, serial_msgs] = run_at(1);
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [sharded, bytes, msgs] = run_at(k);
    EXPECT_EQ(serial_bytes, bytes);
    EXPECT_EQ(serial_msgs, msgs);
    EXPECT_EQ(serial.stats.heavy_groups_total, sharded.stats.heavy_groups_total);
    EXPECT_EQ(serial.stats.num_candidates, sharded.stats.num_candidates);
    EXPECT_EQ(serial.stats.rounds_filtering, sharded.stats.rounds_filtering);
    EXPECT_EQ(serial.stats.rounds_verification,
              sharded.stats.rounds_verification);
    ASSERT_EQ(serial.frequent.size(), sharded.frequent.size());
    auto it = sharded.frequent.begin();
    for (const auto& [id, v] : serial.frequent) {
      EXPECT_EQ(id, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }
  }
}

TEST(DeterminismTest, ObsMetricsAndSeriesMatchSerial) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.01);

  const auto run_at = [&](std::uint32_t threads) {
    auto ctx = std::make_unique<obs::Context>();
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    cfg.obs = ctx.get();
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    (void)nf.run(world.workload, world.hierarchy, overlay, meter, t);
    return ctx;
  };

  const auto serial = run_at(1);
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto sharded = run_at(k);
    // Every counter except the wall-clock timings must be bit-identical.
    for (const auto& [name, c] : serial->registry.counters()) {
      if (name.rfind("time_us/", 0) == 0) continue;
      if (name == "obs/overhead_us" || name == "engine/round_us") continue;
      EXPECT_EQ(c.value(), sharded->registry.counter(name).value()) << name;
    }
    // Deterministic series columns: same rows, same stamps, same deltas.
    // Busy/idle shard gauges are real time and excluded by construction
    // (they are gauge columns compared by explicit name below).
    EXPECT_EQ(serial->series.stamps(), sharded->series.stamps());
    for (const char* col :
         {"engine/sent", "engine/delivered", "engine/sent_bytes"}) {
      EXPECT_EQ(serial->series.counter_series(col),
                sharded->series.counter_series(col))
          << col;
    }
    EXPECT_EQ(serial->series.gauge_series("engine/in_flight"),
              sharded->series.gauge_series("engine/in_flight"));
    // Conformance runs are derived from deterministic stats, so the whole
    // report must agree too.
    EXPECT_EQ(obs::to_json(serial->conformance).dump(),
              obs::to_json(sharded->conformance).dump());
    // The topology telemetry plane is charged once, on the engine thread,
    // in canonical merge order — so the whole link_stats export (per-level
    // matrix, Misra-Gries hot list, predictions) must be byte-identical,
    // and so must the per-level series columns it binds.
    EXPECT_EQ(obs::to_json(serial->link_stats).dump(),
              obs::to_json(sharded->link_stats).dump());
    ASSERT_TRUE(serial->link_stats.configured());
    EXPECT_FALSE(serial->link_stats.links().ranked().empty());
    for (std::uint32_t d = 0; d < serial->link_stats.num_levels(); ++d) {
      const std::string col = "link/level" + std::to_string(d) + "/bytes";
      EXPECT_EQ(serial->series.counter_series(col),
                sharded->series.counter_series(col))
          << col;
    }
  }
}

// The link scheduler runs at the canonical-order merge barrier on the
// engine thread, so saturating congestion must not cost a single bit of
// determinism: under narrow links with a clamping backlog horizon, the
// full netFilter run — results, congestion counters, the backlog gauge
// series, and the link_stats congestion export — must be byte-identical
// serial vs sharded.
TEST(DeterminismTest, SaturatedCongestionMatchesSerial) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.01);

  const auto run_at = [&](std::uint32_t threads) {
    auto ctx = std::make_unique<obs::Context>();
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    cfg.obs = ctx.get();
    // Saturating: every message (f*g encoded group sums, ~100+ bytes)
    // overflows a 64-byte link, the root-adjacent links get an even
    // narrower override, and the tight horizon forces clamping.
    cfg.link.classes = net::LinkClassModel::uniform(64);
    std::vector<std::uint32_t> depths(kPeers);
    for (std::uint32_t p = 0; p < kPeers; ++p) {
      depths[p] = world.hierarchy.depth(PeerId(p));
    }
    cfg.link.classes.set_level_override(depths, 1, 24);
    cfg.link.max_backlog_rounds = 6;
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::NetFilterResult r =
        nf.run(world.workload, world.hierarchy, overlay, meter, t);
    return std::make_tuple(std::move(r), std::move(ctx), meter.total(),
                           meter.num_messages());
  };

  const auto [serial, serial_ctx, serial_bytes, serial_msgs] = run_at(1);
  // The scenario actually saturates: messages queued, rounds stretched.
  EXPECT_GT(serial_ctx->registry.counter("engine/congestion/queued_msgs")
                .value(),
            0u);
  EXPECT_GT(
      serial_ctx->registry.counter("engine/congestion/queue_delay_rounds")
          .value(),
      0u);
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [sharded, ctx, bytes, msgs] = run_at(k);
    EXPECT_EQ(serial_bytes, bytes);  // contention costs rounds, not bytes
    EXPECT_EQ(serial_msgs, msgs);
    EXPECT_EQ(serial.stats.rounds_total, sharded.stats.rounds_total);
    EXPECT_EQ(serial.frequent, sharded.frequent);
    for (const auto& [name, c] : serial_ctx->registry.counters()) {
      if (name.rfind("time_us/", 0) == 0) continue;
      if (name == "obs/overhead_us" || name == "engine/round_us") continue;
      EXPECT_EQ(c.value(), ctx->registry.counter(name).value()) << name;
    }
    // The congestion telemetry columns specifically: same stamps, same
    // backlog trajectory per level, same utilization inputs.
    EXPECT_EQ(serial_ctx->series.stamps(), ctx->series.stamps());
    EXPECT_EQ(serial_ctx->series.gauge_series("engine/backlog_bytes"),
              ctx->series.gauge_series("engine/backlog_bytes"));
    ASSERT_TRUE(serial_ctx->link_stats.configured());
    for (std::uint32_t d = 0; d < serial_ctx->link_stats.num_levels(); ++d) {
      const std::string bytes_col =
          "link/level" + std::to_string(d) + "/bytes";
      EXPECT_EQ(serial_ctx->series.counter_series(bytes_col),
                ctx->series.counter_series(bytes_col))
          << bytes_col;
      const std::string backlog_col =
          "link/level" + std::to_string(d) + "/backlog_bytes";
      EXPECT_EQ(serial_ctx->series.gauge_series(backlog_col),
                ctx->series.gauge_series(backlog_col))
          << backlog_col;
    }
    // The whole export — per-level capacity rows, the congestion
    // sub-object, hot spill links — byte for byte.
    EXPECT_EQ(obs::to_json(serial_ctx->link_stats).dump(),
              obs::to_json(ctx->link_stats).dump());
  }
}

// The infinite-capacity LinkModel must be invisible: explicitly setting the
// default model on a netFilter run reproduces the no-model run bit for bit
// (same sends, bytes, rounds, results) — the committed-baseline guarantee.
TEST(DeterminismTest, InfiniteCapacityLinkModelIsInvisible) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.01);

  const auto run_at = [&](bool explicit_model) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    if (explicit_model) {
      cfg.link.classes = net::LinkClassModel::uniform(net::kInfiniteCapacity);
    }
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::NetFilterResult r =
        nf.run(world.workload, world.hierarchy, overlay, meter, t);
    return std::make_tuple(r.frequent, r.stats.rounds_total, meter.total(),
                           meter.num_messages());
  };

  EXPECT_EQ(run_at(false), run_at(true));
}

// The pipelined session runtime must be a pure orchestration change: byte
// for byte the same answer and phase costs as the barriered schedule (the
// phase API: filter_candidates, a global barrier, verify_candidates), in
// strictly fewer engine rounds — serial and sharded alike. Every peer is a
// hierarchy member, so run's host report adds nothing to compare against.
TEST(DeterminismTest, PipelinedNetFilterMatchesBarrieredInFewerRounds) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.01);

  const auto run_at = [&](std::uint32_t threads, bool barriered) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::NetFilterResult r;
    if (barriered) {
      core::NetFilterStats stats;
      const core::HeavyGroupSet heavy = nf.filter_candidates(
          world.workload, world.hierarchy, overlay, meter, t, &stats);
      r = nf.verify_candidates(world.workload, world.hierarchy, overlay,
                               meter, t, heavy, stats);
    } else {
      r = nf.run(world.workload, world.hierarchy, overlay, meter, t);
    }
    return std::make_tuple(std::move(r), meter.total(), meter.num_messages());
  };

  const auto [barriered, b_bytes, b_msgs] = run_at(1, true);
  // The phase API reports the back-to-back total.
  EXPECT_EQ(barriered.stats.rounds_total,
            barriered.stats.rounds_filtering +
                barriered.stats.rounds_verification);
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const auto [pipelined, p_bytes, p_msgs] = run_at(threads, false);
    // Loss-free, the message set is identical — only the schedule differs.
    EXPECT_EQ(b_bytes, p_bytes);
    EXPECT_EQ(b_msgs, p_msgs);
    EXPECT_EQ(barriered.stats.heavy_groups_total,
              pipelined.stats.heavy_groups_total);
    EXPECT_EQ(barriered.stats.num_candidates, pipelined.stats.num_candidates);
    EXPECT_EQ(barriered.stats.num_frequent, pipelined.stats.num_frequent);
    EXPECT_EQ(barriered.stats.filtering_cost, pipelined.stats.filtering_cost);
    EXPECT_EQ(barriered.stats.dissemination_cost,
              pipelined.stats.dissemination_cost);
    EXPECT_EQ(barriered.stats.aggregation_cost,
              pipelined.stats.aggregation_cost);
    ASSERT_EQ(barriered.frequent.size(), pipelined.frequent.size());
    auto it = pipelined.frequent.begin();
    for (const auto& [id, v] : barriered.frequent) {
      EXPECT_EQ(id, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }
    // The pipelining win itself: phase overlap saves whole rounds.
    EXPECT_GT(barriered.stats.rounds_total, 0u);
    EXPECT_LT(pipelined.stats.rounds_total, barriered.stats.rounds_total);
  }
}

// N queries multiplexed over one engine run must return bit-identical
// answers to the same queries run back to back, at every shard count.
TEST(DeterminismTest, ConcurrentSessionsMatchBackToBackRuns) {
  const TestWorld world = TestWorld::make();
  const std::vector<core::ConcurrentRequest> requests{
      {PeerId(3), 0.01, 0, 0, 0},
      {PeerId(20), 0.03, 3, 64, 77},  // its own filter bank
      {PeerId(41), 0.005, 0, 0, 0},
      {PeerId(9), 0.08, 2, 24, 5},
  };

  const auto serve_at = [&](std::uint32_t threads) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    const core::QueryService svc(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::ConcurrentQueryStats stats;
    auto responses = svc.serve_concurrent(requests, world.workload,
                                          world.hierarchy, overlay, meter,
                                          &stats);
    return std::make_tuple(std::move(responses), std::move(stats),
                           meter.total(), meter.num_messages());
  };

  const auto [serial, serial_stats, serial_bytes, serial_msgs] = serve_at(1);
  ASSERT_EQ(serial.size(), requests.size());

  // Back-to-back baseline: each request as its own netFilter run with the
  // same effective config and threshold.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    core::NetFilterConfig cfg;
    cfg.num_groups =
        requests[i].num_groups != 0 ? requests[i].num_groups : 40;
    cfg.num_filters =
        requests[i].num_filters != 0 ? requests[i].num_filters : 2;
    if (requests[i].filter_seed != 0) cfg.filter_seed = requests[i].filter_seed;
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    const core::NetFilterResult solo = nf.run(
        world.workload, world.hierarchy, overlay, meter, serial[i].threshold);
    SCOPED_TRACE(::testing::Message() << "request " << i);
    EXPECT_EQ(solo.frequent, serial[i].frequent);
    EXPECT_EQ(solo.stats.heavy_groups_total,
              serial_stats.sessions[i].netfilter.heavy_groups_total);
    EXPECT_EQ(solo.stats.num_candidates,
              serial_stats.sessions[i].netfilter.num_candidates);
  }

  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [sharded, sharded_stats, bytes, msgs] = serve_at(k);
    EXPECT_EQ(serial_bytes, bytes);
    EXPECT_EQ(serial_msgs, msgs);
    EXPECT_EQ(serial_stats.rounds_total, sharded_stats.rounds_total);
    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].requester, sharded[i].requester);
      EXPECT_EQ(serial[i].threshold, sharded[i].threshold);
      EXPECT_EQ(serial[i].frequent, sharded[i].frequent) << "request " << i;
      EXPECT_EQ(serial_stats.sessions[i].traffic.total_bytes(),
                sharded_stats.sessions[i].traffic.total_bytes());
      EXPECT_EQ(serial_stats.sessions[i].traffic.total_msgs(),
                sharded_stats.sessions[i].traffic.total_msgs());
    }
  }
}

// serve()'s request and reply engines take their thread count from the
// config like every other engine: the shared-run path (requests up, one
// netFilter run, replies down) must be bit-identical at every shard count.
TEST(DeterminismTest, SharedServeMatchesSerial) {
  const TestWorld world = TestWorld::make();
  const std::vector<core::FrequentItemsRequest> requests{
      {PeerId(3), 0.01}, {PeerId(20), 0.03}, {PeerId(41), 0.005}};

  const auto serve_at = [&](std::uint32_t threads) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    auto responses = core::QueryService(cfg).serve(
        requests, world.workload, world.hierarchy, overlay, meter);
    return std::make_tuple(std::move(responses), meter.total(),
                           meter.num_messages());
  };

  const auto [serial, serial_bytes, serial_msgs] = serve_at(1);
  ASSERT_EQ(serial.size(), requests.size());
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [sharded, bytes, msgs] = serve_at(k);
    EXPECT_EQ(serial_bytes, bytes);
    EXPECT_EQ(serial_msgs, msgs);
    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].requester, sharded[i].requester);
      EXPECT_EQ(serial[i].frequent, sharded[i].frequent) << "request " << i;
    }
  }
}

// The multi-hierarchy (partitioned) and sampling (tuner) paths compose the
// containers nf-lint polices hardest: random root draws, branch walks,
// Floyd index picks, and per-slice convergecasts. Tuning from branch
// samples and then running the partitioned filter over randomly replicated
// hierarchies must give byte-identical results AND byte-identical obs
// output, serial vs sharded.
TEST(DeterminismTest, PartitionedMultiHierarchyAndSamplingMatchSerial) {
  const TestWorld world = TestWorld::make();

  const auto run_at = [&](std::uint32_t threads) {
    auto ctx = std::make_unique<obs::Context>();
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;

    // Sampling path: g, f, and t all come from random-branch estimates.
    core::TunerConfig tc;
    tc.sampling.num_branches = 6;
    tc.sampling.items_per_peer = 8;
    tc.sampling.seed = 23;
    const core::TunedSetting tuned =
        core::tune(world.workload, world.hierarchy, 0.01, tc, &meter);

    core::NetFilterConfig base;
    base.threads = threads;
    base.obs = ctx.get();
    const core::PartitionedNetFilter pnf(tuned.to_config(base));

    // Multi-hierarchy path: three replicated roots drawn from a fresh RNG.
    Rng roots_rng(31);
    const agg::MultiHierarchy hierarchies =
        agg::MultiHierarchy::build_random(overlay, 3, roots_rng);
    core::PartitionedResult r =
        pnf.run(world.workload, hierarchies, overlay, meter, tuned.threshold);
    return std::make_tuple(std::move(r), tuned, std::move(ctx),
                           meter.total(), meter.num_messages());
  };

  const auto [serial, serial_tuned, serial_ctx, serial_bytes, serial_msgs] =
      run_at(1);
  ASSERT_GT(serial.frequent.size(), 0u);
  for (const std::uint32_t k : {2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [sharded, tuned, ctx, bytes, msgs] = run_at(k);
    // The tuner never touches the engine; its estimates must not depend on
    // the shard count at all.
    EXPECT_EQ(serial_tuned.num_groups, tuned.num_groups);
    EXPECT_EQ(serial_tuned.num_filters, tuned.num_filters);
    EXPECT_EQ(serial_tuned.threshold, tuned.threshold);
    EXPECT_EQ(serial_tuned.estimates.v_bar, tuned.estimates.v_bar);
    EXPECT_EQ(serial_tuned.estimates.r_hat, tuned.estimates.r_hat);
    EXPECT_EQ(serial_bytes, bytes);
    EXPECT_EQ(serial_msgs, msgs);
    EXPECT_EQ(serial.stats.rounds, sharded.stats.rounds);
    EXPECT_EQ(serial.stats.heavy_groups_total, sharded.stats.heavy_groups_total);
    EXPECT_EQ(serial.stats.num_candidates, sharded.stats.num_candidates);
    ASSERT_EQ(serial.frequent.size(), sharded.frequent.size());
    auto it = sharded.frequent.begin();
    for (const auto& [id, v] : serial.frequent) {
      EXPECT_EQ(id, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }
    // Byte-identical obs output, wall-clock readings aside.
    for (const auto& [name, c] : serial_ctx->registry.counters()) {
      if (name.rfind("time_us/", 0) == 0) continue;
      if (name == "obs/overhead_us" || name == "engine/round_us") continue;
      EXPECT_EQ(c.value(), ctx->registry.counter(name).value()) << name;
    }
    EXPECT_EQ(serial_ctx->series.stamps(), ctx->series.stamps());
    for (const char* col :
         {"engine/sent", "engine/delivered", "engine/sent_bytes"}) {
      EXPECT_EQ(serial_ctx->series.counter_series(col),
                ctx->series.counter_series(col))
          << col;
    }
    EXPECT_EQ(serial_ctx->series.gauge_series("engine/in_flight"),
              ctx->series.gauge_series("engine/in_flight"));
    EXPECT_EQ(obs::to_json(serial_ctx->link_stats).dump(),
              obs::to_json(ctx->link_stats).dump());
  }
}

// Lineage ids are stamped by the engine in canonical merge order — the
// same total order that makes K-shard runs bit-identical — so the whole
// schema v5 lineage section (ids, parents, sampled extra edges, extracted
// critical paths and slack) must serialize byte-identically at every shard
// count.
TEST(DeterminismTest, LineageAndCriticalPathsMatchSerial) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.01);

  const auto run_at = [&](std::uint32_t threads) {
    auto ctx = std::make_unique<obs::Context>();
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    cfg.obs = ctx.get();
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    (void)nf.run(world.workload, world.hierarchy, overlay, meter, t);
    return ctx;
  };

  const auto serial = run_at(1);
  EXPECT_GT(serial->lineage.total(), 0u);
  const std::vector<obs::CriticalPath> paths =
      obs::critical_paths(serial->lineage);
  ASSERT_FALSE(paths.empty());
  for (const obs::CriticalPath& p : paths) {
    ASSERT_FALSE(p.hops.empty());
    // Chains are causally ordered: each hop departs no earlier than the
    // previous hop's delivery round.
    for (std::size_t i = 1; i < p.hops.size(); ++i) {
      EXPECT_GE(p.hops[i].send_round, p.hops[i - 1].deliver_round);
    }
    EXPECT_EQ(p.hops.back().deliver_round, p.done_round);
  }
  const std::string serial_json = obs::to_json(serial->lineage).dump();
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto sharded = run_at(k);
    EXPECT_EQ(serial_json, obs::to_json(sharded->lineage).dump());
  }
}

// Every multiplexed session's gating chain must end at the round the
// session recorded as done: the critical path's final delivery round IS
// the per-session rounds_total that serve_concurrent reports (and that
// `nf-inspect critical-path` cross-checks).
TEST(DeterminismTest, CriticalPathsTerminateAtSessionDone) {
  const TestWorld world = TestWorld::make();
  const std::vector<core::ConcurrentRequest> requests{
      {PeerId(3), 0.01, 0, 0, 0},
      {PeerId(20), 0.03, 3, 64, 77},
      {PeerId(41), 0.005, 0, 0, 0},
  };

  const auto serve_at = [&](std::uint32_t threads) {
    auto ctx = std::make_unique<obs::Context>();
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    cfg.obs = ctx.get();
    const core::QueryService svc(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::ConcurrentQueryStats stats;
    (void)svc.serve_concurrent(requests, world.workload, world.hierarchy,
                               overlay, meter, &stats);
    return std::make_tuple(std::move(ctx), std::move(stats));
  };

  const auto [serial_ctx, serial_stats] = serve_at(1);
  const std::vector<obs::CriticalPath> paths =
      obs::critical_paths(serial_ctx->lineage);
  ASSERT_EQ(paths.size(), requests.size());
  ASSERT_EQ(serial_stats.sessions.size(), requests.size());
  for (const obs::CriticalPath& p : paths) {
    ASSERT_FALSE(p.hops.empty());
    const core::ConcurrentSessionStats& ss = serial_stats.sessions[p.session];
    EXPECT_EQ(p.session_name, ss.name);
    EXPECT_EQ(p.done_round, ss.netfilter.rounds_total) << ss.name;
    EXPECT_EQ(p.hops.back().deliver_round, ss.netfilter.rounds_total)
        << ss.name;
    // Slack rows never report a delivery later than the session's done
    // round feeding its completion.
    for (const obs::PhaseSlack& s : p.slack) {
      EXPECT_EQ(s.slack_rounds,
                p.done_round > s.last_deliver_round
                    ? p.done_round - s.last_deliver_round
                    : 0u);
    }
  }
  const std::string serial_json = obs::to_json(serial_ctx->lineage).dump();
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [ctx, stats] = serve_at(k);
    EXPECT_EQ(serial_json, obs::to_json(ctx->lineage).dump());
    for (std::size_t i = 0; i < stats.sessions.size(); ++i) {
      EXPECT_EQ(serial_stats.sessions[i].netfilter.rounds_total,
                stats.sessions[i].netfilter.rounds_total);
    }
  }
}

// Hierarchy maintenance under churn: failures trigger ORPHAN waves and
// re-attachment (ATTACH/DETACH) on a graph with redundant routes, a late
// joiner attaches, and every peer heartbeats every round — the send stream
// and every peer's DEPTH must not depend on the shard count.
TEST(DeterminismTest, MaintenanceUnderChurnMatchesSerial) {
  Rng topo_rng(21);
  const Overlay base(net::random_connected(kPeers, 4.0, topo_rng));
  const auto run_at = [&](std::uint32_t threads) {
    Overlay overlay = base;
    overlay.fail(PeerId(47));
    TrafficMeter meter(kPeers);
    const agg::Hierarchy initial =
        agg::build_bfs_hierarchy(overlay, PeerId(0));
    agg::HierarchyMaintenance::Config cfg;
    cfg.timeout_rounds = 2;
    agg::HierarchyMaintenance maint(initial, cfg);
    Engine engine(overlay, meter);
    engine.set_threads(threads);
    RunTrace trace;
    engine.set_send_probe([&trace](const Envelope& env) {
      trace.sends.emplace_back(env.from.value(), env.to.value(),
                               static_cast<int>(env.category), env.bytes);
    });
    net::ChurnSchedule churn;
    churn.fail_at(3, PeerId(1));
    churn.fail_at(3, PeerId(2));
    churn.join_at(8, PeerId(47));
    churn.fail_at(12, PeerId(30));
    trace.rounds = net::run_phase(engine, maint, 40, nullptr, {}, &churn);
    for (std::uint32_t p = 0; p < kPeers; ++p) {
      trace.result.push_back(maint.depth(PeerId(p)));
    }
    trace.num_messages = meter.num_messages();
    return trace;
  };

  const RunTrace serial = run_at(1);
  ASSERT_FALSE(serial.sends.empty());
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const RunTrace sharded = run_at(k);
    EXPECT_EQ(serial.sends, sharded.sends);
    EXPECT_EQ(serial.rounds, sharded.rounds);
    EXPECT_EQ(serial.result, sharded.result);
    EXPECT_EQ(serial.num_messages, sharded.num_messages);
  }
}

// Push-sum gossip: per-peer RNG streams pick the targets, so the send stream
// and every estimate must be bit-identical at every shard count.
TEST(DeterminismTest, PushSumGossipMatchesSerial) {
  Rng topo_rng(22);
  const Overlay base(net::random_connected(kPeers, 5.0, topo_rng));
  const auto run_at = [&](std::uint32_t threads) {
    Overlay overlay = base;
    TrafficMeter meter(kPeers);
    std::vector<std::vector<double>> initial;
    for (std::uint32_t p = 0; p < kPeers; ++p) {
      initial.push_back({static_cast<double>(p), 1.0});
    }
    agg::PushSumGossip::Config cfg;
    cfg.rounds = 30;
    agg::PushSumGossip gossip(std::move(initial), cfg);
    Engine engine(overlay, meter);
    engine.set_threads(threads);
    RunTrace trace;
    engine.set_send_probe([&trace](const Envelope& env) {
      trace.sends.emplace_back(env.from.value(), env.to.value(),
                               static_cast<int>(env.category), env.bytes);
    });
    trace.rounds = net::run_phase(engine, gossip, 100, nullptr);
    std::vector<double> estimates;
    for (std::uint32_t p = 0; p < kPeers; ++p) {
      for (std::size_t i = 0; i < gossip.dimension(); ++i) {
        estimates.push_back(gossip.estimate_sum(PeerId(p), i));
      }
    }
    trace.num_messages = meter.num_messages();
    return std::make_pair(std::move(trace), std::move(estimates));
  };

  const auto [serial, serial_estimates] = run_at(1);
  ASSERT_FALSE(serial.sends.empty());
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [sharded, estimates] = run_at(k);
    EXPECT_EQ(serial.sends, sharded.sends);
    EXPECT_EQ(serial.rounds, sharded.rounds);
    EXPECT_EQ(serial.num_messages, sharded.num_messages);
    // Exact, not approximate: the same floating-point sums in the same order.
    EXPECT_EQ(serial_estimates, estimates);
  }
}

TEST(DeterminismTest, GossipNetFilterMatchesSerial) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.02);

  const auto run_at = [&](std::uint32_t threads) {
    core::GossipNetFilterConfig cfg;
    cfg.num_groups = 32;
    cfg.num_filters = 2;
    cfg.phase1_rounds = 30;
    cfg.phase2_rounds = 30;
    cfg.threads = threads;
    const core::GossipNetFilter gnf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::GossipNetFilterResult r =
        gnf.run(world.workload, overlay, PeerId(0), meter, t);
    return std::make_tuple(std::move(r), meter.total(), meter.num_messages());
  };

  const auto [serial, serial_bytes, serial_msgs] = run_at(1);
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [sharded, bytes, msgs] = run_at(k);
    EXPECT_EQ(serial_bytes, bytes);
    EXPECT_EQ(serial_msgs, msgs);
    EXPECT_EQ(serial.stats.heavy_groups_total, sharded.stats.heavy_groups_total);
    EXPECT_EQ(serial.stats.rounds, sharded.stats.rounds);
    ASSERT_EQ(serial.reported.size(), sharded.reported.size());
    auto it = sharded.reported.begin();
    for (const auto& [id, v] : serial.reported) {
      EXPECT_EQ(id, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }
  }
}

}  // namespace
}  // namespace nf
