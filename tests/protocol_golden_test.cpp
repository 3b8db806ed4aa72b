// Golden send streams for the control-plane protocols: hierarchy
// maintenance under churn, push-sum gossip, gossip-netFilter and the
// request/reply exchange inside serve_concurrent.
//
// Each case digests every envelope the engine admits — (round, from, to,
// category, bytes), observed through Engine::set_send_probe — together with
// the protocol's results, and compares the digest with a committed constant.
// The payload encoding and the (session, phase) tags are left out on
// purpose: they are representation, not behaviour. A rewrite of any of these
// protocols must reproduce the constants exactly: the same messages, in the
// same canonical order, charged the same bytes, with the same outcome.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "agg/gossip.h"
#include "agg/hierarchy.h"
#include "agg/maintenance.h"
#include "agg/unicast.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "core/gossip_netfilter.h"
#include "core/query_service.h"
#include "net/engine.h"
#include "net/session.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace nf {
namespace {

using net::Engine;
using net::Envelope;
using net::Overlay;
using net::TrafficCategory;
using net::TrafficMeter;

class Digest {
 public:
  void mix(std::uint64_t x) { h_ = fmix64(h_ ^ x) + 0x9E3779B97F4A7C15ull; }
  void mix_double(double x) { mix(std::bit_cast<std::uint64_t>(x)); }

  void mix_meter(const TrafficMeter& meter) {
    for (std::size_t c = 0; c < net::kNumTrafficCategories; ++c) {
      mix(meter.total(static_cast<TrafficCategory>(c)));
    }
    mix(meter.num_messages());
  }

  /// Digests every envelope `engine` admits from now on.
  void probe(Engine& engine) {
    engine.set_send_probe([this, &engine](const Envelope& env) {
      mix(engine.round());
      mix(env.from.value());
      mix(env.to.value());
      mix(static_cast<std::uint64_t>(env.category));
      mix(env.bytes);
    });
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0;
};

void expect_golden(std::uint64_t got, std::uint64_t golden) {
  EXPECT_EQ(got, golden) << "got 0x" << std::hex << got;
}

// A ring with chords: every peer has a second route to the root, so a
// failure triggers ORPHAN waves and re-attachment (ATTACH/DETACH).
Overlay ring_with_chords(std::uint32_t n) {
  net::Topology t(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    t.add_edge(PeerId(i), PeerId((i + 1) % n));
  }
  for (std::uint32_t i = 0; i + 7 < n; i += 5) {
    t.add_edge(PeerId(i), PeerId(i + 7));
  }
  return Overlay(std::move(t));
}

std::uint64_t maintenance_digest(const net::LinkFaultModel* fault) {
  Overlay overlay = ring_with_chords(40);
  overlay.fail(PeerId(33));  // joins mid-run
  TrafficMeter meter(overlay.num_peers());
  const agg::Hierarchy initial = agg::build_bfs_hierarchy(overlay, PeerId(0));
  agg::HierarchyMaintenance::Config cfg;
  cfg.timeout_rounds = 2;
  cfg.stale_rounds = 5;
  agg::HierarchyMaintenance maint(initial, cfg);
  Engine engine(overlay, meter);
  if (fault != nullptr) engine.set_fault_model(*fault);
  Digest d;
  d.probe(engine);
  net::ChurnSchedule churn;
  churn.fail_at(4, PeerId(1));
  churn.fail_at(4, PeerId(12));
  churn.join_at(9, PeerId(33));
  churn.fail_at(15, PeerId(20));
  churn.join_at(22, PeerId(12));
  d.mix(net::run_phase(engine, maint, 45, nullptr, {}, &churn));
  for (std::uint32_t p = 0; p < overlay.num_peers(); ++p) {
    d.mix(maint.depth(PeerId(p)));
  }
  d.mix(maint.stabilized(overlay) ? 1 : 0);
  d.mix_meter(meter);
  return d.value();
}

TEST(ProtocolGoldenTest, MaintenanceUnderChurn) {
  expect_golden(maintenance_digest(nullptr), 0x13c7feff4c7207e6ull);
}

TEST(ProtocolGoldenTest, MaintenanceUnderChurnOverLossyLinks) {
  net::LinkFaultModel fault;
  fault.loss_probability = 0.1;
  expect_golden(maintenance_digest(&fault), 0x1fde00f74322776cull);
}

std::uint64_t push_sum_digest(const net::LinkFaultModel* fault) {
  Rng rng(7);
  Overlay overlay(net::random_connected(50, 5.0, rng));
  TrafficMeter meter(overlay.num_peers());
  std::vector<std::vector<double>> initial;
  for (std::uint32_t p = 0; p < overlay.num_peers(); ++p) {
    initial.push_back({static_cast<double>(p) + 0.5,
                       static_cast<double>(p % 7), 1.0});
  }
  agg::PushSumGossip::Config cfg;
  cfg.rounds = 25;
  cfg.seed = 3;
  agg::PushSumGossip gossip(std::move(initial), cfg);
  Engine engine(overlay, meter);
  if (fault != nullptr) engine.set_fault_model(*fault);
  Digest d;
  d.probe(engine);
  d.mix(net::run_phase(engine, gossip, 200, nullptr));
  d.mix(gossip.rounds_done());
  for (std::uint32_t p = 0; p < overlay.num_peers(); ++p) {
    for (std::size_t i = 0; i < gossip.dimension(); ++i) {
      d.mix_double(gossip.estimate_sum(PeerId(p), i));
    }
  }
  d.mix_meter(meter);
  return d.value();
}

TEST(ProtocolGoldenTest, PushSum) {
  expect_golden(push_sum_digest(nullptr), 0xceca4d931069758bull);
}

TEST(ProtocolGoldenTest, PushSumOverLossyLinks) {
  net::LinkFaultModel fault;
  fault.loss_probability = 0.15;
  expect_golden(push_sum_digest(&fault), 0x22e5409cb2fa8b94ull);
}

wl::Workload small_workload(std::uint32_t peers) {
  wl::WorkloadConfig wc;
  wc.num_peers = peers;
  wc.num_items = 1500;
  wc.seed = 23;
  return wl::Workload::generate(wc);
}

TEST(ProtocolGoldenTest, GossipNetFilterReport) {
  const wl::Workload w = small_workload(48);
  Rng rng(9);
  Overlay overlay(net::random_connected(48, 4.0, rng));
  TrafficMeter meter(overlay.num_peers());
  core::GossipNetFilterConfig cfg;
  cfg.num_groups = 24;
  cfg.num_filters = 2;
  cfg.phase1_rounds = 20;
  cfg.phase2_rounds = 20;
  const core::GossipNetFilterResult r = core::GossipNetFilter(cfg).run(
      w, overlay, PeerId(0), meter, w.threshold_for(0.02));
  Digest d;
  d.mix(r.reported.size());
  for (const auto& [id, v] : r.reported) {
    d.mix(id.value());
    d.mix(v);
  }
  d.mix(r.stats.heavy_groups_total);
  d.mix(r.stats.num_candidates);
  d.mix(r.stats.rounds);
  d.mix_meter(meter);
  expect_golden(d.value(), 0xfb3c7a67f642c1b3ull);
}

TEST(ProtocolGoldenTest, ServeConcurrentResponses) {
  const wl::Workload w = small_workload(60);
  Rng rng(5);
  Overlay overlay(net::random_tree(60, 3, rng));
  const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
  TrafficMeter meter(overlay.num_peers());
  core::NetFilterConfig cfg;
  cfg.num_groups = 30;
  cfg.num_filters = 2;
  const std::vector<core::ConcurrentRequest> requests{
      {PeerId(7), 0.01}, {PeerId(41), 0.03}, {PeerId(0), 0.02},
      {PeerId(59), 0.005, 3, 17, 99}};
  core::ConcurrentQueryStats stats;
  const auto responses = core::QueryService(cfg).serve_concurrent(
      requests, w, h, overlay, meter, &stats);
  Digest d;
  d.mix(stats.rounds_total);
  for (const auto& s : stats.sessions) d.mix(s.netfilter.rounds_total);
  for (const auto& r : responses) {
    d.mix(r.requester.value());
    d.mix(r.threshold);
    d.mix(r.frequent.size());
    for (const auto& [id, v] : r.frequent) {
      d.mix(id.value());
      d.mix(v);
    }
  }
  d.mix_meter(meter);
  expect_golden(d.value(), 0x17768b4dad21d959ull);
}

// One request/reply exchange per requester, each its own session of one
// mux, the way serve() ships requests up and answers down.
TEST(ProtocolGoldenTest, RequestReplyStream) {
  Rng rng(4);
  Overlay overlay(net::random_tree(40, 3, rng));
  const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
  TrafficMeter meter(overlay.num_peers());
  Engine engine(overlay, meter);
  Digest d;
  d.probe(engine);
  net::SessionMux mux;
  std::vector<std::unique_ptr<agg::RequestPhase>> ups;
  std::vector<std::unique_ptr<agg::ReplyPhase>> downs;
  for (const std::uint32_t requester : {39u, 17u, 0u, 25u}) {
    const net::SessionId sid = mux.add_session();
    downs.push_back(
        std::make_unique<agg::ReplyPhase>(h, PeerId(requester), 8));
    agg::ReplyPhase& reply = *downs.back();
    ups.push_back(std::make_unique<agg::RequestPhase>(
        h, PeerId(requester), 4,
        [&reply, requester, &ups, i = ups.size()](net::PhaseContext& ctx) {
          ValueMap<ItemId, Value> answer;
          for (std::uint64_t k = 0; k <= requester % 5; ++k) {
            answer.add(ItemId(1000 + 37 * k), requester + k);
          }
          reply.set_reply(ups[i]->route(), std::move(answer));
          ctx.open_phase(1);
        }));
    (void)mux.add_phase(sid, *ups.back(),
                        {.start = net::PhaseStart::kAllPeers});
    (void)mux.add_phase(sid, reply, {});
  }
  d.mix(engine.run(mux, 500));
  for (const auto& up : ups) {
    for (const PeerId p : up->route()) d.mix(p.value());
  }
  for (const auto& down : downs) {
    for (const auto& [id, v] : down->answer()) {
      d.mix(id.value());
      d.mix(v);
    }
  }
  d.mix_meter(meter);
  expect_golden(d.value(), 0x7cf193de9d56fad9ull);
}

}  // namespace
}  // namespace nf
