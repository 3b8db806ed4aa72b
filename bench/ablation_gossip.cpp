// Ablation — hierarchical vs gossip aggregation (paper §III-A).
//
// The paper picks hierarchical aggregation because it is exact and needs
// one tree pass, and leaves gossip for future work. This ablation measures
// the trade on phase 1 (item-group aggregate computation): bytes per peer,
// rounds, and worst-case relative error of the group aggregates under
// push-sum as rounds grow. Hierarchical aggregation is exact in
// height-many rounds; push-sum needs many more rounds and stays
// approximate — exactly the argument of §III-A.
#include "bench/bench_util.h"

#include "agg/gossip.h"
#include "common/stats.h"

int main(int argc, char** argv) {
  using namespace nf;
  const auto cli = bench::Cli::parse(argc, argv);

  // Gossip needs a well-connected overlay to mix (it is hopeless on a
  // tree); use the unstructured d=6 random graph typical of Gnutella-like
  // systems for both contenders.
  bench::Params params;
  params.num_peers = 500;  // keep gossip rounds affordable
  params.num_items = 20000;
  params.seed = cli.seed;
  params.threads = cli.threads;
  bench::Env env(params);
  {
    Rng rng(cli.seed + 99);
    env.overlay = net::Overlay(net::random_connected(500, 6.0, rng));
    env.hierarchy = agg::build_bfs_hierarchy(env.overlay, PeerId(0));
  }

  const std::uint32_t g = 100;
  const std::uint32_t f = 1;

  std::cout << "# Ablation: hierarchical vs push-sum gossip aggregation "
               "(phase 1, f=1, g=100, N=500)\n";

  // Hierarchical reference.
  const auto res = env.run_netfilter(g, f);
  bench::banner("hierarchical aggregation (exact)",
                "exact aggregates in height-many rounds, sa*f*g bytes/peer");
  TableWriter htable({"rounds", "bytes/peer", "p50_rel_err", "p95_rel_err"},
                     std::cout, 16);
  htable.row(res.stats.rounds_filtering, res.stats.filtering_cost, 0.0, 0.0);

  // Push-sum over the same local group vectors.
  core::NetFilterConfig cfg;
  cfg.num_groups = g;
  cfg.num_filters = f;
  const core::NetFilter nf(cfg);
  std::vector<std::vector<double>> initial;
  initial.reserve(params.num_peers);
  std::vector<double> truth(g, 0.0);
  for (std::uint32_t p = 0; p < params.num_peers; ++p) {
    const auto agg =
        nf.local_group_aggregates(env.workload.local_items(PeerId(p)));
    std::vector<double> x(agg.begin(), agg.end());
    for (std::uint32_t i = 0; i < g; ++i) truth[i] += x[i];
    initial.push_back(std::move(x));
  }

  bench::banner("push-sum gossip (approximate)",
                "error shrinks with rounds; bytes/peer grows linearly and "
                "passes the hierarchical cost after a handful of rounds");
  TableWriter gtable({"rounds", "bytes/peer", "p50_rel_err", "p95_rel_err"},
                     std::cout, 16);
  for (std::uint32_t rounds : {10u, 20u, 40u, 80u}) {
    net::TrafficMeter meter(params.num_peers);
    net::Engine engine(env.overlay, meter);
    agg::PushSumGossip::Config gc;
    gc.rounds = rounds;
    gc.seed = cli.seed;
    agg::PushSumGossip gossip(initial, gc);
    net::run_phase(engine, gossip, rounds + 2, nullptr);
    std::vector<double> errs;
    for (std::uint32_t p = 0; p < params.num_peers; ++p) {
      for (std::uint32_t i = 0; i < g; ++i) {
        if (truth[i] == 0.0) continue;
        errs.push_back(
            std::abs(gossip.estimate_sum(PeerId(p), i) - truth[i]) /
            truth[i]);
      }
    }
    gtable.row(rounds, meter.per_peer(net::TrafficCategory::kGossip),
               percentile(errs, 0.5), percentile(errs, 0.95));
  }
  return 0;
}
