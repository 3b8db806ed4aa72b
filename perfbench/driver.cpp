// The repo benchmark's measuring process: one IFI workload per process.
//
// It builds the workload's inputs (Zipf workload, random tree overlay, BFS
// hierarchy) from the seed, builds the exactness oracle, runs one untimed
// warm-up op and then timed ops in a closed loop — one caller, one op at a
// time — until the run length has elapsed. Every op's answer is checked
// against the oracle and every op's simulated bytes and rounds against the
// warm-up op's; any mismatch counts as a failed op and makes the process
// exit 1.
//
// With --trace 0 the library runs with observability off (obs = nullptr)
// and the result carries the end-to-end metrics. With --trace 1 plain ops
// alternate with traced ops, which attach an obs::Context to read the
// engine's counters and decompose the op into its layer calls; the result
// carries the per-layer metrics, and the plain ops of the same process
// are the base of the tracing-overhead ratio. Spans around every layer
// call are kept in memory and written to --out together with the host
// facts and the metrics.
//
// All timings come from obs::wall_now()/obs::elapsed_ns(), the one clock
// nf-lint allows outside src/obs.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "agg/hierarchy.h"
#include "common/rng.h"
#include "core/naive.h"
#include "core/netfilter.h"
#include "core/query_service.h"
#include "net/topology.h"
#include "obs/clock.h"
#include "obs/context.h"
#include "obs/export.h"
#include "obs/json.h"
#include "workload/workload.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace {

using namespace nf;

// ---------------------------------------------------------------- workloads

struct Spec {
  std::string name;
  std::uint32_t peers = 0;
  std::uint64_t items = 0;
  double instances_per_item = 0.0;
  std::uint32_t g = 0;
  std::uint32_t f = 0;
  std::uint32_t threads = 1;
  bool multiquery = false;
  /// One request per entry; scale and unpruned issue a single request.
  std::vector<core::ConcurrentRequest> requests;
};

// Every workload uses Zipf skew 1 and a random tree with fan-out b = 3.
constexpr double kAlpha = 1.0;
constexpr std::uint32_t kFanout = 3;

// Requests of a multiquery batch: requester 37k+1, theta cycling over four
// values, odd requests with a private filter bank seed.
std::vector<core::ConcurrentRequest> multiquery_requests() {
  constexpr double kThetas[] = {0.005, 0.01, 0.02, 0.05};
  std::vector<core::ConcurrentRequest> out;
  for (std::uint32_t k = 0; k < 8; ++k) {
    core::ConcurrentRequest r{PeerId(37 * k + 1), kThetas[k % 4]};
    if (k % 2 == 1) r.filter_seed = 0x5EED0000ull + k;
    out.push_back(r);
  }
  return out;
}

// `tiny` shrinks every workload to a size that runs in well under a second
// while keeping its shape (the benchmark's own test uses it).
std::optional<Spec> spec_for(std::string_view name, bool tiny) {
  Spec s;
  s.name = std::string(name);
  if (name == "scale") {
    // The alpha=1 point of fig7_million_peers --quick.
    s.peers = tiny ? 2000 : 100000;
    s.items = tiny ? 2000 : 100000;
    s.instances_per_item = static_cast<double>(s.peers) / 1000.0;
    s.g = 100;
    s.f = 5;
    s.threads = 2;
  } else if (name == "unpruned") {
    // Fig. 5(a)'s regime where every item becomes a candidate.
    s.peers = tiny ? 100 : 1000;
    s.items = tiny ? 10000 : 1000000;
    s.instances_per_item = 10.0;
    s.g = 50;
    s.f = 3;
  } else if (name == "multiquery") {
    s.peers = tiny ? 300 : 10000;
    s.items = tiny ? 3000 : 100000;
    s.instances_per_item = tiny ? 10.0 : 100.0;
    s.g = 100;
    s.f = 3;
    s.multiquery = true;
  } else {
    return std::nullopt;
  }
  if (s.multiquery) {
    s.requests = multiquery_requests();
  } else {
    s.requests = {core::ConcurrentRequest{PeerId(0), 0.01}};
  }
  return s;
}

// -------------------------------------------------------------------- spans

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
  int op = -1;      // op id; -1 for set-up
};

// In-memory span recorder. Spans are opened and closed in LIFO order by
// the single benchmark thread, so the open stack gives each span's parent.
class Spans {
 public:
  explicit Spans(obs::WallTime origin) : origin_(origin) {}

  void open(std::string name, int op) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(
        {std::move(name), obs::elapsed_ns(origin_), 0, parent, op});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /// Closes the innermost open span and returns its duration in seconds.
  double close() {
    Span& s = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    s.end_ns = obs::elapsed_ns(origin_);
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

 private:
  obs::WallTime origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Times one call into a layer: a span named `name` under the current open
// span, and its duration in seconds.
template <typename F>
double timed(Spans& spans, const char* name, int op, F&& fn) {
  spans.open(name, op);
  std::forward<F>(fn)();
  return spans.close();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ------------------------------------------------------------------ inputs

struct Env {
  wl::Workload workload;
  net::Overlay overlay;
  agg::Hierarchy hierarchy;
  net::TrafficMeter meter;
};

// The overlay is fixed; --seed varies only the item data. A seed-drawn
// random tree changes the hierarchy depth, and with it every workload's
// round count and op time by up to ~20% from seed to seed, which would
// swamp the run-to-run bounds. 43 is the tree fig7_million_peers draws at
// its default seed 42, so `scale --seed 42` reproduces that bench's
// alpha=1 row byte for byte.
constexpr std::uint64_t kTopologySeed = 43;

// One set-up: generation + topology + hierarchy, each its own span.
std::unique_ptr<Env> set_up(const Spec& s, std::uint64_t seed, Spans& spans) {
  std::optional<wl::Workload> workload;
  timed(spans, "workload.generate", -1, [&] {
    wl::WorkloadConfig cfg;
    cfg.num_peers = s.peers;
    cfg.num_items = s.items;
    cfg.instances_per_item = s.instances_per_item;
    cfg.alpha = kAlpha;
    cfg.seed = seed;
    workload = wl::Workload::generate(cfg);
  });
  std::optional<net::Overlay> overlay;
  timed(spans, "net.topology", -1, [&] {
    Rng rng(kTopologySeed);
    overlay.emplace(net::random_tree(s.peers, kFanout, rng));
  });
  std::optional<agg::Hierarchy> hierarchy;
  timed(spans, "agg.hierarchy", -1, [&] {
    hierarchy = agg::build_bfs_hierarchy(*overlay, PeerId(0));
  });
  return std::make_unique<Env>(Env{std::move(*workload), std::move(*overlay),
                                   std::move(*hierarchy),
                                   net::TrafficMeter(s.peers)});
}

core::NetFilterConfig config_for(const Spec& s,
                                 const core::ConcurrentRequest& r,
                                 obs::Context* obs) {
  core::NetFilterConfig cfg;
  cfg.num_groups = s.g;
  cfg.num_filters = s.f;
  if (r.filter_seed != 0) cfg.filter_seed = r.filter_seed;
  cfg.threads = s.threads;
  cfg.obs = obs;
  return cfg;
}

// ---------------------------------------------------------------------- ops

// What every op is checked on: the exact answer, plus simulated bytes and
// rounds that must repeat exactly from op to op.
struct Outcome {
  bool exact = true;
  double bytes_per_peer = 0.0;
  std::uint64_t rounds = 0;
};

struct Checker {
  std::vector<Value> thresholds;                // per request
  std::vector<ValueMap<ItemId, Value>> oracle;  // per request
  std::optional<Outcome> reference;             // the warm-up op's
  std::optional<Outcome> naive_reference;

  // True when `o` is exact and repeats the reference bytes and rounds.
  bool accept(const Outcome& o, std::optional<Outcome>& ref) {
    if (!ref) ref = o;
    return o.exact && o.bytes_per_peer == ref->bytes_per_peer &&
           o.rounds == ref->rounds;
  }
};

Outcome run_query(const Spec& s, Env& env, const Checker& chk,
                  obs::Context* obs, core::ConcurrentQueryStats* mq_stats,
                  core::NetFilterStats* nf_stats) {
  env.meter.reset();
  Outcome o;
  if (s.multiquery) {
    const core::QueryService service(config_for(s, {}, obs));
    core::ConcurrentQueryStats stats;
    const auto responses = service.serve_concurrent(
        s.requests, env.workload, env.hierarchy, env.overlay, env.meter,
        &stats);
    o.exact = responses.size() == s.requests.size();
    for (std::size_t i = 0; o.exact && i < responses.size(); ++i) {
      o.exact = responses[i].threshold == chk.thresholds[i] &&
                responses[i].frequent == chk.oracle[i];
    }
    std::uint64_t bytes = 0;
    for (const auto& ss : stats.sessions) bytes += ss.traffic.total_bytes();
    o.bytes_per_peer = static_cast<double>(bytes) / s.peers;
    o.rounds = stats.rounds_total;
    if (mq_stats != nullptr) *mq_stats = std::move(stats);
  } else {
    const core::NetFilter nf(config_for(s, s.requests[0], obs));
    const auto res = nf.run(env.workload, env.hierarchy, env.overlay,
                            env.meter, chk.thresholds[0]);
    o.exact = res.frequent == chk.oracle[0];
    o.bytes_per_peer = res.stats.total_cost();
    o.rounds = res.stats.rounds_total;
    if (nf_stats != nullptr) *nf_stats = res.stats;
  }
  return o;
}

// The naive collector at the smallest requested threshold.
Outcome run_naive(Env& env, const Checker& chk) {
  env.meter.reset();
  const core::NaiveCollector naive{WireSizes{}};
  const auto res = naive.run(env.workload, env.hierarchy, env.overlay,
                             env.meter, chk.thresholds[0]);
  return {res.frequent == chk.oracle[0], res.stats.cost_per_peer,
          res.stats.rounds};
}

// ------------------------------------------------------------------ output

struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

obs::Json metrics_json(const Metrics& m) {
  obs::Json out = obs::Json::object();
  for (const auto& [name, metric] : m) {
    obs::Json v = obs::Json::object();
    v["value"] = obs::Json(metric.value);
    v["unit"] = obs::Json(std::string(metric.unit));
    out[name] = std::move(v);
  }
  return out;
}

// Self time of each layer (the span-name prefix before '.'), summed over
// all spans: a span's duration minus what its child spans cover.
std::map<std::string, double> self_time_by_layer(const std::vector<Span>& sp) {
  std::vector<double> self(sp.size());
  for (std::size_t i = 0; i < sp.size(); ++i) {
    self[i] = static_cast<double>(sp[i].end_ns - sp[i].start_ns) * 1e-9;
  }
  for (const Span& s : sp) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < sp.size(); ++i) {
    const std::string& n = sp[i].name;
    out[n.substr(0, n.find('.'))] += self[i];
  }
  return out;
}

obs::Json spans_json(const std::vector<Span>& sp) {
  obs::Json out = obs::Json::array();
  for (const Span& s : sp) {
    obs::Json j = obs::Json::object();
    j["name"] = obs::Json(s.name);
    j["start_ns"] = obs::Json(s.start_ns);
    j["end_ns"] = obs::Json(s.end_ns);
    j["parent"] = obs::Json(static_cast<std::int64_t>(s.parent));
    j["op"] = obs::Json(static_cast<std::int64_t>(s.op));
    out.push_back(std::move(j));
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// The per-layer counts of one traced op. They repeat exactly from op to
// op. For multiquery the candidate counts are summed over the sessions.
Metrics traced_counts(const Spec& s, const obs::Context& ctx,
                      const core::ConcurrentQueryStats& mq,
                      const core::NetFilterStats& st) {
  const auto& reg = ctx.registry;
  const auto counter = [&](const std::string& name) {
    const auto it = reg.counters().find(name);
    return it == reg.counters().end()
               ? 0.0
               : static_cast<double>(it->second.value());
  };
  std::vector<double> busy;
  double idle_max = 0.0;
  for (const auto& [name, gauge] : reg.gauges()) {
    if (name.rfind("engine/shard", 0) != 0) continue;
    if (name.ends_with("/busy_us")) busy.push_back(gauge.value());
    if (name.ends_with("/idle_us")) idle_max = std::max(idle_max, gauge.value());
  }
  std::vector<core::NetFilterStats> sessions;
  if (s.multiquery) {
    for (const auto& ss : mq.sessions) sessions.push_back(ss.netfilter);
  } else {
    sessions.push_back(st);
  }
  double candidates = 0, fps = 0, heavy = 0, frequent = 0;
  std::vector<double> rounds;
  for (const auto& ns : sessions) {
    candidates += static_cast<double>(ns.num_candidates);
    fps += static_cast<double>(ns.num_false_positives);
    heavy += static_cast<double>(ns.heavy_groups_total);
    frequent += static_cast<double>(ns.num_frequent);
    rounds.push_back(static_cast<double>(ns.rounds_total));
  }
  const double round_us = counter("engine/round_us");
  const double overhead_us = counter("obs/overhead_us");
  Metrics m;
  m["core.candidates"] = {candidates, "count"};
  m["core.false_positives"] = {fps, "count"};
  m["core.heavy_groups"] = {heavy, "count"};
  m["core.candidate_precision"] = {
      candidates > 0 ? frequent / candidates : 0.0, "ratio"};
  m["core.session_rounds_max"] = {
      *std::max_element(rounds.begin(), rounds.end()), "rounds"};
  m["core.session_rounds_min"] = {
      *std::min_element(rounds.begin(), rounds.end()), "rounds"};
  m["net.rounds"] = {counter("engine/rounds"), "rounds"};
  m["net.delivered"] = {counter("engine/delivered"), "count"};
  m["net.sent_bytes"] = {counter("engine/sent_bytes"), "B"};
  m["net.round_us"] = {round_us, "us"};
  m["net.shard_busy_max_us"] = {
      busy.empty() ? 0.0 : *std::max_element(busy.begin(), busy.end()), "us"};
  m["net.shard_busy_min_us"] = {
      busy.empty() ? 0.0 : *std::min_element(busy.begin(), busy.end()), "us"};
  m["net.shard_idle_max_us"] = {idle_max, "us"};
  m["net.steady_allocs"] = {counter("engine/steady_allocs"), "count"};
  m["obs.overhead_us"] = {overhead_us, "us"};
  m["obs.overhead_frac"] = {round_us > 0 ? overhead_us / round_us : 0.0,
                            "ratio"};
  m["obs.trace_dropped_events"] = {
      static_cast<double>(ctx.tracer.dropped()), "count"};
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload scale|unpruned|"
               "multiquery --seed N --seconds S --trace 0|1 [--tiny] "
               "[--out PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0) {
    usage("--workload, --seed and a positive --seconds are required");
  }
  return a;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const auto spec = spec_for(args.workload, args.tiny);
  if (!spec) usage("unknown workload");
  const Spec& s = *spec;

  // Host facts travel with every result; timings from a debug or
  // sanitized build are refused outright.
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef PERFBENCH_SANITIZED
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  obs::Json host = obs::Json::object();
  host["nproc"] = obs::Json(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  host["compiler"] = obs::Json(compiler());
  host["ndebug"] = obs::Json(ndebug);
  host["sanitized"] = obs::Json(sanitized);
  host["seed"] = obs::Json(args.seed);
  host["workload"] = obs::Json(s.name);
  host["tiny"] = obs::Json(args.tiny);
  std::cout << "# host " << host.dump() << "\n";
  if (!ndebug || sanitized) {
    std::cerr << "perfbench_driver: refusing to time a build without NDEBUG "
                 "or with sanitizers\n";
    return 3;
  }

  const obs::WallTime origin = obs::wall_now();
  Spans spans(origin);

  // Set-up, repeated; the median is setup_s. Each earlier Env is freed
  // before the next is built so peak memory holds one copy.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int k = 0; k < kSetups; ++k) {
    env.reset();
    setup_s.push_back(timed(spans, "bench.setup", -1,
                            [&] { env = set_up(s, args.seed, spans); }));
  }

  // The oracle, outside every timed region.
  Checker chk;
  timed(spans, "workload.oracle", -1, [&] {
    for (const auto& r : s.requests) {
      chk.thresholds.push_back(env->workload.threshold_for(r.theta));
      chk.oracle.push_back(
          env->workload.frequent_items(chk.thresholds.back()));
    }
  });

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int op = 0;
  const char* query_span = s.multiquery ? "core.serve" : "core.run";
  // One plain op, observability off: the query, then the naive collector.
  // Returns their wall times in seconds.
  const auto plain_op = [&](const char* name) {
    spans.open(name, op);
    Outcome q, n;
    const double tq = timed(spans, query_span, op, [&] {
      q = run_query(s, *env, chk, nullptr, nullptr, nullptr);
    });
    const double tn =
        timed(spans, "core.naive", op, [&] { n = run_naive(*env, chk); });
    spans.close();
    ++attempted;
    ++op;
    if (!chk.accept(q, chk.reference) ||
        !chk.accept(n, chk.naive_reference)) {
      ++failed;
    }
    return std::pair{tq, tn};
  };

  // Untimed warm-up; it fixes the reference bytes and rounds.
  (void)plain_op("bench.warmup");

  std::vector<double> query_s, naive_s;
  // Traced-run samples.
  std::vector<double> traced_s, filter_s, verify_s, export_s, b2b_s;
  Metrics layer;
  const obs::WallTime loop_start = obs::wall_now();
  const auto budget_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  while (query_s.empty() || (args.trace && traced_s.empty()) ||
         obs::elapsed_ns(loop_start) < budget_ns) {
    const auto [tq, tn] = plain_op("bench.op");
    query_s.push_back(tq);
    naive_s.push_back(tn);
    if (!args.trace) continue;

    // Traced op: the same query with an obs::Context attached, then the
    // op decomposed into its layer calls with observability off again.
    spans.open("bench.traced_op", op);
    obs::Context ctx;
    core::ConcurrentQueryStats mq;
    core::NetFilterStats st;
    Outcome t;
    traced_s.push_back(timed(spans, query_span, op, [&] {
      t = run_query(s, *env, chk, &ctx, &mq, &st);
    }));
    bool ok = chk.accept(t, chk.reference);
    export_s.push_back(timed(spans, "obs.export", op, [&] {
      obs::ExportBundle bundle;
      bundle.bench = "perfbench";
      bundle.obs = &ctx;
      (void)obs::to_json(bundle).dump();
    }));

    // Barriered Phase 1 and Phase 2 of the first request.
    {
      const core::NetFilter nf(config_for(s, s.requests[0], nullptr));
      core::HeavyGroupSet heavy;
      core::NetFilterStats fst;
      env->meter.reset();
      filter_s.push_back(timed(spans, "core.filter", op, [&] {
        heavy = nf.filter_candidates(env->workload, env->hierarchy,
                                     env->overlay, env->meter,
                                     chk.thresholds[0], &fst);
      }));
      verify_s.push_back(timed(spans, "core.verify", op, [&] {
        const auto res = nf.verify_candidates(
            env->workload, env->hierarchy, env->overlay, env->meter,
            chk.thresholds[0], heavy, fst);
        ok = ok && res.frequent == chk.oracle[0];
      }));
    }
    // The batch's requests as separate NetFilter::run calls. A
    // single-request op already is one such call: its plain timing is
    // the back-to-back time, so it is not run again.
    if (s.multiquery) {
      b2b_s.push_back(timed(spans, "core.back_to_back", op, [&] {
        for (std::size_t i = 0; i < s.requests.size(); ++i) {
          env->meter.reset();
          const core::NetFilter nf(config_for(s, s.requests[i], nullptr));
          const auto res = nf.run(env->workload, env->hierarchy, env->overlay,
                                  env->meter, chk.thresholds[i]);
          ok = ok && res.frequent == chk.oracle[i];
        }
      }));
    }
    spans.close();
    ++attempted;
    ++op;
    if (!ok) ++failed;
    layer = traced_counts(s, ctx, mq, st);
  }

  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  Metrics out;
  if (!args.trace) {
    out["setup_s"] = {median(setup_s), "s"};
    out["query_s"] = {median(query_s), "s"};
    out["naive_s"] = {median(naive_s), "s"};
    out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    out["bytes_per_peer"] = {chk.reference->bytes_per_peer, "B"};
    out["rounds"] = {static_cast<double>(chk.reference->rounds), "rounds"};
  } else {
    out = layer;
    const auto span_median = [&](std::string_view name) {
      std::vector<double> v;
      for (const Span& sp : spans.all()) {
        if (sp.name == name) v.push_back(static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9);
      }
      return median(v);
    };
    out["workload.generate_s"] = {span_median("workload.generate"), "s"};
    out["net.topology_s"] = {span_median("net.topology"), "s"};
    out["agg.hierarchy_s"] = {span_median("agg.hierarchy"), "s"};
    out["core.filter_s"] = {median(filter_s), "s"};
    out["core.verify_s"] = {median(verify_s), "s"};
    out["core.back_to_back_s"] = {s.multiquery ? median(b2b_s) : median(query_s), "s"};
    const double plain_ns = median(query_s) * 1e9;
    const double delivered = out["net.delivered"].value;
    const double rounds = out["net.rounds"].value;
    out["net.ns_per_msg"] = {delivered > 0 ? plain_ns / delivered : 0.0, "ns"};
    out["net.ns_per_peer_round"] = {rounds > 0 ? plain_ns / (rounds * s.peers) : 0.0, "ns"};
    out["obs.tracing_overhead_frac"] = {median(traced_s) / median(query_s) - 1.0, "ratio"};
    out["obs.export_s"] = {median(export_s), "s"};
  }

  // Human-readable summary, then the record file, then the result line.
  std::cout << "# " << s.name << ": ops=" << query_s.size()
            << " attempted=" << attempted << " failed=" << failed
            << " failed_frac=" << failed_frac
            << " naive_bytes_per_peer=" << chk.naive_reference->bytes_per_peer
            << "\n";
  for (const auto& [name, m] : out) {
    std::cout << "#   " << name << " = " << m.value << " " << m.unit << "\n";
  }
  if (args.trace) {
    std::cout << "# self time by layer (s, all spans of this run):\n";
    for (const auto& [l, t] : self_time_by_layer(spans.all())) {
      std::cout << "#   " << l << " " << t << "\n";
    }
  }
  if (!args.out.empty()) {
    obs::Json rec = obs::Json::object();
    rec["host"] = host;
    rec["attempted"] = obs::Json(attempted);
    rec["failed"] = obs::Json(failed);
    rec["metrics"] = metrics_json(out);
    obs::Json self = obs::Json::object();
    for (const auto& [l, t] : self_time_by_layer(spans.all())) self[l] = obs::Json(t);
    rec["self_time_s"] = std::move(self);
    rec["spans"] = spans_json(spans.all());
    std::ofstream f(args.out);
    f << rec.dump() << "\n";
    if (!f) std::cerr << "perfbench_driver: could not write " << args.out << "\n";
  }
  obs::Json result = obs::Json::object();
  result["correct"] = obs::Json(failed == 0);
  result["attempted"] = obs::Json(attempted);
  result["failed"] = obs::Json(failed);
  result["metrics"] = metrics_json(out);
  std::cout << result.dump() << std::endl;
  return failed == 0 ? 0 : 1;
}
