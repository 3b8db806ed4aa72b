// Round-based message-passing engine with a sharded, parallel-ready core.
//
// The simulator advances in synchronous rounds, the standard model for
// evaluating P2P aggregation protocols: a message sent in round r is
// delivered at the start of round r+1 (or later under the link model) if
// its destination is then alive. A run drives one net::SessionMux
// (net/session.h): the engine calls its `on_round(ctx)` once per alive peer
// per round and its `on_message(ctx, env)` for each delivered envelope, and
// the mux routes both to the Phase components of its sessions by the
// envelopes' (session, phase) tags. A lone phase runs through
// net::run_phase, a mux of one.
//
// Execution model (serial and sharded runs share one code path):
//   1. churn + round bookkeeping              (engine thread)
//   2. predispatch: drops, loss, ACK/dup
//      bookkeeping; route deliveries to the
//      destination peer's shard               (engine thread)
//   3. deliver + tick each shard's peers      (worker pool, K shards)
//   4. barrier merge: order every send by its
//      canonical key, then charge the meter
//      and admit it to the network            (engine thread)
//
// Determinism contract: a K-shard run is bit-identical to the serial run —
// same envelope stream, same meter totals, same protocol results. The
// engine guarantees its half by (a) sharding peers into contiguous id
// ranges, (b) tagging every send with a canonical (major, minor) key —
// delivery index or tick slot, plus per-callback sequence — and merging
// shard outboxes in key order at the barrier, (c) keeping all shared
// bookkeeping (meter, reliability, latency, msg ids) on the engine thread,
// and (d) drawing loss decisions from a stateless counter-keyed hash
// stream instead of a sequential RNG. Protocols supply the other half; see
// DESIGN.md "Execution model" for the rules (per-peer state in arenas,
// commutative shared counters, per-peer RNG streams).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/capability.h"
#include "common/ids.h"
#include "common/rng.h"
#include "net/churn.h"
#include "net/envelope.h"
#include "net/link_model.h"
#include "net/metrics.h"
#include "net/overlay.h"
#include "net/shard.h"
#include "obs/context.h"

namespace nf::net {

/// Opt-in unreliable-link model with an automatic reliability layer.
///
/// With `loss_probability > 0` every transmission (data and ACK alike) is
/// dropped independently with that probability. The engine then behaves
/// like a reliable transport: each delivered message is acknowledged
/// (`ack_bytes` charged to the receiver, category kControl), unacked
/// messages are retransmitted after `retransmit_after` rounds (re-charging
/// the sender), and receiver-side duplicate suppression keeps protocols
/// exactly-once — so every protocol in the library runs unmodified over
/// lossy links, paying for the losses in bytes and rounds instead of
/// correctness. `bench/ablation_loss` measures that price.
///
/// Loss draws come from a per-transmission hash stream keyed by (seed,
/// transmission counter), so they are independent of delivery order and
/// identical across serial and sharded runs.
struct LinkFaultModel {
  double loss_probability = 0.0;
  std::uint32_t ack_bytes = 4;
  std::uint32_t retransmit_after = 2;  ///< rounds without ACK before resend
  std::uint32_t max_retries = 50;      ///< then give up (dest likely dead)
  std::uint64_t seed = 0xACC1DE57ull;
};

class Engine;
class SessionMux;

/// Per-peer view handed to protocol callbacks. Sends are buffered in the
/// executing shard's outbox, then metered and admitted to the network in
/// canonical order at the round barrier.
class Context {
 public:
  NF_REENTRANT [[nodiscard]] PeerId self() const { return self_; }
  NF_REENTRANT [[nodiscard]] std::uint64_t round() const;
  NF_REENTRANT [[nodiscard]] const Overlay& overlay() const;
  NF_REENTRANT [[nodiscard]] const std::vector<PeerId>& neighbors() const;
  NF_REENTRANT [[nodiscard]] bool is_alive(PeerId p) const;

  /// Lineage id of the delivered message this callback is handling, or
  /// kNoLineage for round ticks (and runs without an obs context). Sends
  /// made from this context inherit it as their causal parent.
  NF_REENTRANT [[nodiscard]] obs::LineageId cause() const { return cause_; }

  /// A writer into the executing shard's outbox slab. Encode the payload,
  /// finish() for the PayloadRef, and pass it to send_flat_tagged(). Refs
  /// are only valid to send from this same callback (the slab resets next
  /// round).
  NF_REENTRANT [[nodiscard]] PayloadWriter flat_payload();

  /// Resolves a delivered envelope's flat payload to bytes. Empty span when
  /// the envelope carries none.
  NF_REENTRANT [[nodiscard]] std::span<const std::uint8_t> payload_bytes(
      const Envelope& env) const;

  /// Queues a message whose payload is a flat slab ref (net/payload.h),
  /// tagged with the (session, phase) pair a SessionMux (net/session.h)
  /// routes it by. Its bytes are metered at the round barrier, where the
  /// engine copies the referenced span into the destination transit-ring
  /// slot — no owning object is ever constructed. `parents` is the causal
  /// parent set: parents[0] becomes the primary parent, the rest are
  /// recorded as sampled extra edges, and zero ids are ignored, so callers
  /// push causes unconditionally.
  NF_REENTRANT void send_flat_tagged(PeerId to, TrafficCategory category,
                                     std::uint64_t bytes, PayloadRef flat,
                                     SessionId session, PhaseId phase,
                                     std::span<const obs::LineageId> parents);

 private:
  friend class Engine;

  /// A buffered send tagged with its canonical merge key. `major` is the
  /// slot of the callback that produced it (delivery index or tick slot),
  /// `minor` the send's sequence within that callback — together a total
  /// order identical to the serial engine's send order.
  struct KeyedSend {
    std::uint64_t major;
    std::uint32_t minor;
    std::uint32_t is_ack;      // engine-generated ACK (predispatch only)
    std::uint64_t ack_msg_id;  // msg id being acknowledged (ACKs only)
    Envelope envelope;
    /// Primary causal parent; the envelope's own lineage id is assigned at
    /// the merge barrier, in canonical order.
    obs::LineageId parent = obs::kNoLineage;
    /// Parents beyond the first (multi-parent merges); usually empty.
    std::vector<obs::LineageId> extra_parents{};
  };

  Context(Engine& engine, PeerId self, std::vector<KeyedSend>* outbox,
          SlabArena* slab,
          std::uint32_t slab_id, std::uint64_t major, std::uint32_t first_minor,
          obs::LineageId cause)
      : engine_(engine),
        self_(self),
        outbox_(outbox),
        slab_(slab),
        slab_id_(slab_id),
        major_(major),
        next_minor_(first_minor),
        cause_(cause) {}

  Engine& engine_;
  PeerId self_;
  std::vector<KeyedSend>* outbox_;
  SlabArena* slab_;
  std::uint32_t slab_id_;
  std::uint64_t major_;
  std::uint32_t next_minor_;
  obs::LineageId cause_ = obs::kNoLineage;
};

class Engine {
 public:
  Engine(Overlay& overlay, TrafficMeter& meter);

  /// Runs `mux` until quiescence (no messages in flight, every phase of
  /// every session done) or `max_rounds`, whichever first. Returns rounds
  /// executed. Churn events in `schedule` whose round falls inside the run
  /// are applied at the start of the matching round.
  NF_ENGINE_THREAD std::uint64_t run(SessionMux& mux,
                                     std::uint64_t max_rounds,
                                     const ChurnSchedule* schedule = nullptr);

  /// Stable during the parallel phase; safe to read from shard callbacks.
  NF_REENTRANT [[nodiscard]] std::uint64_t round() const { return round_; }
  NF_REENTRANT [[nodiscard]] Overlay& overlay() { return overlay_; }
  NF_REENTRANT [[nodiscard]] const Overlay& overlay() const {
    return overlay_;
  }
  [[nodiscard]] TrafficMeter& meter() { return meter_; }

  /// Messages dropped because the destination was dead on delivery.
  [[nodiscard]] std::uint64_t dropped_messages() const { return dropped_; }

  /// Runs protocol callbacks on `threads` shards (1 = serial, the default).
  /// Any K produces bit-identical results; K > 1 spawns K-1 pool workers
  /// (the engine thread drives the remaining shard). Must be called before
  /// run().
  NF_ENGINE_THREAD void set_threads(std::uint32_t threads);
  [[nodiscard]] std::uint32_t threads() const { return threads_; }

  /// Enables the lossy-link model. Must be called before run().
  NF_ENGINE_THREAD void set_fault_model(const LinkFaultModel& model);

  /// Sets the full link model: per-link propagation delay plus per-link
  /// capacity (bytes/round) with a bounded backlog. Under a capacity-
  /// limited model every admission runs through the link scheduler: a
  /// message of s bytes on a link with capacity c and backlog q delivers
  /// after delay + ceil((q+s)/c) - 1 extra rounds, in canonical admission
  /// order, and each link drains c bytes at every round barrier — all on
  /// the engine thread, so congested runs stay bit-identical for any
  /// thread count. The default model reproduces the historical synchronous
  /// engine exactly. Must be called before run().
  NF_ENGINE_THREAD void set_link_model(const LinkModel& model);
  [[nodiscard]] const LinkModel& link_model() const { return link_; }

  /// Diagnostics for the link scheduler (0 under infinite capacity).
  /// queue_delay_rounds(): total extra rounds messages spent queued behind
  /// link backlogs; clamped_backlog_bytes(): backlog bytes beyond the
  /// max_backlog_rounds horizon (forgiven, not dropped — a measure of how
  /// far past the model's bound the offered load pushed).
  [[nodiscard]] std::uint64_t queued_messages() const { return queued_msgs_; }
  [[nodiscard]] std::uint64_t queue_delay_rounds() const {
    return queue_delay_rounds_;
  }
  [[nodiscard]] std::uint64_t clamped_backlog_bytes() const {
    return clamped_bytes_;
  }
  /// Current total backlog across all links (end of last round).
  [[nodiscard]] std::uint64_t backlog_bytes() const { return backlog_bytes_; }

  /// Attaches an observability context (nullptr detaches). The engine then
  /// counts sends/deliveries/rounds/bytes, histograms message sizes, stamps
  /// the tracer's logical clock at every round boundary, and drives the
  /// context's TimeSeries once per round (per-round deliveries, sends,
  /// bytes, in-flight messages, and per-shard busy wall time — stamped with
  /// the tracer clock so series from successive engines sharing one context
  /// stay strictly ordered). Per-shard busy/idle wall time accumulates into
  /// `engine/shard<k>/busy_us` / `idle_us` gauges so `--threads=K`
  /// imbalance is visible in reports. Metric handles are cached here so the
  /// per-message cost is an increment, not a map lookup.
  NF_ENGINE_THREAD void set_obs(obs::Context* obs);

  /// Observes every transmission the engine admits to the network (data,
  /// ACKs and retransmissions alike), in canonical order — the hook the
  /// golden determinism tests record envelope streams through. Pass an
  /// empty function to detach.
  NF_ENGINE_THREAD void set_send_probe(
      std::function<void(const Envelope&)> probe);

  /// Resolves a flat payload ref against the engine's slab table. Valid for
  /// shard-slab refs during the round that produced them and for ring-slab
  /// refs until their delivery round completes. Empty span for kNoSlab.
  NF_REENTRANT [[nodiscard]] std::span<const std::uint8_t> resolve(
      const PayloadRef& ref) const;

  /// Marks warm-up as finished: from the next round on, heap allocations
  /// made inside the round loop (observed via common/alloc_hook.h when the
  /// nf_alloc_hook override is linked) accumulate into steady_allocs() and
  /// the `engine/steady_allocs` obs counter. A loss-free flat-payload run
  /// on a warmed engine performs none — tests/steady_alloc_test.cpp is the
  /// gate. Also equalizes transit-ring capacities: a run's heaviest round
  /// warms only the ring slot its parity happens to land on, and the next
  /// run may land it on another.
  NF_ENGINE_THREAD void begin_steady_state();
  [[nodiscard]] std::uint64_t steady_allocs() const { return steady_allocs_; }

  /// Diagnostics for the reliability layer (0 when the model is off).
  [[nodiscard]] std::uint64_t lost_transmissions() const { return lost_; }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_;
  }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return duplicates_;
  }
  [[nodiscard]] std::uint64_t given_up() const { return given_up_; }

 private:
  friend class Context;

  /// A transmission admitted to the network, waiting for its delivery
  /// round.
  struct Outgoing {
    Envelope envelope;
    std::uint64_t msg_id = 0;  // reliability id; 0 = unreliable or unset
    bool is_ack = false;
    bool lost = false;  // loss drawn at admission, applied at delivery
  };

  /// An unacknowledged reliable message, kept per sender for retransmit.
  struct Pending {
    Outgoing message;  // pristine copy (lost flag clear)
    std::uint64_t next_retry;
    std::uint32_t attempts;
    /// Owning copy of the flat payload span (slab refs don't outlive their
    /// round); retransmissions copy it into a fresh ring-slot ref.
    std::vector<std::uint8_t> flat_bytes{};
  };

  /// A delivery routed to a shard: `index` is the message's position in
  /// this round's inbox — the major key for sends its handler makes.
  struct Delivery {
    std::uint64_t index;
    Outgoing out;
  };

  struct ShardScratch {
    std::vector<Delivery> inq;
    std::vector<Context::KeyedSend> outbox;
  };

  NF_ENGINE_THREAD void predispatch(std::vector<Outgoing>& inbox,
                                    const ShardPlan& plan);
  NF_SHARD_CONTEXT void run_shard(SessionMux& mux, std::uint32_t shard,
                                  const ShardPlan& plan,
                                  std::uint64_t tick_base);
  NF_ENGINE_THREAD NF_STEADY_NOALLOC void merge_and_finalize();
  /// `flat_bytes` is the payload span to copy into the destination ring
  /// slot (empty unless out.envelope.flat is valid).
  NF_ENGINE_THREAD NF_STEADY_NOALLOC void admit(
      Outgoing&& out, std::span<const std::uint8_t> flat_bytes);
  NF_ENGINE_THREAD void scan_retransmissions();
  NF_ENGINE_THREAD void drain_link_queues();
  NF_ENGINE_THREAD void ack_received(PeerId original_sender,
                                     std::uint64_t msg_id);
  NF_ENGINE_THREAD [[nodiscard]] bool draw_loss();
  NF_ENGINE_THREAD [[nodiscard]] std::vector<Outgoing>& bucket_at(
      std::uint64_t round);
  NF_ENGINE_THREAD [[nodiscard]] SlabArena& ring_slab_at(
      std::uint64_t round);

  Overlay& overlay_;
  TrafficMeter& meter_;
  obs::Context* obs_ = nullptr;
  obs::Counter* obs_sent_ = nullptr;
  obs::Counter* obs_delivered_ = nullptr;
  obs::Counter* obs_rounds_ = nullptr;
  obs::Counter* obs_sent_bytes_ = nullptr;
  obs::Histogram* obs_msg_bytes_ = nullptr;
  obs::Gauge* obs_in_flight_ = nullptr;
  /// Lineage hooks (nullptr when obs is detached). All recorder writes
  /// happen on the engine thread: id assignment at the merge barrier,
  /// delivery marks in predispatch.
  obs::LineageRecorder* lineage_ = nullptr;
  std::uint64_t lineage_clock_ = 0;  // tracer clock, cached once per round
  /// Topology telemetry (nullptr when obs is detached): the per-level
  /// matrix and heavy-hitter link summary are charged on the engine thread
  /// in canonical merge order only — merge_and_finalize() and
  /// scan_retransmissions(); nf-lint flags charges anywhere else.
  obs::LinkStats* link_stats_ = nullptr;
  /// Obs self-overhead meter: wall time spent inside the engine's obs-only
  /// blocks (round stamping, shard-gauge fold, link charging, series
  /// sampling), accumulated in nanoseconds and reported as whole
  /// microseconds into `obs/overhead_us`; `engine/round_us` carries the
  /// whole-round wall time as the denominator for the CI overhead budget.
  obs::Counter* obs_overhead_us_ = nullptr;
  obs::Counter* obs_round_us_ = nullptr;
  std::uint64_t round_obs_ns_ = 0;  // this round's obs-block nanoseconds
  std::uint64_t overhead_ns_total_ = 0;
  std::uint64_t overhead_us_reported_ = 0;
  std::uint64_t round_ns_total_ = 0;
  std::uint64_t round_us_reported_ = 0;
  // Per-shard wall-time accounting (obs-only). Each worker writes its own
  // shard's slot during the parallel phase; the engine thread folds the
  // slots into the cumulative busy/idle gauges at the barrier.
  std::vector<obs::Gauge*> obs_shard_busy_;
  std::vector<obs::Gauge*> obs_shard_idle_;
  std::vector<std::uint64_t> shard_busy_us_;
  std::function<void(const Envelope&)> send_probe_;

  // Sharded execution.
  std::uint32_t threads_ = 1;
  std::unique_ptr<ShardPool> pool_;
  std::vector<ShardScratch> shards_;
  std::vector<Context::KeyedSend> engine_sends_;  // ACKs, this round
  std::vector<Context::KeyedSend> merge_scratch_;
  std::uint64_t tick_base_ = 0;  // this round's inbox size, for tick majors

  // Flat-payload slabs (net/payload.h), all high-water-mark reset so the
  // steady state never reallocates. Shard slabs hold payloads written
  // during the parallel phase (id = shard index, reset each predispatch);
  // ring-slot slabs hold in-transit payload spans copied at the merge
  // barrier in canonical order — so slab offsets, like everything else, are
  // bit-identical for any shard count (id = kRingSlabBase + slot, reset
  // when the slot's delivery round completes).
  std::vector<SlabArena> shard_slabs_;
  std::vector<SlabArena> ring_slabs_;

  // Transmissions in transit, bucketed by delivery round modulo the ring
  // size (a dense replacement for a round-keyed hash map; the ring spans
  // the maximum link delay).
  std::vector<std::vector<Outgoing>> transit_ring_;
  std::vector<Outgoing> inbox_scratch_;  // swapped with the drained bucket
  std::uint64_t in_transit_ = 0;

  // Steady-state allocation accounting (begin_steady_state()).
  bool steady_ = false;
  std::uint64_t steady_allocs_ = 0;
  obs::Counter* obs_steady_allocs_ = nullptr;

  // Link model (delay + capacity). link_delay_on_ short-circuits the
  // per-send delay draw when every link is delay 1; link_capacity_on_
  // gates the whole scheduler, so the infinite-capacity default costs
  // nothing and reproduces the historical engine bit-for-bit.
  LinkModel link_{};
  bool link_delay_on_ = false;
  bool link_capacity_on_ = false;
  // Per-link backlog ledger. Engine-thread-only, canonical admission order
  // (schedule in admit(), drain at the round barrier) — nf-lint's
  // nf-link-model check flags mutation outside net/engine.cpp.
  LinkQueueTable link_queues_;
  std::uint64_t queued_msgs_ = 0;
  std::uint64_t queue_delay_rounds_ = 0;
  std::uint64_t clamped_bytes_ = 0;
  std::uint64_t backlog_bytes_ = 0;
  std::vector<std::uint64_t> backlog_by_level_;  // drain scratch, obs only
  obs::Counter* obs_queued_msgs_ = nullptr;
  obs::Counter* obs_queue_delay_ = nullptr;
  obs::Counter* obs_clamped_bytes_ = nullptr;
  obs::Gauge* obs_backlog_bytes_ = nullptr;
  std::uint64_t round_{0};
  std::uint64_t dropped_{0};

  // Reliability layer (active iff fault_.loss_probability > 0). All state
  // is dense per-peer-index: unacked messages per sender, seen reliable
  // msg ids (sorted) per receiver.
  LinkFaultModel fault_{};
  bool lossy_ = false;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t next_transmission_ = 0;  // loss-stream counter
  std::vector<std::vector<Pending>> pending_by_sender_;
  std::uint64_t pending_count_ = 0;
  std::vector<std::vector<std::uint64_t>> seen_by_receiver_;
  std::uint64_t lost_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t given_up_ = 0;
};

}  // namespace nf::net
