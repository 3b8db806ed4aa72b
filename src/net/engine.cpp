#include "net/engine.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "common/alloc_hook.h"
#include "common/error.h"
#include "common/hashing.h"
#include "net/session.h"
#include "obs/clock.h"

namespace nf::net {

// LinkStats sizes its category axis without including net headers; make
// sure every TrafficCategory fits it.
static_assert(kNumTrafficCategories <= obs::LinkStats::kMaxCategories,
              "obs::LinkStats::kMaxCategories too small for TrafficCategory");

std::uint64_t Context::round() const { return engine_.round(); }

const Overlay& Context::overlay() const { return engine_.overlay(); }

const std::vector<PeerId>& Context::neighbors() const {
  return engine_.overlay().neighbors(self_);
}

bool Context::is_alive(PeerId p) const {
  return engine_.overlay().is_alive(p);
}

PayloadWriter Context::flat_payload() {
  ensure(slab_ != nullptr, "no slab bound to this context");
  return PayloadWriter(*slab_, slab_id_);
}

std::span<const std::uint8_t> Context::payload_bytes(
    const Envelope& env) const {
  return engine_.resolve(env.flat);
}

void Context::send_flat_tagged(PeerId to, TrafficCategory category,
                               std::uint64_t bytes, PayloadRef flat,
                               SessionId session, PhaseId phase,
                               std::span<const obs::LineageId> parents) {
  KeyedSend ks{.major = major_,
               .minor = next_minor_++,
               .is_ack = 0,
               .ack_msg_id = 0,
               .envelope = Envelope{.from = self_,
                                    .to = to,
                                    .category = category,
                                    .bytes = bytes,
                                    .flat = flat,
                                    .session = session,
                                    .phase = phase}};
  // First nonzero parent becomes the primary; the rest go to the sampled
  // extra-edge store. Zero ids (round-originated causes) are skipped so
  // callers can push causes unconditionally.
  for (const obs::LineageId p : parents) {
    if (p == obs::kNoLineage) continue;
    if (ks.parent == obs::kNoLineage) {
      ks.parent = p;
    } else if (p != ks.parent) {
      // Only multi-parent merges (convergecast forwards under lineage)
      // reach here; flat steady-state sends carry exactly one parent.
      // nf-lint: nf-cap-noalloc-ok
      ks.extra_parents.push_back(p);
    }
  }
  // The per-shard outbox is cleared at every barrier but never shrunk, so
  // its capacity persists after warm-up (steady_alloc_test is the gate).
  // nf-lint: nf-cap-noalloc-ok
  outbox_->push_back(std::move(ks));
}

Engine::Engine(Overlay& overlay, TrafficMeter& meter)
    : overlay_(overlay), meter_(meter) {
  require(meter.num_peers() == overlay.num_peers(),
          "meter and overlay disagree on peer count");
  transit_ring_.resize(2);  // delay-1 traffic: drain bucket r, fill r+1
  ring_slabs_.resize(2);
}

void Engine::set_threads(std::uint32_t threads) {
  require(threads >= 1, "threads must be >= 1");
  if (threads == threads_) return;
  threads_ = threads;
  pool_.reset();
  // The engine thread drives one shard itself, so K shards need K-1 workers.
  if (threads_ > 1) pool_ = std::make_unique<ShardPool>(threads_ - 1);
}

void Engine::set_link_model(const LinkModel& model) {
  require(model.min_delay >= 1, "latency must be at least one round");
  require(model.max_delay >= model.min_delay,
          "max_delay must be >= min_delay");
  require(model.max_backlog_rounds >= 1, "max_backlog_rounds must be >= 1");
  require(in_transit_ == 0,
          "cannot change the link model with messages in transit");
  link_ = model;
  link_delay_on_ = model.max_delay > 1;
  link_capacity_on_ = model.capacity_limited();
  // The transit ring must span the farthest admissible delivery offset:
  // max_delay alone for the infinite-capacity path (identical ring
  // geometry to the historical engine — slab offsets and reports stay
  // bit-for-bit), plus the backlog horizon when links can queue.
  const std::size_t span =
      link_capacity_on_
          ? static_cast<std::size_t>(model.max_delay) +
                model.max_backlog_rounds
          : static_cast<std::size_t>(model.max_delay) + 1;
  transit_ring_.assign(std::max<std::size_t>(2, span), {});
  ring_slabs_.assign(transit_ring_.size(), {});
  if (link_capacity_on_) {
    link_queues_.configure(overlay_.num_peers());
  } else {
    link_queues_ = LinkQueueTable{};
  }
}

void Engine::set_fault_model(const LinkFaultModel& model) {
  require(model.loss_probability >= 0.0 && model.loss_probability < 1.0,
          "loss probability must be in [0, 1)");
  require(model.retransmit_after >= 1, "retransmit_after must be >= 1");
  require(model.max_retries >= 1, "max_retries must be >= 1");
  fault_ = model;
  lossy_ = model.loss_probability > 0.0;
}

void Engine::set_obs(obs::Context* obs) {
  obs_ = obs;
  lineage_ = obs != nullptr ? &obs->lineage : nullptr;
  obs_shard_busy_.clear();
  obs_shard_idle_.clear();
  // Overhead bookkeeping is per-attachment: the counters live in the
  // context, the ns accumulators here, so a stale reported watermark from a
  // previous context would make the first delta wrap.
  round_obs_ns_ = 0;
  overhead_ns_total_ = 0;
  overhead_us_reported_ = 0;
  round_ns_total_ = 0;
  round_us_reported_ = 0;
  if (obs == nullptr) {
    obs_sent_ = nullptr;
    obs_delivered_ = nullptr;
    obs_rounds_ = nullptr;
    obs_sent_bytes_ = nullptr;
    obs_msg_bytes_ = nullptr;
    obs_in_flight_ = nullptr;
    obs_steady_allocs_ = nullptr;
    link_stats_ = nullptr;
    obs_overhead_us_ = nullptr;
    obs_round_us_ = nullptr;
    obs_queued_msgs_ = nullptr;
    obs_queue_delay_ = nullptr;
    obs_clamped_bytes_ = nullptr;
    obs_backlog_bytes_ = nullptr;
    return;
  }
  obs_steady_allocs_ = &obs->registry.counter("engine/steady_allocs");
  obs_sent_ = &obs->registry.counter("engine/sent");
  obs_delivered_ = &obs->registry.counter("engine/delivered");
  obs_rounds_ = &obs->registry.counter("engine/rounds");
  obs_sent_bytes_ = &obs->registry.counter("engine/sent_bytes");
  obs_msg_bytes_ = &obs->registry.histogram("engine/msg_bytes");
  obs_in_flight_ = &obs->registry.gauge("engine/in_flight");
  link_stats_ = &obs->link_stats;
  obs_overhead_us_ = &obs->registry.counter("obs/overhead_us");
  obs_round_us_ = &obs->registry.counter("engine/round_us");
  // Link-scheduler telemetry (all zero under infinite capacity).
  obs_queued_msgs_ = &obs->registry.counter("engine/congestion/queued_msgs");
  obs_queue_delay_ =
      &obs->registry.counter("engine/congestion/queue_delay_rounds");
  obs_clamped_bytes_ =
      &obs->registry.counter("engine/congestion/clamped_bytes");
  obs_backlog_bytes_ = &obs->registry.gauge("engine/backlog_bytes");
  // Built-in engine series. Successive engines sharing one context rebind
  // these columns (re-baselining the counters), so deltas keep flowing.
  obs->series.track_counter("engine/sent", obs_sent_);
  obs->series.track_counter("engine/delivered", obs_delivered_);
  obs->series.track_counter("engine/sent_bytes", obs_sent_bytes_);
  obs->series.track_gauge("engine/in_flight", obs_in_flight_);
  obs->series.track_counter("obs/overhead_us", obs_overhead_us_);
  // nf-lint: nf-obs-context-ok (guarded by the early return at the top)
  obs->series.track_counter("engine/round_us", obs_round_us_);
  // nf-lint: nf-obs-context-ok (guarded by the early return at the top)
  obs->series.track_gauge("engine/backlog_bytes", obs_backlog_bytes_);
  // nf-lint: nf-obs-context-ok (guarded by the early return at the top)
  obs->series.track_counter("engine/congestion/queue_delay_rounds",
                            obs_queue_delay_);
}

void Engine::set_send_probe(std::function<void(const Envelope&)> probe) {
  send_probe_ = std::move(probe);
}

std::vector<Engine::Outgoing>& Engine::bucket_at(std::uint64_t round) {
  return transit_ring_[static_cast<std::size_t>(round % transit_ring_.size())];
}

SlabArena& Engine::ring_slab_at(std::uint64_t round) {
  return ring_slabs_[static_cast<std::size_t>(round % ring_slabs_.size())];
}

std::span<const std::uint8_t> Engine::resolve(const PayloadRef& ref) const {
  if (!ref.valid()) return {};
  if (ref.slab >= kRingSlabBase) {
    const std::size_t slot = ref.slab - kRingSlabBase;
    ensure(slot < ring_slabs_.size(), "bad ring slab id");
    return ring_slabs_[slot].view(ref.offset, ref.length);
  }
  ensure(ref.slab < shard_slabs_.size(), "bad shard slab id");
  return shard_slabs_[ref.slab].view(ref.offset, ref.length);
}

void Engine::ack_received(PeerId original_sender, std::uint64_t msg_id) {
  auto& list = pending_by_sender_[original_sender.value()];
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].message.msg_id == msg_id) {
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
      --pending_count_;
      return;
    }
  }
  // Unmatched ACK: a duplicate for a message already acknowledged.
}

void Engine::predispatch(std::vector<Outgoing>& inbox, const ShardPlan& plan) {
  engine_sends_.clear();
  for (auto& sc : shards_) {
    sc.inq.clear();
    sc.outbox.clear();
  }
  // Shard outbox slabs from the previous round were drained into ring-slot
  // slabs at the merge barrier; reclaim them (capacity kept).
  for (auto& slab : shard_slabs_) slab.reset();
  for (std::size_t i = 0; i < inbox.size(); ++i) {
    Outgoing& out = inbox[i];
    // Messages to peers that died in transit are dropped (the network does
    // not buffer for the dead).
    if (!overlay_.is_alive(out.envelope.to)) {
      ++dropped_;
      continue;
    }
    if (out.lost) {
      ++lost_;  // the link ate it; the retransmission timer will cover it
      continue;
    }
    if (out.is_ack) {
      ack_received(out.envelope.to, out.msg_id);
      continue;
    }
    if (lossy_ && out.msg_id != 0) {
      // Acknowledge receipt — even for duplicates, so the sender stops
      // retransmitting. The ACK travels outside any protocol and is itself
      // lossy; it finalizes at this round's barrier with key (i, 0), ahead
      // of anything the handler of message i sends.
      engine_sends_.push_back(Context::KeyedSend{
          .major = static_cast<std::uint64_t>(i),
          .minor = 0,
          .is_ack = 1,
          .ack_msg_id = out.msg_id,
          .envelope = Envelope{.from = out.envelope.to,
                               .to = out.envelope.from,
                               .category = TrafficCategory::kControl,
                               .bytes = fault_.ack_bytes}});
      // Exactly-once delivery: retransmitted duplicates stop here.
      auto& seen = seen_by_receiver_[out.envelope.to.value()];
      const auto it = std::lower_bound(seen.begin(), seen.end(), out.msg_id);
      if (it != seen.end() && *it == out.msg_id) {
        ++duplicates_;
        continue;
      }
      seen.insert(it, out.msg_id);
    }
    // The message will reach its handler this round: mark the delivery in
    // the lineage DAG. Dead-destination drops, link losses and suppressed
    // duplicates return above, so their nodes stay undelivered and never
    // enter critical paths or flow arrows.
    if (lineage_ != nullptr && out.envelope.lineage != obs::kNoLineage) {
      lineage_->delivered(out.envelope.lineage, lineage_clock_);
    }
    shards_[plan.shard_of(out.envelope.to)].inq.push_back(
        Delivery{static_cast<std::uint64_t>(i), std::move(out)});
  }
}

void Engine::run_shard(SessionMux& mux, std::uint32_t shard,
                       const ShardPlan& plan, std::uint64_t tick_base) {
  // Busy wall time is written only to this shard's own slot, so workers
  // never race; the engine thread folds the slots into gauges after the
  // dispatch barrier.
  obs::WallTime t0;
  if (obs_ != nullptr) t0 = obs::wall_now();
  ShardScratch& sc = shards_[shard];
  for (Delivery& d : sc.inq) {
    if (obs_ != nullptr) obs_delivered_->add(1);
    Context ctx(*this, d.out.envelope.to, &sc.outbox, &shard_slabs_[shard],
                shard, /*major=*/d.index, /*first_minor=*/1,
                /*cause=*/d.out.envelope.lineage);
    mux.on_message(ctx, d.out.envelope);
  }
  for (std::uint32_t peer = plan.begin(shard); peer < plan.end(shard);
       ++peer) {
    if (!overlay_.is_alive(PeerId(peer))) continue;
    Context ctx(*this, PeerId(peer), &sc.outbox, &shard_slabs_[shard], shard,
                /*major=*/tick_base + peer, /*first_minor=*/0,
                /*cause=*/obs::kNoLineage);
    mux.on_round(ctx);
  }
  if (obs_ != nullptr) shard_busy_us_[shard] += obs::elapsed_us(t0);
}

void Engine::admit(Outgoing&& out, std::span<const std::uint8_t> flat_bytes) {
  // One loss draw per transmission from a counter-keyed hash stream; the
  // decision is made at admission (canonical order) and applied at
  // delivery, so it is independent of the shard count.
  if (lossy_) {
    out.lost = hash_uniform(next_transmission_++, fault_.seed) <
               fault_.loss_probability;
  }
  std::uint32_t d = 1;
  if (link_delay_on_) d = link_.delay(out.envelope.from, out.envelope.to);
  // Link scheduler: behind a backlog, the message spends extra transfer
  // rounds beyond its propagation delay. Admissions run on the engine
  // thread in canonical (major, minor) order, so the per-link queue state
  // — and with it every delivery round — is identical for any shard count.
  if (link_capacity_on_) {
    const std::uint64_t cap =
        link_.capacity(out.envelope.from, out.envelope.to);
    if (cap != kInfiniteCapacity) {
      const std::uint32_t level =
          link_stats_ != nullptr
              ? static_cast<std::uint32_t>(link_stats_->level_of_link(
                    out.envelope.from.value(), out.envelope.to.value()))
              : ~0u;
      const LinkQueueTable::Scheduled sched = link_queues_.schedule(
          out.envelope.from, out.envelope.to, cap, out.envelope.bytes,
          link_.max_backlog_rounds, level);
      if (sched.queue_rounds > 1) {
        ++queued_msgs_;
        queue_delay_rounds_ += sched.queue_rounds - 1;
        if (obs_ != nullptr) {
          obs_queued_msgs_->add(1);
          obs_queue_delay_->add(sched.queue_rounds - 1);
        }
        // The whole message waited behind the backlog: charge it to the
        // congestion spill summary so `nf-inspect congestion` can rank the
        // links the queueing gates on.
        if (link_stats_ != nullptr) {
          link_stats_->charge_spill(out.envelope.from.value(),
                                    out.envelope.to.value(),
                                    out.envelope.bytes);
        }
        d += static_cast<std::uint32_t>(sched.queue_rounds - 1);
      }
      if (sched.clamped_bytes != 0) {
        clamped_bytes_ += sched.clamped_bytes;
        if (obs_ != nullptr) obs_clamped_bytes_->add(sched.clamped_bytes);
      }
    }
  }
  // Park the payload span in the delivery slot's slab and rewrite the ref.
  // Admissions happen in canonical order on the engine thread, so slot-slab
  // offsets are identical for any shard count.
  if (out.envelope.flat.valid()) {
    const std::uint64_t slot = (round_ + d) % ring_slabs_.size();
    out.envelope.flat =
        copy_to_slab(ring_slabs_[static_cast<std::size_t>(slot)],
                     kRingSlabBase + static_cast<std::uint32_t>(slot),
                     flat_bytes);
  }
  if (send_probe_) send_probe_(out.envelope);
  // Delivery-ring buckets are cleared per round but never shrunk; capacity
  // persists after warm-up (steady_alloc_test is the runtime gate).
  // nf-lint: nf-cap-noalloc-ok
  bucket_at(round_ + d).push_back(std::move(out));
  ++in_transit_;
}

void Engine::drain_link_queues() {
  // Round barrier: every backlogged link clears up to its capacity. The
  // walk is engine-thread sequential over state built in canonical
  // admission order, so backlog trajectories — and the gauges fed from
  // them — are identical for any shard count.
  if (link_stats_ != nullptr) {
    const std::size_t rows =
        static_cast<std::size_t>(link_stats_->num_levels()) + 1;
    backlog_by_level_.assign(rows, 0);
    backlog_bytes_ = link_queues_.drain_round(
        [this, rows](std::uint32_t level, std::uint64_t bytes) {
          const std::size_t row = level < rows ? level : rows - 1;
          backlog_by_level_[row] += bytes;
        });
    // Publish every level every round (a cleared level must fall back to
    // 0, not hold its peak).
    for (std::size_t row = 0; row + 1 < rows; ++row) {
      link_stats_->set_backlog(row, backlog_by_level_[row]);
    }
  } else {
    backlog_bytes_ =
        link_queues_.drain_round([](std::uint32_t, std::uint64_t) {});
  }
  if (obs_ != nullptr) {
    obs_backlog_bytes_->set(static_cast<double>(backlog_bytes_));
  }
}

void Engine::begin_steady_state() {
  steady_ = true;
  // Snap every ring slot to the ring-wide high-water mark. Warm-up runs
  // only grow the slots their round parities happened to use; without this,
  // the first steady run whose heavy round lands on a colder slot would
  // regrow it and show up as a spurious steady-state allocation.
  // inbox_scratch_ joins the pool: delivery swaps its storage with the
  // drained bucket's, so capacities rotate through buckets AND scratch.
  std::size_t slab_cap = 0;
  std::size_t bucket_cap = inbox_scratch_.capacity();
  for (const auto& s : ring_slabs_) slab_cap = std::max(slab_cap, s.capacity());
  for (const auto& b : transit_ring_) {
    bucket_cap = std::max(bucket_cap, b.capacity());
  }
  for (auto& s : ring_slabs_) s.reserve(slab_cap);
  for (auto& b : transit_ring_) b.reserve(bucket_cap);
  inbox_scratch_.reserve(bucket_cap);
}

void Engine::merge_and_finalize() {
  merge_scratch_.clear();
  std::size_t total = engine_sends_.size();
  for (const auto& sc : shards_) total += sc.outbox.size();
  merge_scratch_.reserve(total);
  for (auto& ks : engine_sends_) merge_scratch_.push_back(std::move(ks));
  for (auto& sc : shards_) {
    for (auto& ks : sc.outbox) merge_scratch_.push_back(std::move(ks));
  }
  // Canonical order. Keys are unique (ACKs take minor 0 of their delivery
  // slot, handler sends start at 1), so this is a total order identical to
  // the serial engine's send order.
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const Context::KeyedSend& a, const Context::KeyedSend& b) {
              return a.major != b.major ? a.major < b.major
                                        : a.minor < b.minor;
            });

  // Topology telemetry: charge every send of this round — per-level byte/
  // message matrix, per-level series counters and the heavy-hitter link
  // summary — in the canonical order just established, before finalize
  // moves the envelopes. Feeding ONE summary here on the engine thread is
  // what keeps the Misra-Gries state bit-identical for any shard count
  // (a per-shard fold would be merge-order sensitive). Timed: this pass is
  // the telemetry plane's marginal cost, so it bills to the overhead meter.
  if (link_stats_ != nullptr) {
    const obs::WallTime t0 = obs::wall_now();
    for (const Context::KeyedSend& ks : merge_scratch_) {
      link_stats_->charge(ks.envelope.from.value(), ks.envelope.to.value(),
                          static_cast<std::size_t>(ks.envelope.category),
                          ks.envelope.bytes);
    }
    round_obs_ns_ += obs::elapsed_ns(t0);
  }

  // Finalize in order: meter charges are batched per (sender, category)
  // run so a fan-out to many destinations costs one meter update per
  // batch, not per message.
  PeerId batch_from{};
  TrafficCategory batch_cat{};
  std::uint64_t batch_bytes = 0;
  std::uint64_t batch_msgs = 0;
  const auto flush = [&] {
    if (batch_msgs != 0) {
      meter_.record_batch(batch_from, batch_cat, batch_bytes, batch_msgs);
      batch_bytes = 0;
      batch_msgs = 0;
    }
  };
  for (auto& ks : merge_scratch_) {
    if (batch_msgs != 0 && (ks.envelope.from != batch_from ||
                            ks.envelope.category != batch_cat)) {
      flush();
    }
    batch_from = ks.envelope.from;
    batch_cat = ks.envelope.category;
    batch_bytes += ks.envelope.bytes;
    ++batch_msgs;
    if (obs_ != nullptr) {
      obs_sent_->add(1);
      obs_sent_bytes_->add(ks.envelope.bytes);
      obs_msg_bytes_->observe(ks.envelope.bytes);
    }
    // Stamp the lineage id here, in canonical order, so ids are identical
    // for any shard count. ACKs are engine bookkeeping and stay unstamped;
    // retransmissions re-admit the pristine Pending copy, which keeps the
    // id assigned at first admission.
    if (lineage_ != nullptr && ks.is_ack == 0) {
      const obs::LineageId id = lineage_->admit(
          ks.parent, ks.envelope.from, ks.envelope.to, ks.envelope.session,
          ks.envelope.phase, ks.envelope.bytes, lineage_clock_);
      ks.envelope.lineage = id;
      for (const obs::LineageId p : ks.extra_parents) lineage_->link(id, p);
    }
    Outgoing out{std::move(ks.envelope), /*msg_id=*/0, ks.is_ack != 0,
                 /*lost=*/false};
    // The producing shard's slab holds the payload until this barrier;
    // admit() copies the span into the delivery slot's slab.
    const std::span<const std::uint8_t> flat_bytes = resolve(out.envelope.flat);
    if (out.is_ack) {
      out.msg_id = ks.ack_msg_id;
    } else if (lossy_) {
      // Register for retransmission until acknowledged. The pending copy
      // stays pristine (lost is drawn per transmission in admit()) and owns
      // its payload bytes — slab refs don't survive the round.
      out.msg_id = next_msg_id_++;
      auto& plist = pending_by_sender_[out.envelope.from.value()];
      // Lossy runs only; the loss-free warmed steady state (what
      // NF_STEADY_NOALLOC gates) never enters this branch.
      // nf-lint: nf-cap-noalloc-ok
      plist.push_back(
          Pending{.message = out,
                  .next_retry = round_ + fault_.retransmit_after,
                  .attempts = 1});
      plist.back().flat_bytes.assign(flat_bytes.begin(), flat_bytes.end());
      ++pending_count_;
    }
    admit(std::move(out), flat_bytes);
  }
  flush();
}

void Engine::scan_retransmissions() {
  if (!lossy_ || pending_count_ == 0) return;
  // Deterministic order: senders in id order, each sender's unacked
  // messages in send (= msg id) order.
  for (auto& list : pending_by_sender_) {
    for (std::size_t i = 0; i < list.size();) {
      Pending& p = list[i];
      if (p.next_retry > round_) {
        ++i;
        continue;
      }
      if (p.attempts > fault_.max_retries) {
        ++given_up_;
        --pending_count_;
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++p.attempts;
      ++retransmissions_;
      p.next_retry = round_ + fault_.retransmit_after;
      meter_.record(p.message.envelope.from, p.message.envelope.category,
                    p.message.envelope.bytes);
      // Retransmissions re-cross the link: charge them like the meter does.
      // This loop is already deterministic (sender id, then msg id order).
      if (link_stats_ != nullptr) {
        link_stats_->charge(
            p.message.envelope.from.value(), p.message.envelope.to.value(),
            static_cast<std::size_t>(p.message.envelope.category),
            p.message.envelope.bytes);
      }
      // Copy; the pending entry keeps the original. The payload travels as
      // the pending entry's owned span, never as a reconstructed object.
      admit(Outgoing{p.message}, std::span<const std::uint8_t>(p.flat_bytes));
      ++i;
    }
  }
}

std::uint64_t Engine::run(SessionMux& mux, std::uint64_t max_rounds,
                          const ChurnSchedule* schedule) {
  const std::uint64_t start_round = round_;
  const ShardPlan plan(overlay_.num_peers(), threads_);
  shards_.resize(plan.num_shards());
  shard_slabs_.resize(plan.num_shards());
  // Built once per run (not per round): a per-round std::function conversion
  // can heap-allocate, which the steady-state gate would count.
  std::function<void(std::uint32_t)> shard_task;
  if (pool_ != nullptr && plan.num_shards() > 1) {
    shard_task = [this, &mux, &plan](std::uint32_t k) {
      run_shard(mux, k, plan, tick_base_);
    };
  }
  if (obs_ != nullptr) {
    // Cumulative busy/idle wall-time gauges, one pair per shard. Only the
    // busy series is sampled per round (idle follows from the round wall
    // time); handles are looked up once per run, never per round.
    obs_shard_busy_.clear();
    obs_shard_idle_.clear();
    for (std::uint32_t k = 0; k < plan.num_shards(); ++k) {
      const std::string base = "engine/shard" + std::to_string(k) + "/";
      // This IS the hoist: one lookup per shard per run, cached below.
      obs::Gauge* busy = &obs_->registry.gauge(base + "busy_us");  // nf-lint: nf-obs-context-ok
      obs_->series.track_gauge(base + "busy_us", busy);
      obs_shard_busy_.push_back(busy);
      obs_shard_idle_.push_back(&obs_->registry.gauge(base + "idle_us"));  // nf-lint: nf-obs-context-ok
    }
    shard_busy_us_.assign(plan.num_shards(), 0);
  }
  if (lossy_) {
    pending_by_sender_.resize(overlay_.num_peers());
    seen_by_receiver_.resize(overlay_.num_peers());
  }
  if (lineage_ != nullptr) {
    // Window the lineage analysis on this run: record the pre-run clock
    // (deliveries during round r carry clock base + r + 1, so relative
    // rounds start at 1) and the first node id this run will admit.
    lineage_->mark_run_start(obs_->tracer.clock());
  }
  mux.on_run_start(overlay_);
  for (std::uint64_t executed = 0; executed < max_rounds; ++executed) {
    const std::uint64_t allocs_at_round_start = alloc_hook::count();
    // 0. Stamp the round boundary: advance the tracer's logical clock so
    // every event recorded during this round carries it. round_t0 doubles
    // as the whole-round wall anchor for the self-overhead meter.
    obs::WallTime round_t0{};
    if (obs_ != nullptr) {
      round_t0 = obs::wall_now();
      round_obs_ns_ = 0;
      obs_->tracer.advance_clock();
      obs_rounds_->add(1);
      obs_->tracer.record(obs::EventKind::kRound, "engine.round",
                          obs::kNoPeer, bucket_at(round_).size());
      lineage_clock_ = obs_->tracer.clock();
      round_obs_ns_ += obs::elapsed_ns(round_t0);
    }

    // 1. Apply churn scheduled for this round.
    if (schedule != nullptr) {
      for (const auto& event : schedule->events_at(round_)) {
        switch (event.type) {
          case ChurnEventType::kFail: overlay_.fail(event.peer); break;
          case ChurnEventType::kJoin: overlay_.revive(event.peer); break;
        }
      }
    }

    // 2. Whole-round session bookkeeping, engine thread.
    mux.on_round_begin(round_);

    // 3. Predispatch this round's arrivals: drops, loss, ACK accounting and
    // duplicate suppression happen here on the engine thread; survivors are
    // routed to the destination peer's shard tagged with their inbox index.
    // Swap (not move) the bucket with a reusable scratch vector so neither
    // side loses its capacity — a move would steal it and force the bucket
    // to regrow every ring lap.
    inbox_scratch_.clear();
    std::swap(inbox_scratch_, bucket_at(round_));
    in_transit_ -= inbox_scratch_.size();
    tick_base_ = static_cast<std::uint64_t>(inbox_scratch_.size());
    predispatch(inbox_scratch_, plan);

    // 4. Parallel phase: deliver + tick each shard's peers.
    obs::WallTime par_start;
    if (obs_ != nullptr) {
      std::fill(shard_busy_us_.begin(), shard_busy_us_.end(), 0);
      par_start = obs::wall_now();
    }
    if (shard_task) {
      pool_->dispatch(plan.num_shards(), shard_task);
    } else {
      for (std::uint32_t k = 0; k < plan.num_shards(); ++k) {
        run_shard(mux, k, plan, tick_base_);
      }
    }
    if (obs_ != nullptr) {
      // Idle is this round's parallel-phase wall time minus the shard's own
      // busy time — on the serial path it measures head-of-line waiting.
      const obs::WallTime fold_t0 = obs::wall_now();
      const std::uint64_t wall = obs::elapsed_us(par_start);
      for (std::uint32_t k = 0; k < plan.num_shards(); ++k) {
        const std::uint64_t busy = shard_busy_us_[k];
        obs_shard_busy_[k]->set(obs_shard_busy_[k]->value() +
                                static_cast<double>(busy));
        obs_shard_idle_[k]->set(obs_shard_idle_[k]->value() +
                                static_cast<double>(wall > busy ? wall - busy
                                                                : 0));
      }
      round_obs_ns_ += obs::elapsed_ns(fold_t0);
    }

    // 5. Barrier merge: order every send canonically, charge the meter,
    // admit to the network. Sends made during round r travel from r+1 on.
    merge_and_finalize();

    // 6. Reliability layer: resend what was not acknowledged in time.
    scan_retransmissions();

    // 6a-pre. Link scheduler: every backlogged link drains one round of
    // capacity; per-level backlog gauges are published before the series
    // sample below closes the round.
    if (link_capacity_on_) drain_link_queues();

    // 6a. This round's delivery slot is fully consumed (handlers ran, the
    // merge only filled future slots), so its payload slab can be reclaimed.
    // High-water-mark reset: capacity survives for the slot's next lap.
    ring_slab_at(round_).reset();

    // 6b. Close the round's series row. The stamp is the tracer's logical
    // clock (context-global), so series from the several engines a
    // netFilter run creates stay strictly increasing.
    if (obs_ != nullptr) {
      const obs::WallTime t0 = obs::wall_now();
      obs_in_flight_->set(static_cast<double>(in_transit_));
      obs_->series.sample(obs_->tracer.clock());
      round_obs_ns_ += obs::elapsed_ns(t0);
      // Self-overhead meter: block times accumulate as nanoseconds (any
      // single block is well under 1µs) and the counters advance by whole
      // microseconds with the remainder carried, so nothing is lost to
      // per-round rounding. `obs/overhead_us` / `engine/round_us` is the
      // fraction nf-inspect's overhead budget gates.
      overhead_ns_total_ += round_obs_ns_;
      const std::uint64_t oh_us = overhead_ns_total_ / 1000;
      obs_overhead_us_->add(oh_us - overhead_us_reported_);
      overhead_us_reported_ = oh_us;
      round_ns_total_ += obs::elapsed_ns(round_t0);
      const std::uint64_t rd_us = round_ns_total_ / 1000;
      obs_round_us_->add(rd_us - round_us_reported_);
      round_us_reported_ = rd_us;
    }

    // 6c. Steady-state allocation accounting (begin_steady_state()). Zero
    // for a warmed loss-free flat-payload run; any regression shows up in
    // steady_allocs() and the obs counter.
    if (steady_) {
      const std::uint64_t delta = alloc_hook::count() - allocs_at_round_start;
      steady_allocs_ += delta;
      if (obs_steady_allocs_ != nullptr && delta != 0) {
        obs_steady_allocs_->add(delta);
      }
    }

    ++round_;

    // 7. Quiescence check. Under the fault model, unacknowledged messages
    // keep the engine alive until they are delivered or given up on.
    if (in_transit_ == 0 && !mux.active() && pending_count_ == 0) break;
  }
  mux.on_run_end();
  return round_ - start_round;
}

}  // namespace nf::net
