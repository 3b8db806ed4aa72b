// Flat slab-backed hierarchy phases — the million-peer hot path: the f×g
// aggregate convergecast, the pair-list convergecast and the multicast
// (the library's only multicast).
//
// Where the typed ConvergecastPhase<T> (agg/convergecast.h) hands its
// aggregate object to the upstream peer through phase state, these phases
// encode every message into the engine's slab arenas with the varint/delta
// codecs (net/codec.h) and ship a PayloadRef. Receivers decode straight
// from the delivered span; forwards are span copies. Combined with the
// structure-of-arrays state below, a warmed loss-free run of the aggregate
// convergecast and the multicast performs zero heap allocations inside the
// round loop (tests/steady_alloc_test.cpp).
//
// State layout (DESIGN.md §6f): FlatAggregateConvergecastPhase keeps the
// f×g group sums of the peers that merge — members with children, plus the
// root — in one contiguous PeerRowArena<u64> reached through a dense
// peer→row index. Rows are contiguous, so a merge is a column add into the
// parent's row. A leaf never merges: it folds its contribution into a
// per-thread scratch row and sends it from on_start, so it owns no row.
// The per-peer bookkeeping (pending counts, sent flags, causal parents) is
// decomposed into dense parallel arenas instead of a per-peer struct with
// owning members. FlatPairsConvergecastPhase keeps one sorted ValueMap per
// open peer, adopted by move from the LocalFn, and merges each child's
// encoded run into it on arrival with the fused decode-merge
// net::merge_pairs_from — no intermediate map, no re-sort. Its merges grow
// the map, so it is the one phase here outside the zero-alloc guarantee.
//
// Wire-size charging: pass `flat_bytes != 0` to charge the paper's flat
// field model (WireModel::kFlatFields) while still shipping the encoded
// bytes, or 0 to charge the actual encoded length (kVarintDelta). Both
// models therefore exercise the same payload path.
//
// Each phase runs either inside a multiplexed session (core/ifi_session.h)
// or on its own through net::run_phase — convergecasts with
// open_on_message = false, the multicast with the default — after which the
// phase itself reports complete(), result() and sent_bytes().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "agg/hierarchy.h"
#include "common/arena.h"
#include "common/capability.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/item_source.h"
#include "net/codec.h"
#include "net/session.h"
#include "obs/context.h"

namespace nf::agg {

/// Bottom-up sum of fixed-width aggregate vectors (paper §III-A.2, the f×g
/// group sums of netFilter phase 1), flat on the wire and SoA in memory.
/// Shard-safe: callbacks for peer p touch only p's row/slots; `complete_`
/// has a single writer (the root's shard) and is read at the barrier.
class FlatAggregateConvergecastPhase final : public net::Phase {
 public:
  /// Fills peer p's zeroed row with its local contribution.
  using LocalFn = std::function<void(PeerId, std::span<std::uint64_t>)>;
  /// Fires at the root, inside the run, the moment the global sums are
  /// complete — the hook a downstream phase transition chains from.
  using CompleteFn =
      std::function<void(net::PhaseContext&, std::span<const std::uint64_t>)>;

  FlatAggregateConvergecastPhase(const Hierarchy& hierarchy,
                                 net::TrafficCategory category,
                                 std::uint32_t width, LocalFn local,
                                 std::uint64_t flat_bytes,
                                 obs::Context* obs = nullptr)
      : hierarchy_(hierarchy),
        category_(category),
        width_(width),
        local_(std::move(local)),
        flat_bytes_(flat_bytes),
        obs_(obs) {
    if (obs != nullptr) {
      obs_merges_ = &obs->registry.counter("convergecast/merges");
      obs_msg_bytes_ = &obs->registry.histogram("convergecast/msg_bytes");
    }
  }

  void set_on_complete(CompleteFn on_complete) {
    on_complete_ = std::move(on_complete);
  }

  void on_run_start(const net::Overlay& overlay) override {
    const auto n = overlay.num_peers();
    complete_.store(false, std::memory_order_relaxed);
    pending_.assign(n, 0);
    init_.assign(n, false);
    sent_.assign(n, false);
    sent_bytes_.assign(n, 0);
    // Rows only where sums accumulate: members with children, and the root
    // (whose row is the result even when it has no children). Causal-parent
    // slots live in one contiguous store with per-peer offsets: each member
    // records at most 1 (phase-open cause) + |downstream| ids.
    row_of_.assign(n, kNoRow);
    parent_count_.assign(n, 0);
    parent_offset_.assign(n + 1, 0);
    std::uint32_t rows = 0;
    std::uint32_t off = 0;
    for (std::uint32_t p = 0; p < n; ++p) {
      const PeerId id(p);
      parent_offset_[p] = off;
      if (!hierarchy_.is_member(id)) continue;  // no row, no slots
      const auto children =
          static_cast<std::uint32_t>(hierarchy_.downstream(id).size());
      if (children != 0 || id == hierarchy_.root()) row_of_[p] = rows++;
      off += 1 + children;
    }
    parent_offset_[n] = off;
    sums_.assign(rows, width_, 0);
    // nf-lint: nf-envelope-discipline-ok (prefill; sends read set slots)
    parents_.assign(off, obs::kNoLineage);
  }

  void on_start(net::PhaseContext& ctx) override {
    const PeerId p = ctx.self();
    if (!hierarchy_.is_member(p)) return;
    pending_[p] =
        static_cast<std::uint32_t>(hierarchy_.downstream(p).size());
    init_[p] = true;
    push_parent(p, ctx.cause());
    if (row_of_[p] != kNoRow) {
      local_(p, sums_.row(row_of_[p]));
      maybe_forward(ctx);
      return;
    }
    // A leaf sends its contribution at once, so a scratch row serves it.
    // One per thread: it outlives this phase (a warmed run allocates
    // nothing) and no two concurrently running shards share it.
    thread_local std::vector<std::uint64_t> scratch;
    scratch.assign(width_, 0);
    local_(p, scratch);
    forward(ctx, scratch);
  }

  [[nodiscard]] bool done() const override {
    return complete_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool complete() const { return done(); }

  /// The global sums; valid once complete().
  [[nodiscard]] std::span<const std::uint64_t> result() const {
    require(complete(), "convergecast not complete");
    return sums_.row(row_of_[hierarchy_.root()]);
  }

  /// Rows held this run: one per member with children, plus the root.
  [[nodiscard]] std::uint32_t num_rows() const { return sums_.num_rows(); }

  /// Bytes this peer propagated upward (0 for the root). Valid after run.
  [[nodiscard]] std::uint64_t sent_bytes(PeerId p) const {
    return sent_bytes_[p];
  }

 protected:
  NF_SHARD_CONTEXT NF_STEADY_NOALLOC void on_flat(
      net::PhaseContext& ctx, std::span<const std::uint8_t> bytes,
      PeerId /*from*/) override {
    const PeerId p = ctx.self();
    ensure(init_[p] != 0, "convergecast message before initialization");
    ensure(pending_[p] > 0, "unexpected convergecast message");
    if (obs_ != nullptr) {
      obs_merges_->add(1);
      obs_->tracer.record(obs::EventKind::kMerge, "convergecast.merge",
                          p.value(), sent_bytes_[p]);
    }
    // The merge: decode-accumulate into this peer's row, no intermediate
    // vector. Only peers with children receive, and each of them has a row.
    net::add_aggregates_from(bytes, sums_.row(row_of_[p]));
    --pending_[p];
    push_parent(p, ctx.cause());
    maybe_forward(ctx);
  }

 private:
  void push_parent(PeerId p, obs::LineageId id) {
    const std::uint32_t slot = parent_offset_[p.value()] +
                               parent_count_[p]++;
    ensure(slot < parent_offset_[p.value() + 1], "parent slots exhausted");
    parents_[slot] = id;
  }

  void maybe_forward(net::PhaseContext& ctx) {
    const PeerId p = ctx.self();
    if (pending_[p] != 0 || sent_[p] != 0) return;
    if (p == hierarchy_.root()) {
      complete_.store(true, std::memory_order_relaxed);
      if (on_complete_) on_complete_(ctx, sums_.row(row_of_[p]));
      return;
    }
    forward(ctx, sums_.row(row_of_[p]));
  }

  // Sends this peer's finished sums upstream (never called at the root).
  void forward(net::PhaseContext& ctx, std::span<const std::uint64_t> sums) {
    const PeerId p = ctx.self();
    sent_[p] = true;
    net::PayloadWriter w = ctx.flat_payload();
    net::encode_aggregates_to(w, sums);
    const net::PayloadRef ref = w.finish();
    const std::uint64_t bytes = flat_bytes_ != 0 ? flat_bytes_ : ref.length;
    sent_bytes_[p] = bytes;
    if (obs_ != nullptr) obs_msg_bytes_->observe(bytes);
    const std::span<const obs::LineageId> parents(
        parents_.data() + parent_offset_[p.value()], parent_count_[p]);
    ctx.send_flat(hierarchy_.upstream(p), category_, bytes, ref, parents);
  }

  const Hierarchy& hierarchy_;
  net::TrafficCategory category_;
  std::uint32_t width_;
  LocalFn local_;
  std::uint64_t flat_bytes_;
  obs::Context* obs_;
  obs::Counter* obs_merges_ = nullptr;
  obs::Histogram* obs_msg_bytes_ = nullptr;
  CompleteFn on_complete_;

  static constexpr std::uint32_t kNoRow = ~0u;

  // SoA per-peer state (see header comment).
  PeerArena<std::uint32_t> row_of_;  ///< peer -> sums_ row, or kNoRow
  PeerRowArena<std::uint64_t> sums_;
  PeerArena<std::uint32_t> pending_;
  PeerArena<bool> init_;
  PeerArena<bool> sent_;
  PeerArena<std::uint64_t> sent_bytes_;
  PeerArena<std::uint32_t> parent_count_;
  std::vector<std::uint32_t> parent_offset_;
  std::vector<obs::LineageId> parents_;
  std::atomic<bool> complete_{false};
};

/// Bottom-up merge of sorted <item, value> maps (netFilter phase 2), flat
/// pairs on the wire. A child's run is decoded straight into a two-pointer
/// merge with the parent's ValueMap the moment it arrives; runs are never
/// held for a later k-way merge. Each merge writes a fresh map buffer, so
/// this phase is outside the zero-alloc guarantee (DESIGN.md §6f), but no
/// payload object ever crosses the wire.
class FlatPairsConvergecastPhase final : public net::Phase {
 public:
  using Pairs = ValueMap<ItemId, Value>;
  using LocalFn = std::function<Pairs(PeerId)>;
  /// Modelled wire size of one message; pass {} to charge the encoded
  /// length (WireModel::kVarintDelta).
  using WireBytesFn = std::function<std::uint64_t(const Pairs&)>;
  using CompleteFn = std::function<void(net::PhaseContext&, const Pairs&)>;

  FlatPairsConvergecastPhase(const Hierarchy& hierarchy,
                             net::TrafficCategory category, LocalFn local,
                             WireBytesFn wire_bytes,
                             obs::Context* obs = nullptr)
      : hierarchy_(hierarchy),
        category_(category),
        local_(std::move(local)),
        wire_bytes_(std::move(wire_bytes)),
        obs_(obs) {
    if (obs != nullptr) {
      obs_merges_ = &obs->registry.counter("convergecast/merges");
      obs_msg_bytes_ = &obs->registry.histogram("convergecast/msg_bytes");
    }
  }

  void set_on_complete(CompleteFn on_complete) {
    on_complete_ = std::move(on_complete);
  }

  void on_run_start(const net::Overlay& overlay) override {
    const auto n = overlay.num_peers();
    complete_.store(false, std::memory_order_relaxed);
    acc_.assign(n, Pairs{});
    pending_.assign(n, 0);
    init_.assign(n, false);
    sent_.assign(n, false);
    sent_bytes_.assign(n, 0);
    parent_count_.assign(n, 0);
    parent_offset_.assign(n + 1, 0);
    std::uint32_t off = 0;
    for (std::uint32_t p = 0; p < n; ++p) {
      parent_offset_[p] = off;
      if (!hierarchy_.is_member(PeerId(p))) continue;  // no slots needed
      off += 1 + static_cast<std::uint32_t>(
                     hierarchy_.downstream(PeerId(p)).size());
    }
    parent_offset_[n] = off;
    // nf-lint: nf-envelope-discipline-ok (prefill; sends read set slots)
    parents_.assign(off, obs::kNoLineage);
  }

  void on_start(net::PhaseContext& ctx) override {
    const PeerId p = ctx.self();
    if (!hierarchy_.is_member(p)) return;
    acc_[p] = local_(p);
    pending_[p] =
        static_cast<std::uint32_t>(hierarchy_.downstream(p).size());
    init_[p] = true;
    push_parent(p, ctx.cause());
    maybe_forward(ctx);
  }

  [[nodiscard]] bool done() const override {
    return complete_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool complete() const { return done(); }

  [[nodiscard]] const Pairs& result() const {
    require(complete(), "convergecast not complete");
    return acc_[hierarchy_.root()];
  }

  [[nodiscard]] std::uint64_t sent_bytes(PeerId p) const {
    return sent_bytes_[p];
  }

 protected:
  NF_SHARD_CONTEXT NF_STEADY_NOALLOC void on_flat(
      net::PhaseContext& ctx, std::span<const std::uint8_t> bytes,
      PeerId /*from*/) override {
    const PeerId p = ctx.self();
    ensure(init_[p] != 0, "convergecast message before initialization");
    ensure(pending_[p] > 0, "unexpected convergecast message");
    if (obs_ != nullptr) {
      obs_merges_->add(1);
      obs_->tracer.record(obs::EventKind::kMerge, "convergecast.merge",
                          p.value(), sent_bytes_[p]);
    }
    // Fused decode-merge: the child's run goes straight into this peer's
    // accumulator, never through an intermediate map.
    net::merge_pairs_from(bytes, acc_[p]);
    --pending_[p];
    push_parent(p, ctx.cause());
    maybe_forward(ctx);
  }

 private:
  void push_parent(PeerId p, obs::LineageId id) {
    const std::uint32_t slot = parent_offset_[p.value()] +
                               parent_count_[p]++;
    ensure(slot < parent_offset_[p.value() + 1], "parent slots exhausted");
    parents_[slot] = id;
  }

  void maybe_forward(net::PhaseContext& ctx) {
    const PeerId p = ctx.self();
    if (pending_[p] != 0 || sent_[p] != 0) return;
    if (p == hierarchy_.root()) {
      complete_.store(true, std::memory_order_relaxed);
      if (on_complete_) on_complete_(ctx, acc_[p]);
      return;
    }
    sent_[p] = true;
    net::PayloadWriter w = ctx.flat_payload();
    net::encode_pairs_to(w, acc_[p]);
    const net::PayloadRef ref = w.finish();
    const std::uint64_t bytes =
        wire_bytes_ ? wire_bytes_(acc_[p]) : ref.length;
    sent_bytes_[p] = bytes;
    if (obs_ != nullptr) obs_msg_bytes_->observe(bytes);
    const std::span<const obs::LineageId> parents(
        parents_.data() + parent_offset_[p.value()], parent_count_[p]);
    ctx.send_flat(hierarchy_.upstream(p), category_, bytes, ref, parents);
    acc_[p] = Pairs{};  // the merged map moved up the tree; free the slot
  }

  const Hierarchy& hierarchy_;
  net::TrafficCategory category_;
  LocalFn local_;
  WireBytesFn wire_bytes_;
  obs::Context* obs_;
  obs::Counter* obs_merges_ = nullptr;
  obs::Histogram* obs_msg_bytes_ = nullptr;
  CompleteFn on_complete_;

  PeerArena<Pairs> acc_;
  PeerArena<std::uint32_t> pending_;
  PeerArena<bool> init_;
  PeerArena<bool> sent_;
  PeerArena<std::uint64_t> sent_bytes_;
  PeerArena<std::uint32_t> parent_count_;
  std::vector<std::uint32_t> parent_offset_;
  std::vector<obs::LineageId> parents_;
  std::atomic<bool> complete_{false};
};

/// Top-down dissemination of one pre-encoded payload (paper Algorithm 2,
/// line 1). The root installs encoded bytes once; every forward is a span
/// copy into the shard slab — the payload object is never reconstructed in
/// flight. Receivers get the raw span and decode as they see fit. Each
/// hierarchy edge carries one copy, charged the modelled `wire_bytes` (not
/// the encoded length): netFilter's heavy-group dissemination, the
/// partitioned slice multicast and the query announcement all ride it.
class FlatMulticastPhase final : public net::Phase {
 public:
  /// Runs at every member (including the root) exactly once, when the
  /// payload reaches that peer.
  using ReceiveFn =
      std::function<void(net::PhaseContext&, std::span<const std::uint8_t>)>;

  FlatMulticastPhase(const Hierarchy& hierarchy, net::TrafficCategory category,
                     ReceiveFn on_receive, obs::Context* obs = nullptr)
      : hierarchy_(hierarchy),
        category_(category),
        on_receive_(std::move(on_receive)),
        obs_(obs) {
    if (obs != nullptr) {
      obs_forwards_ = &obs->registry.counter("multicast/forwards");
    }
  }

  /// Installs the encoded payload (copied) and its modelled wire size. Must
  /// happen before the phase opens at the root — either up front, or from
  /// an earlier phase's callback (the root's shard) right before
  /// open_phase().
  void set_payload(std::span<const std::uint8_t> encoded,
                   std::uint64_t wire_bytes) {
    payload_.assign(encoded.begin(), encoded.end());
    wire_bytes_ = wire_bytes;
    has_payload_ = true;
  }

  void on_run_start(const net::Overlay& overlay) override {
    received_.assign(overlay.num_peers(), false);
    num_received_.store(0, std::memory_order_relaxed);
  }

  void on_start(net::PhaseContext& ctx) override {
    if (ctx.self() != hierarchy_.root()) return;
    ensure(has_payload_, "multicast opened at root without a payload");
    deliver(ctx, payload_);
  }

  [[nodiscard]] bool done() const override {
    return num_received() >= hierarchy_.num_members();
  }
  [[nodiscard]] bool complete() const { return done(); }

  [[nodiscard]] std::uint32_t num_received() const {
    return num_received_.load(std::memory_order_relaxed);
  }

 protected:
  NF_SHARD_CONTEXT NF_STEADY_NOALLOC void on_flat(
      net::PhaseContext& ctx, std::span<const std::uint8_t> bytes,
      PeerId /*from*/) override {
    ensure(received_[ctx.self()] == 0, "duplicate multicast delivery");
    deliver(ctx, bytes);
  }

 private:
  void deliver(net::PhaseContext& ctx, std::span<const std::uint8_t> bytes) {
    const PeerId p = ctx.self();
    received_[p] = true;
    num_received_.fetch_add(1, std::memory_order_relaxed);
    on_receive_(ctx, bytes);
    const auto& downstream = hierarchy_.downstream(p);
    if (downstream.empty()) return;
    if (obs_ != nullptr) {
      obs_forwards_->add(downstream.size());
      obs_->tracer.record(obs::EventKind::kFanout, "multicast.fanout",
                          p.value(), downstream.size());
    }
    // One span copy into the shard slab serves every child: the engine
    // re-copies per destination slot at the barrier anyway.
    net::PayloadWriter w = ctx.flat_payload();
    w.put_bytes(bytes);
    const net::PayloadRef ref = w.finish();
    const obs::LineageId parent = ctx.cause();
    for (PeerId child : downstream) {
      ctx.send_flat(child, category_, wire_bytes_, ref,
                    std::span<const obs::LineageId>(&parent, 1));
    }
  }

  const Hierarchy& hierarchy_;
  net::TrafficCategory category_;
  ReceiveFn on_receive_;
  obs::Context* obs_;
  obs::Counter* obs_forwards_ = nullptr;
  std::vector<std::uint8_t> payload_;
  std::uint64_t wire_bytes_ = 0;
  bool has_payload_ = false;
  PeerArena<bool> received_;
  std::atomic<std::uint32_t> num_received_{0};
};

}  // namespace nf::agg
