// Generic bottom-up aggregate computation over a hierarchy (paper §III-A.2).
//
// Leaves send their local contribution to their upstream neighbor; an
// internal peer merges its own contribution with everything received from
// downstream and forwards one merged message upward; the root ends up with
// the global aggregate. One message per non-root member, completing in
// `height` rounds — the "one or two rounds of communications" property the
// paper credits hierarchical aggregation with.
//
// The aggregate type `T` must be provided with:
//   local(peer)  -> T        the peer's own contribution
//   merge(T&, T&&)           combine a child's aggregate into the parent's
//   wire_bytes(const T&)     modelled serialized size of one message
//
// Used by the naive collector (T = LocalItems), the Misra-Gries and
// partitioned baselines and bench/ablation_latency; netFilter's own phases
// run on the flat counterparts in agg/flat_phases.h.
//
// ConvergecastPhase is a session-runtime component (net/session.h): it
// initializes a peer when its phase opens there — so a convergecast can
// start per peer, pipelined behind whatever triggers it — and reports
// done() once the root has merged every child. To run one on its own, pass
// it to net::run_phase with open_on_message = false (children's messages
// wait for the parent's own contribution), then read complete(), result()
// and sent_bytes() from the phase.
//
// Hand-off: T never crosses the wire as an object. A finished peer moves
// its aggregate into its own hand-off slot and sends an envelope with an
// empty payload, charged wire_bytes(T) all the same; the upstream peer's
// delivery takes the aggregate out of the sender's slot. The sender fills
// the slot in round r and never touches it again, the engine barrier orders
// that write before the single receiver's read in round >= r+1, and
// exactly-once delivery keeps retransmitted duplicates out — the one
// cross-peer access DESIGN.md §6c allows.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "agg/hierarchy.h"
#include "common/arena.h"
#include "common/capability.h"
#include "common/error.h"
#include "common/ids.h"
#include "net/session.h"
#include "obs/context.h"

namespace nf::agg {

/// Shard-safe: callbacks for peer p touch only state_[p] and p's own
/// hand-off slot, plus the hand-off slot of the child whose delivery they
/// handle (see the header comment); `complete_` has a single writer (the
/// root's shard) and is read at the round barrier.
template <typename T>
class ConvergecastPhase final : public net::Phase {
 public:
  using LocalFn = std::function<T(PeerId)>;
  using MergeFn = std::function<void(T&, T&&)>;
  using WireBytesFn = std::function<std::uint64_t(const T&)>;
  /// Fires at the root, inside the run, the moment the global aggregate is
  /// complete — the hook a downstream phase transition chains from.
  using CompleteFn = std::function<void(net::PhaseContext&, const T&)>;

  ConvergecastPhase(const Hierarchy& hierarchy, net::TrafficCategory category,
                    LocalFn local, MergeFn merge, WireBytesFn wire_bytes,
                    obs::Context* obs = nullptr)
      : hierarchy_(hierarchy),
        category_(category),
        local_(std::move(local)),
        merge_(std::move(merge)),
        wire_bytes_(std::move(wire_bytes)),
        obs_(obs),
        state_(hierarchy.num_peers()),
        handoff_(hierarchy.num_peers()) {
    if (obs != nullptr) {
      obs_merges_ = &obs->registry.counter("convergecast/merges");
      obs_msg_bytes_ = &obs->registry.histogram("convergecast/msg_bytes");
    }
  }

  void set_on_complete(CompleteFn on_complete) {
    on_complete_ = std::move(on_complete);
  }

  void on_start(net::PhaseContext& ctx) override {
    const PeerId p = ctx.self();
    if (!hierarchy_.is_member(p)) return;
    State& st = state_[p.value()];
    st.acc.emplace(local_(p));
    st.pending =
        static_cast<std::uint32_t>(hierarchy_.downstream(p).size());
    // Whatever opened this phase here (a dissemination arrival, a replayed
    // envelope) is a causal parent of the merged message sent upward.
    st.parents.push_back(ctx.cause());
    maybe_forward(ctx, st);
  }

  // Atomic (single writer: the root's shard; many readers: the mux's
  // per-peer round gating runs on every shard). Relaxed is enough — a stale
  // false only costs one no-op tick, and the round barrier publishes the
  // flag before anyone acts on downstream state.
  [[nodiscard]] bool done() const override {
    return complete_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool complete() const { return done(); }

  /// The global aggregate; valid once complete().
  [[nodiscard]] const T& result() const {
    require(complete(), "convergecast not complete");
    return *state_[hierarchy_.root().value()].acc;
  }

  /// Bytes this peer propagated upward (0 for the root). Valid after run.
  [[nodiscard]] std::uint64_t sent_bytes(PeerId p) const {
    return state_[p.value()].sent_bytes;
  }

 protected:
  NF_SHARD_CONTEXT void on_flat(net::PhaseContext& ctx,
                                std::span<const std::uint8_t> bytes,
                                PeerId from) override {
    ensure(bytes.empty(), "convergecast message carries a payload");
    std::optional<T>& child = handoff_[from];
    ensure(child.has_value(), "convergecast message without a hand-off");
    State& st = state_[ctx.self().value()];
    ensure(st.acc.has_value(), "convergecast message before initialization");
    ensure(st.pending > 0, "unexpected convergecast message");
    if (obs_ != nullptr) {
      obs_merges_->add(1);
      obs_->tracer.record(obs::EventKind::kMerge, "convergecast.merge",
                          ctx.self().value(), st.sent_bytes);
    }
    merge_(*st.acc, std::move(*child));
    child.reset();
    --st.pending;
    st.parents.push_back(ctx.cause());
    maybe_forward(ctx, st);
  }

 private:
  struct State {
    bool sent = false;
    std::uint32_t pending = 0;
    std::uint64_t sent_bytes = 0;
    std::optional<T> acc;
    /// Causal parents of the merged upward message: the arrival that opened
    /// the phase plus every child aggregate merged in.
    std::vector<obs::LineageId> parents;
  };

  void maybe_forward(net::PhaseContext& ctx, State& st) {
    if (st.pending != 0 || st.sent) return;
    const PeerId p = ctx.self();
    if (p == hierarchy_.root()) {
      complete_.store(true, std::memory_order_relaxed);
      if (on_complete_) on_complete_(ctx, *st.acc);
      return;
    }
    st.sent = true;
    st.sent_bytes = wire_bytes_(*st.acc);
    if (obs_ != nullptr) obs_msg_bytes_->observe(st.sent_bytes);
    handoff_[p] = std::move(st.acc);
    st.acc.reset();
    // The merged message descends from every contribution it carries.
    ctx.send_flat(hierarchy_.upstream(p), category_, st.sent_bytes,
                  net::PayloadRef{},
                  std::span<const obs::LineageId>(st.parents));
    st.parents.clear();
    st.parents.shrink_to_fit();
  }

  const Hierarchy& hierarchy_;
  net::TrafficCategory category_;
  LocalFn local_;
  MergeFn merge_;
  WireBytesFn wire_bytes_;
  obs::Context* obs_;
  obs::Counter* obs_merges_ = nullptr;
  obs::Histogram* obs_msg_bytes_ = nullptr;
  CompleteFn on_complete_;
  PeerArena<State> state_;
  /// Peer p's finished aggregate, written by p once and taken by upstream(p).
  PeerArena<std::optional<T>> handoff_;
  std::atomic<bool> complete_{false};
};

}  // namespace nf::agg
