// Protocol session runtime: composable phases multiplexed over one engine
// run (DESIGN.md §6d).
//
// A *session* is one logical protocol execution — e.g. one IFI query — made
// of an ordered list of *phases* (convergecast up, multicast down, ...).
// Classic orchestration runs each phase on its own Engine::run, which
// inserts a global barrier between phases: no peer may enter phase k+1 until
// every peer finished phase k. The SessionMux removes that barrier. It is
// the one object Engine::run drives: it routes envelopes by their
// (session, phase) tags to Phase components, and phases open *per peer*: a
// peer transitions the moment its own trigger arrives (a completed subtree,
// a multicast reaching it), so independent subtrees pipeline freely and N
// sessions share one engine run.
//
// Phase lifecycle at one peer: closed -> open (on_start fires exactly once)
// -> handling on_flat/on_round callbacks. Opening happens through one of
//   - PhaseStart::kAllPeers: the mux opens the phase at every alive peer on
//     its first tick (entry phases);
//   - an earlier phase calling PhaseContext::open_phase() from a callback
//     (the per-peer transition edge);
//   - a tagged message arriving for a closed phase with open_on_message
//     (multicast-style phases where receipt *is* the trigger); with
//     open_on_message off the envelope is buffered and replayed in arrival
//     order when the phase opens (safety net for convergecast-style phases
//     that must initialize local state before merging children).
// done() is a session-global predicate (e.g. "root merged all children");
// the mux keeps the engine alive until every phase of every session is
// done.
//
// Shard safety: the per-peer open flags and buffers live in byte/slot
// arenas touched only by the owning peer's callbacks; per-session traffic
// tallies are commutative atomics; phase done() flags follow the
// single-writer-read-at-barrier rule. The mux itself adds no cross-peer
// state, so a mux run is bit-identical for any --threads=K.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/capability.h"
#include "common/error.h"
#include "common/ids.h"
#include "net/engine.h"
#include "obs/context.h"

namespace nf::net {

class SessionMux;
class Phase;

/// How a phase opens at a peer when nothing opened it explicitly.
enum class PhaseStart : std::uint8_t {
  /// Opened at every alive peer by the mux's first on_round tick.
  kAllPeers,
  /// Stays closed until open_phase() or (with open_on_message) a message.
  kOnDemand,
};

struct PhaseOptions {
  PhaseStart start = PhaseStart::kOnDemand;
  /// A message for a closed phase opens it (true) or is buffered until the
  /// phase opens (false). Buffering is the right choice when on_start must
  /// initialize per-peer state that on_flat merges into.
  bool open_on_message = true;
  /// Phase name for trace spans; must be a string literal. Empty disables
  /// span events for this phase.
  const char* name = "";
};

/// Per-session traffic attribution: bytes/messages this session's phases
/// sent, by category. Counts protocol sends as admitted; the reliability
/// layer's retransmissions and ACKs are engine-level and appear only in the
/// global TrafficMeter.
struct SessionTraffic {
  std::string name;
  std::array<std::uint64_t, kNumTrafficCategories> bytes{};
  std::array<std::uint64_t, kNumTrafficCategories> msgs{};

  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t t = 0;
    for (const std::uint64_t b : bytes) t += b;
    return t;
  }
  [[nodiscard]] std::uint64_t total_msgs() const {
    std::uint64_t t = 0;
    for (const std::uint64_t m : msgs) t += m;
    return t;
  }
};

/// Per-peer view handed to Phase callbacks: the engine context plus the
/// (session, phase) identity, so sends are tagged automatically and the
/// phase can open later phases of its own session at this peer.
class PhaseContext {
 public:
  NF_REENTRANT [[nodiscard]] PeerId self() const { return ctx_.self(); }
  NF_REENTRANT [[nodiscard]] std::uint64_t round() const {
    return ctx_.round();
  }
  NF_REENTRANT [[nodiscard]] const Overlay& overlay() const {
    return ctx_.overlay();
  }
  NF_REENTRANT [[nodiscard]] const std::vector<PeerId>& neighbors() const {
    return ctx_.neighbors();
  }
  NF_REENTRANT [[nodiscard]] bool is_alive(PeerId p) const {
    return ctx_.is_alive(p);
  }
  NF_REENTRANT [[nodiscard]] SessionId session() const { return session_; }
  NF_REENTRANT [[nodiscard]] PhaseId phase() const { return phase_; }

  /// Lineage id of the message whose arrival triggered this callback, or
  /// kNoLineage for round-originated work. During buffered replay this is
  /// the replayed envelope's own id, not the delivery that opened the
  /// phase — so causality survives the buffering detour.
  NF_REENTRANT [[nodiscard]] obs::LineageId cause() const { return cause_; }

  /// A writer into the executing shard's outbox slab (Context::
  /// flat_payload()); pair with send_flat() from the same callback.
  NF_REENTRANT [[nodiscard]] PayloadWriter flat_payload() {
    return ctx_.flat_payload();
  }

  /// Sends a flat payload tagged with this phase's (session, phase) and
  /// charges it to the session's traffic tally. The send inherits cause()
  /// as its causal parent.
  NF_REENTRANT void send_flat(PeerId to, TrafficCategory category,
                              std::uint64_t bytes, PayloadRef flat);
  /// As above, with an explicit causal parent set — for sends that merge
  /// several arrivals (convergecast forwards). Zero ids are ignored.
  NF_REENTRANT void send_flat(PeerId to, TrafficCategory category,
                              std::uint64_t bytes, PayloadRef flat,
                              std::span<const obs::LineageId> parents);

  /// Opens `phase` of this session at this peer (idempotent): fires its
  /// on_start now and replays any buffered messages. This is the per-peer
  /// phase-transition edge — each peer advances on its own trigger, no
  /// global barrier.
  NF_REENTRANT void open_phase(PhaseId phase);

 private:
  friend class SessionMux;
  PhaseContext(SessionMux& mux, Context& ctx, SessionId session,
               PhaseId phase, obs::LineageId cause)
      : mux_(mux), ctx_(ctx), session_(session), phase_(phase),
        cause_(cause) {}

  SessionMux& mux_;
  Context& ctx_;
  SessionId session_;
  PhaseId phase_;
  obs::LineageId cause_;
};

/// One phase of a session — the one way to write a protocol. Callbacks run
/// on the owning peer's shard except on_run_start and on_round_begin
/// (engine thread). Sharded execution runs callbacks for peers of different
/// shards concurrently, so a phase is shard-safe iff callbacks for peer p
/// touch only p's slots in dense per-peer arenas (common/arena.h) plus, at
/// most, commutative atomic accumulators; the full authoring contract,
/// including its one extension (a sender's hand-off slot, read once by its
/// receiver a round later), is in DESIGN.md §6c.
class Phase {
 public:
  virtual ~Phase() = default;

  /// Size per-peer arenas here; called once per engine run.
  NF_ENGINE_THREAD virtual void on_run_start(const Overlay& /*overlay*/) {}

  /// Called once per round on the engine thread, after churn and before any
  /// delivery or tick — the place for whole-round bookkeeping that must not
  /// live in per-peer callbacks (e.g. a gossip round counter).
  NF_ENGINE_THREAD virtual void on_round_begin(std::uint64_t /*round*/) {}

  /// Fires exactly once per peer, when the phase opens there.
  NF_SHARD_CONTEXT virtual void on_start(PhaseContext& /*ctx*/) {}

  /// Called once per alive peer per round, after message delivery, while
  /// the phase is open at that peer — done() or not, so a phase that must
  /// still act in the round its done() flips (push-sum's last share) can.
  /// Most event-driven phases need no tick.
  NF_SHARD_CONTEXT virtual void on_round(PhaseContext& /*ctx*/) {}

  /// Called for each envelope tagged with this phase, with its flat
  /// payload resolved to bytes (the mux's owned copy on buffered replay);
  /// `bytes` is valid for this callback only and `from` is the sending
  /// peer. On the zero-alloc hot path, so overrides stay heap-free and
  /// repeat both capability macros (nf-lint models no inheritance); the
  /// typed convergecast, whose generic merges allocate, declares
  /// NF_SHARD_CONTEXT only.
  NF_SHARD_CONTEXT NF_STEADY_NOALLOC virtual void on_flat(
      PhaseContext& ctx, std::span<const std::uint8_t> bytes,
      PeerId from) = 0;

  /// Session-global completion. Polled on the engine thread; the engine
  /// stays alive until every phase of every session is done.
  NF_REENTRANT [[nodiscard]] virtual bool done() const = 0;
};

/// Routes tagged envelopes to per-session Phase components and drives their
/// lifecycle. Register sessions and phases before Engine::run; the mux does
/// not own the phases (they usually hold callbacks into caller state).
class SessionMux final {
 public:
  explicit SessionMux(obs::Context* obs = nullptr) : obs_(obs) {}

  /// Opens a new session; `name` prefixes trace spans and obs counters
  /// ("<name>/<phase>"). An empty name keeps bare phase names (single
  /// session runs) and reports as "s<index>" in traffic summaries.
  [[nodiscard]] SessionId add_session(std::string name = {});

  /// Appends `phase` to `session`'s phase list and returns its PhaseId
  /// (list position). The phase must outlive the mux's last run.
  PhaseId add_phase(SessionId session, Phase& phase, PhaseOptions options);

  // The engine-facing half, called by Engine::run: on_round and on_message
  // on shard workers, the rest on the engine thread. on_round_begin
  // forwards to every phase; on_run_end fires once after the final round
  // (quiescence or max_rounds) and closes spans of work done in that very
  // round. The engine stops once active() is false and nothing is in
  // flight.
  NF_ENGINE_THREAD void on_run_start(const Overlay& overlay);
  NF_ENGINE_THREAD void on_round_begin(std::uint64_t round);
  NF_SHARD_CONTEXT void on_round(Context& ctx);
  NF_SHARD_CONTEXT void on_message(Context& ctx, const Envelope& env);
  NF_ENGINE_THREAD void on_run_end();
  NF_REENTRANT [[nodiscard]] bool active() const;

  /// True iff every phase of `session` is done.
  [[nodiscard]] bool session_done(SessionId session) const;
  /// True iff every phase of every session is done.
  [[nodiscard]] bool all_done() const { return !active(); }

  /// Run-relative round at which `session` completed (its gating delivery's
  /// round: completion is detected at the next round boundary and
  /// attributed to the round that flipped the last done() flag). Falls back
  /// to the rounds the run executed when the session never completed. Read
  /// after the run.
  [[nodiscard]] std::uint64_t done_round(SessionId session) const;

  [[nodiscard]] std::size_t num_sessions() const { return sessions_.size(); }

  /// Per-session traffic attribution snapshot (read after the run).
  [[nodiscard]] std::vector<SessionTraffic> traffic() const;

  /// Publishes each session's nonzero per-category tallies as
  /// "session/<name>/<category>_bytes" (+ "_msgs") registry counters, so
  /// JSON reports and nf-inspect can break traffic down per query. No-op
  /// without an obs context. Call once, after the run.
  void flush_obs_counters();

 private:
  /// A buffered early arrival. The envelope's flat payload (if any) is
  /// copied out of its slab at buffering time — the slot slab is reclaimed
  /// when its delivery round ends, but the replay happens rounds later.
  struct BufferedEnvelope {
    Envelope env;
    std::vector<std::uint8_t> flat_bytes;
  };

  struct PhaseSlot {
    Phase* phase = nullptr;
    PhaseOptions options;
    const char* span_name = "";  // literal or tracer-interned; "" = no span
    PeerArena<bool> opened;
    // Sized only when !open_on_message; arrival-order replay queues.
    PeerArena<std::vector<BufferedEnvelope>> buffered;
    std::atomic<bool> span_begun{false};
    bool span_ended = false;  // engine thread only (on_round_begin)
  };

  struct SessionSlot {
    std::string name;
    std::vector<std::unique_ptr<PhaseSlot>> phases;
    std::array<std::atomic<std::uint64_t>, kNumTrafficCategories> bytes{};
    std::array<std::atomic<std::uint64_t>, kNumTrafficCategories> msgs{};
    // Engine thread only (on_round_begin / on_run_end); kNoRound until the
    // session's last done() flag is observed flipped.
    std::uint64_t done_round = obs::LineageRecorder::kNoRound;
  };

  friend class PhaseContext;

  [[nodiscard]] PhaseSlot& slot(SessionId s, PhaseId p) const;
  [[nodiscard]] std::string display_name(SessionId s) const;
  NF_REENTRANT void open_at(Context& ctx, SessionId s, PhaseId p,
                            obs::LineageId cause);
  NF_REENTRANT void charge(SessionId s, TrafficCategory category,
                           std::uint64_t bytes);
  NF_REENTRANT void maybe_begin_span(PhaseSlot& slot);
  NF_ENGINE_THREAD void record_done_rounds();

  obs::Context* obs_;
  std::vector<std::unique_ptr<SessionSlot>> sessions_;
  std::uint64_t rounds_seen_ = 0;  ///< on_round_begin calls this run
};

/// Runs `phase` on `engine` as the only phase of one anonymous session —
/// the one way to run a hierarchy primitive (convergecast, multicast,
/// flood) on its own. The phase opens at every alive peer on the first
/// tick: `options.start` is overridden to kAllPeers, since a lone phase
/// opened on demand would never start. `options.open_on_message` still
/// matters: a peer that joins mid-run (churn) can receive a message before
/// its first tick, and buffering the message until that tick (convergecast
/// style) instead of opening on it (multicast and flood style) moves the
/// forward it triggers to another callback — another canonical send order
/// and other lineage parents. `obs` is the mux's context (trace spans for a
/// named phase, lineage session names); it may differ from the phase's own.
/// Read the outcome from the phase; returns the rounds executed.
NF_ENGINE_THREAD std::uint64_t run_phase(
    Engine& engine, Phase& phase, std::uint64_t max_rounds, obs::Context* obs,
    PhaseOptions options = {}, const ChurnSchedule* schedule = nullptr);

}  // namespace nf::net
