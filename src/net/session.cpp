#include "net/session.h"

#include <utility>

namespace nf::net {

void PhaseContext::send_flat(PeerId to, TrafficCategory category,
                             std::uint64_t bytes, PayloadRef flat) {
  mux_.charge(session_, category, bytes);
  ctx_.send_flat_tagged(to, category, bytes, flat, session_, phase_,
                        std::span<const obs::LineageId>(&cause_, 1));
}

void PhaseContext::send_flat(PeerId to, TrafficCategory category,
                             std::uint64_t bytes, PayloadRef flat,
                             std::span<const obs::LineageId> parents) {
  mux_.charge(session_, category, bytes);
  ctx_.send_flat_tagged(to, category, bytes, flat, session_, phase_, parents);
}

void PhaseContext::open_phase(PhaseId phase) {
  mux_.open_at(ctx_, session_, phase, cause_);
}

SessionId SessionMux::add_session(std::string name) {
  auto slot = std::make_unique<SessionSlot>();
  slot->name = std::move(name);
  sessions_.push_back(std::move(slot));
  const auto sid = static_cast<SessionId>(sessions_.size() - 1);
  if (obs_ != nullptr) {
    obs_->lineage.set_session_name(sid, sessions_.back()->name);
  }
  return sid;
}

PhaseId SessionMux::add_phase(SessionId session, Phase& phase,
                              PhaseOptions options) {
  require(session < sessions_.size(), "unknown session");
  SessionSlot& s = *sessions_[session];
  auto ps = std::make_unique<PhaseSlot>();
  ps->phase = &phase;
  ps->options = options;
  if (options.name[0] != '\0' && obs_ != nullptr) {
    // Bare phase names for unnamed (single) sessions keep the classic span
    // set ("filtering", ...); named sessions get their own trace track.
    ps->span_name = s.name.empty()
                        ? options.name
                        : obs_->tracer.intern(s.name + "/" + options.name);
  }
  s.phases.push_back(std::move(ps));
  const auto pid = static_cast<PhaseId>(s.phases.size() - 1);
  if (obs_ != nullptr) {
    obs_->lineage.set_phase_name(session, pid, options.name);
  }
  return pid;
}

SessionMux::PhaseSlot& SessionMux::slot(SessionId s, PhaseId p) const {
  ensure(s < sessions_.size(), "envelope tagged with unknown session");
  ensure(p < sessions_[s]->phases.size(),
         "envelope tagged with unknown phase");
  return *sessions_[s]->phases[p];
}

std::string SessionMux::display_name(SessionId s) const {
  const std::string& name = sessions_[s]->name;
  return name.empty() ? "s" + std::to_string(s) : name;
}

void SessionMux::on_run_start(const Overlay& overlay) {
  rounds_seen_ = 0;
  for (const auto& session : sessions_) {
    session->done_round = obs::LineageRecorder::kNoRound;
    for (const auto& ps : session->phases) {
      if (ps->opened.empty()) ps->opened.assign(overlay.num_peers(), false);
      if (!ps->options.open_on_message && ps->buffered.empty()) {
        ps->buffered.assign(overlay.num_peers(), {});
      }
      ps->phase->on_run_start(overlay);
    }
  }
}

// Completion detection runs on the engine thread: done() flips inside a
// shard callback during round r, is published by the round barrier, and is
// observed at the next round boundary (or at on_run_end when round r was
// the run's last). rounds_seen_ has been incremented r+1 times by then, so
// the recorded done round is r+1 — the run-relative round of the gating
// delivery, matching the lineage clock convention (first round's
// deliveries are round 1).
void SessionMux::record_done_rounds() {
  for (SessionId s = 0; s < sessions_.size(); ++s) {
    SessionSlot& session = *sessions_[s];
    if (session.done_round != obs::LineageRecorder::kNoRound) continue;
    if (!session_done(s)) continue;
    session.done_round = rounds_seen_;
    if (obs_ != nullptr) obs_->lineage.set_session_done(s, rounds_seen_);
  }
}

void SessionMux::on_round_begin(std::uint64_t round) {
  record_done_rounds();
  ++rounds_seen_;
  for (const auto& session : sessions_) {
    for (const auto& ps : session->phases) ps->phase->on_round_begin(round);
  }
  // Span-end detection runs on the engine thread: done() flips inside a
  // shard callback, is published by the round barrier, and the span closes
  // at the next round boundary (value 0 — spans measure rounds, not wall
  // time, under the mux).
  if (obs_ == nullptr) return;
  for (const auto& session : sessions_) {
    for (const auto& ps : session->phases) {
      if (ps->span_name[0] != '\0' && !ps->span_ended &&
          ps->span_begun.load(std::memory_order_relaxed) &&
          ps->phase->done()) {
        ps->span_ended = true;
        obs_->tracer.record(obs::EventKind::kPhaseEnd, ps->span_name);
      }
    }
  }
}

void SessionMux::on_run_end() {
  record_done_rounds();
  // A phase that completed in the run's final round never sees another
  // round boundary, so close any span still open here.
  if (obs_ == nullptr) return;
  for (const auto& session : sessions_) {
    for (const auto& ps : session->phases) {
      if (ps->span_name[0] != '\0' && !ps->span_ended &&
          ps->span_begun.load(std::memory_order_relaxed)) {
        ps->span_ended = true;
        obs_->tracer.record(obs::EventKind::kPhaseEnd, ps->span_name);
      }
    }
  }
}

void SessionMux::maybe_begin_span(PhaseSlot& ps) {
  if (obs_ == nullptr || ps.span_name[0] == '\0') return;
  if (!ps.span_begun.exchange(true, std::memory_order_relaxed)) {
    obs_->tracer.record(obs::EventKind::kPhaseBegin, ps.span_name);
  }
}

void SessionMux::open_at(Context& ctx, SessionId s, PhaseId p,
                         obs::LineageId cause) {
  PhaseSlot& ps = slot(s, p);
  const PeerId self = ctx.self();
  if (ps.opened[self]) return;
  ps.opened[self] = true;
  maybe_begin_span(ps);
  PhaseContext pctx(*this, ctx, s, p, cause);
  ps.phase->on_start(pctx);
  if (!ps.buffered.empty()) {
    // Replay early arrivals in arrival order (deterministic: predispatch
    // buffered them in canonical delivery order). Each replayed envelope
    // keeps its own lineage as the cause, not the delivery that opened the
    // phase — sends it triggers point at the true causal parent.
    std::vector<BufferedEnvelope>& queue = ps.buffered[self];
    for (const BufferedEnvelope& buf : queue) {
      PhaseContext rctx(*this, ctx, s, p, buf.env.lineage);
      // The slab slot the ref pointed into has been reclaimed; serve the
      // payload from the copy taken at buffering time.
      ps.phase->on_flat(rctx, buf.flat_bytes, buf.env.from);
    }
    queue.clear();
    queue.shrink_to_fit();
  }
}

void SessionMux::on_round(Context& ctx) {
  for (SessionId s = 0; s < sessions_.size(); ++s) {
    const SessionSlot& session = *sessions_[s];
    for (PhaseId p = 0; p < session.phases.size(); ++p) {
      PhaseSlot& ps = *session.phases[p];
      if (ps.options.start == PhaseStart::kAllPeers &&
          !ps.opened[ctx.self()]) {
        open_at(ctx, s, p, ctx.cause());
      }
      if (ps.opened[ctx.self()]) {
        PhaseContext pctx(*this, ctx, s, p, ctx.cause());
        ps.phase->on_round(pctx);
      }
    }
  }
}

void SessionMux::on_message(Context& ctx, const Envelope& env) {
  ensure(env.session != kNoSession, "untagged envelope reached a SessionMux");
  const SessionId s = env.session;
  const PhaseId p = env.phase;
  PhaseSlot& ps = slot(s, p);
  const PeerId self = ctx.self();
  if (!ps.opened[self]) {
    if (!ps.options.open_on_message) {
      const std::span<const std::uint8_t> flat = ctx.payload_bytes(env);
      ps.buffered[self].push_back(
          BufferedEnvelope{env, {flat.begin(), flat.end()}});
      return;
    }
    open_at(ctx, s, p, env.lineage);
  }
  PhaseContext pctx(*this, ctx, s, p, env.lineage);
  ps.phase->on_flat(pctx, ctx.payload_bytes(env), env.from);
}

bool SessionMux::active() const {
  for (const auto& session : sessions_) {
    for (const auto& ps : session->phases) {
      if (!ps->phase->done()) return true;
    }
  }
  return false;
}

bool SessionMux::session_done(SessionId session) const {
  require(session < sessions_.size(), "unknown session");
  for (const auto& ps : sessions_[session]->phases) {
    if (!ps->phase->done()) return false;
  }
  return true;
}

std::uint64_t SessionMux::done_round(SessionId session) const {
  require(session < sessions_.size(), "unknown session");
  const std::uint64_t r = sessions_[session]->done_round;
  return r != obs::LineageRecorder::kNoRound ? r : rounds_seen_;
}

void SessionMux::charge(SessionId s, TrafficCategory category,
                        std::uint64_t bytes) {
  SessionSlot& session = *sessions_[s];
  const auto c = static_cast<std::size_t>(category);
  session.bytes[c].fetch_add(bytes, std::memory_order_relaxed);
  session.msgs[c].fetch_add(1, std::memory_order_relaxed);
}

std::vector<SessionTraffic> SessionMux::traffic() const {
  std::vector<SessionTraffic> out;
  out.reserve(sessions_.size());
  for (SessionId s = 0; s < sessions_.size(); ++s) {
    SessionTraffic t;
    t.name = display_name(s);
    for (std::size_t c = 0; c < kNumTrafficCategories; ++c) {
      t.bytes[c] = sessions_[s]->bytes[c].load(std::memory_order_relaxed);
      t.msgs[c] = sessions_[s]->msgs[c].load(std::memory_order_relaxed);
    }
    out.push_back(std::move(t));
  }
  return out;
}

void SessionMux::flush_obs_counters() {
  if (obs_ == nullptr) return;
  for (const SessionTraffic& t : traffic()) {
    const std::string base = "session/" + t.name + "/";
    for (std::size_t c = 0; c < kNumTrafficCategories; ++c) {
      if (t.msgs[c] == 0) continue;
      const std::string cat(
          to_string(static_cast<TrafficCategory>(c)));
      // Runs once per engine run at teardown, over a handful of sessions;
      // the keys are data-dependent, so there is no handle to hoist.
      obs_->registry.counter(base + cat + "_bytes").add(t.bytes[c]);  // nf-lint: nf-obs-context-ok
      obs_->registry.counter(base + cat + "_msgs").add(t.msgs[c]);  // nf-lint: nf-obs-context-ok
    }
  }
}

std::uint64_t run_phase(Engine& engine, Phase& phase, std::uint64_t max_rounds,
                        obs::Context* obs, PhaseOptions options,
                        const ChurnSchedule* schedule) {
  SessionMux mux(obs);
  options.start = PhaseStart::kAllPeers;
  (void)mux.add_phase(mux.add_session(), phase, options);
  return engine.run(mux, max_rounds, schedule);
}

}  // namespace nf::net
