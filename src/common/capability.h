// Capability annotations for the threading and allocation contracts
// (DESIGN.md §6c/§6f, docs/STATIC_ANALYSIS.md "Capability model").
//
// The K-shard engine's exactness guarantee rests on a hand-maintained
// discipline: churn, barrier merges, link scheduling, lineage stamping and
// link-stats charging happen on the engine thread in canonical
// (major, minor) order, while shard workers touch only shard-local state;
// and the 10^6-peer hot path stays fast only because a warmed steady-state
// round performs zero heap allocations. These macros make that discipline
// *declared* instead of implied, so tools/nf-lint's whole-program
// capability pass (nf-cap-thread, nf-cap-noalloc, nf-cap-complete) can
// machine-check it at lint time instead of TSan rediscovering it at run
// time.
//
// Place a capability like an attribute, before the declaration:
//
//   NF_ENGINE_THREAD void merge_and_finalize();
//   NF_SHARD_CONTEXT void on_message(PhaseContext& ctx, Envelope&& env) override;
//   NF_ENGINE_THREAD NF_STEADY_NOALLOC void admit(Outgoing&& out, ...);
//
// Semantics (enforced by nf-lint):
//
//  * NF_ENGINE_THREAD — runs on the engine thread only, between shard
//    barriers, in canonical order. Calling it from anything reachable from
//    an NF_SHARD_CONTEXT root is an nf-cap-thread violation.
//  * NF_SHARD_CONTEXT — a shard-worker entry point (SessionMux/Phase
//    delivery + tick hooks, ShardPool bodies). Roots of the nf-cap-thread
//    reachability walk. May touch only the executing peer's slots in dense
//    arenas, commutative atomics, and NF_REENTRANT APIs.
//  * NF_REENTRANT — safe from any context (atomics, pure, or shard-local
//    by construction). The reachability walk does not descend into it; its
//    own body is audited where it is defined.
//  * NF_STEADY_NOALLOC — on the zero-alloc steady-state hot path
//    (FlatPhase::on_flat, the barrier merge). No allocating construct —
//    `new`, growing container ops without a reserve in sight,
//    std::string/std::function temporaries, `throw` — may be reachable
//    from it (nf-cap-noalloc); tests/steady_alloc_test.cpp is the dynamic
//    twin of this static gate.
//
// The macros expand to nothing and never change codegen; nf-lint reads
// them as plain tokens in the source.
#pragma once

/// Engine-thread-only: canonical-order bookkeeping between shard barriers.
#define NF_ENGINE_THREAD

/// Shard-worker entry point: root of the nf-cap-thread reachability walk.
#define NF_SHARD_CONTEXT

/// Callable from any context (atomic, pure, or shard-local by design).
#define NF_REENTRANT

/// Zero-alloc steady-state hot path: root of the nf-cap-noalloc walk.
#define NF_STEADY_NOALLOC
