// nf-lint driver + dependency-free token-level analyzer (nf_lint.h).
//
// The analyzer deliberately over-approximates: it cannot track aliasing or
// types across translation units, so it flags the *pattern* (an unordered
// container declared in protocol code, a wall-clock token outside obs/, a
// registry lookup under a loop) and relies on `// nf-lint: <check>-ok`
// suppressions where a human has proven the site safe.
//
// Lexing lives in nf_lint_lex.h (shared with the capability pass); the
// whole-program capability checks live in nf_lint_cap.cpp and run over a
// model extracted here file-by-file.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "nf_lint.h"
#include "nf_lint_cap.h"
#include "nf_lint_lex.h"

namespace nf::lint {
namespace {

using lex::SourceFile;
using lex::Tok;
using lex::chain_before;
using lex::ident_start;
using lex::in_dir;
using lex::load_file;
using lex::match_paren;
using lex::path_ends_with;
using lex::strip_ws;
using lex::tok_at;

void add_finding(std::vector<Finding>& out, const SourceFile& file, Check c,
                 int line, std::string message) {
  // One diagnostic per (check, line): `v.begin(), v.end()` is one problem.
  for (const Finding& f : out) {
    if (f.check == c && f.line == line && f.path == file.path) return;
  }
  const std::string& src =
      line >= 1 && line <= static_cast<int>(file.raw.size())
          ? file.raw[static_cast<std::size_t>(line) - 1]
          : std::string();
  out.push_back(
      {c, file.path, line, std::move(message), lex::collapse_ws(src)});
}

/// Per-token loop-body depth: >0 when the token sits inside a for/while
/// body (brace-delimited or single-statement).
std::vector<int> loop_depths(const std::vector<Tok>& t) {
  std::vector<int> depth(t.size(), 0);
  std::vector<bool> brace_is_loop;       // one entry per open '{'
  std::vector<std::size_t> single_at;    // brace depth of single-stmt loops
  std::set<std::size_t> loop_brace_idx;  // '{' indices that open loop bodies
  int cur = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if ((s == "for" || s == "while") && tok_at(t, i + 1) == "(") {
      const std::size_t close = match_paren(t, i + 1);
      if (close < t.size()) {
        if (tok_at(t, close + 1) == "{") {
          loop_brace_idx.insert(close + 1);
        } else if (tok_at(t, close + 1) != ";") {  // `do {} while ();` tail
          single_at.push_back(brace_is_loop.size());
          ++cur;
        }
      }
    }
    if (s == "{") {
      const bool is_loop = loop_brace_idx.count(i) > 0;
      brace_is_loop.push_back(is_loop);
      if (is_loop) ++cur;
    } else if (s == "}") {
      if (!brace_is_loop.empty()) {
        if (brace_is_loop.back()) --cur;
        brace_is_loop.pop_back();
      }
    } else if (s == ";") {
      while (!single_at.empty() && single_at.back() >= brace_is_loop.size()) {
        single_at.pop_back();
        --cur;
      }
    }
    depth[i] = cur;
  }
  return depth;
}

// ---------------------------------------------------------------------------
// Check 1: nf-determinism-unordered-iteration.
//
// Protocol emission order must be deterministic, and iterating a
// std::unordered_{map,set} is the classic way to lose that silently
// (PAPER.md §III's exactness claim survives only if every peer emits group
// sums in one canonical order). nf-lint cannot prove a container is never
// iterated, so it flags the declaration too — membership-only containers
// either become sorted vectors (the usual fix) or carry an inline
// suppression stating the proof.

void check_unordered(const SourceFile& file, const std::vector<Tok>& t,
                     std::vector<Finding>& out) {
  std::set<std::string> unordered_vars;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].text != "std" || t[i + 1].text != "::") continue;
    const std::string& kind = t[i + 2].text;
    if (kind != "unordered_map" && kind != "unordered_set" &&
        kind != "unordered_multimap" && kind != "unordered_multiset") {
      continue;
    }
    add_finding(out, file, Check::kUnorderedIteration, t[i].line,
                "std::" + kind +
                    " in deterministic protocol code: iteration order is "
                    "unspecified; use a sorted vector / std::map, or "
                    "suppress with proof it is never iterated");
    // Track the declared name so iteration sites get their own finding.
    if (tok_at(t, i + 3) != "<") continue;
    int angle = 0;
    std::size_t j = i + 3;
    for (; j < t.size(); ++j) {
      if (t[j].text == "<") ++angle;
      if (t[j].text == ">" && --angle == 0) break;
    }
    ++j;
    while (j < t.size() &&
           (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) {
      ++j;
    }
    if (j < t.size() && ident_start(t[j].text[0]) &&
        tok_at(t, j + 1) != "(") {
      unordered_vars.insert(t[j].text);
    }
  }
  if (unordered_vars.empty()) return;

  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for over a tracked container.
    if (t[i].text == "for" && tok_at(t, i + 1) == "(") {
      const std::size_t close = match_paren(t, i + 1);
      std::size_t colon = 0;
      bool classic = false;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")") --depth;
        if (depth == 1 && t[j].text == ";") classic = true;
        if (depth == 1 && t[j].text == ":") colon = j;
      }
      if (!classic && colon != 0) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (unordered_vars.count(t[j].text) > 0) {
            add_finding(out, file, Check::kUnorderedIteration, t[j].line,
                        "range-for over unordered container '" + t[j].text +
                            "': emission order is nondeterministic; "
                            "materialize into a sorted vector first");
            break;
          }
        }
      }
    }
    // Iterator access on a tracked container (incl. vector(v.begin(), ...)).
    if (t[i].text == "." && i > 0 && unordered_vars.count(t[i - 1].text) > 0) {
      const std::string& m = tok_at(t, i + 1);
      if ((m == "begin" || m == "end" || m == "cbegin" || m == "cend" ||
           m == "rbegin" || m == "rend") &&
          tok_at(t, i + 2) == "(") {
        add_finding(out, file, Check::kUnorderedIteration, t[i].line,
                    "iterator over unordered container '" + t[i - 1].text +
                        "': traversal order is nondeterministic; "
                        "materialize into a sorted vector first");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 2: nf-determinism-banned-entropy.
//
// Every random draw must come from a seeded nf::Rng or a counter-keyed
// hash stream, and every timestamp from the obs layer — ambient entropy
// (wall clocks, std::rand) makes runs unreproducible and breaks the
// serial-vs-sharded bit-identity contract. src/obs and bench/ are exempt:
// wall-clock time is their job.

void check_entropy(const SourceFile& file, const std::vector<Tok>& t,
                   std::vector<Finding>& out) {
  if (in_dir(file.path, "obs") || in_dir(file.path, "bench")) return;
  static const std::set<std::string> banned_idents = {
      "random_device",  "system_clock", "steady_clock",
      "high_resolution_clock", "clock_gettime", "gettimeofday",
      "timespec_get"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (banned_idents.count(s) > 0) {
      add_finding(out, file, Check::kBannedEntropy, t[i].line,
                  "'" + s +
                      "' is ambient entropy: protocol code must draw from "
                      "seeded nf::Rng / counter-keyed hash streams and take "
                      "wall time from the obs layer only");
      continue;
    }
    if ((s == "rand" || s == "srand") && i >= 2 &&
        t[i - 1].text == "::" && t[i - 2].text == "std") {
      add_finding(out, file, Check::kBannedEntropy, t[i].line,
                  "std::" + s + " is unseeded global state; use nf::Rng");
      continue;
    }
    if (s == "time" && tok_at(t, i + 1) == "(") {
      const std::string prev = i > 0 ? t[i - 1].text : std::string();
      const bool member = prev == "." || prev == "->";
      const bool qualified_other =
          prev == "::" && i >= 2 && t[i - 2].text != "std";
      if (!member && !qualified_other) {
        add_finding(out, file, Check::kBannedEntropy, t[i].line,
                    "time() reads the wall clock; protocol code must be "
                    "reproducible from its seeds");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 3: nf-envelope-discipline.
//
// Inside a Phase component every send must go through PhaseContext::
// send_flat, which threads the (session, phase) tags from net/envelope.h.
// A Phase component is a class deriving from net::Phase, directly or
// through agg::PushSumPhase (the one intermediate base). Hand-rolled
// tagging (send_flat_tagged, raw Envelope construction, kNoSession)
// bypasses the SessionMux's routing and traffic attribution; only the
// session runtime itself (net/session.*, net/engine.*) may touch those
// primitives. The same discipline covers causal lineage: parents come from
// ctx.cause() or an explicit parents span — referencing kNoLineage or
// writing an envelope's lineage field by hand hides the send from
// critical-path analysis (obs/lineage.h).

void check_envelope(const SourceFile& file, const std::vector<Tok>& t,
                    std::vector<Finding>& out) {
  if (path_ends_with(file.path, "net/session.h") ||
      path_ends_with(file.path, "net/session.cpp") ||
      path_ends_with(file.path, "net/engine.h") ||
      path_ends_with(file.path, "net/engine.cpp") ||
      path_ends_with(file.path, "net/envelope.h")) {
    return;
  }
  bool has_phase = false;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "public") continue;
    std::size_t j = i + 1;
    while (tok_at(t, j + 1) == "::") j += 2;  // skip net:: / agg::
    const std::string& base = tok_at(t, j);
    if (base == "Phase" || base == "PushSumPhase") {
      has_phase = true;
      break;
    }
  }
  if (!has_phase) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "send_flat_tagged") {
      add_finding(out, file, Check::kEnvelopeDiscipline, t[i].line,
                  "Phase component calls send_flat_tagged directly: session "
                  "and phase ids must come from the PhaseContext "
                  "(send_flat), not be hand-threaded");
    } else if (s == "Envelope" && tok_at(t, i + 1) == "{") {
      add_finding(out, file, Check::kEnvelopeDiscipline, t[i].line,
                  "Phase component constructs a raw Envelope: tags bypass "
                  "the SessionMux; send through the PhaseContext");
    } else if (s == "kNoSession") {
      add_finding(out, file, Check::kEnvelopeDiscipline, t[i].line,
                  "Phase component references kNoSession: phase traffic "
                  "must stay attributed to its session");
    } else if (s == "kNoLineage") {
      add_finding(out, file, Check::kEnvelopeDiscipline, t[i].line,
                  "Phase component references kNoLineage: causal parents "
                  "come from ctx.cause() or an explicit parents span; "
                  "hand-rolling an empty lineage hides the send from "
                  "critical-path analysis");
    } else if (s == "lineage" && i > 0 &&
               (t[i - 1].text == "." || t[i - 1].text == "->") &&
               tok_at(t, i + 1) == "=" && tok_at(t, i + 2) != "=") {
      add_finding(out, file, Check::kEnvelopeDiscipline, t[i].line,
                  "Phase component writes an envelope's lineage id: ids are "
                  "stamped by the engine in canonical merge order; pass "
                  "causal parents through send(..., parents) instead");
    }
  }
}

// ---------------------------------------------------------------------------
// Check 4: nf-arena-map.
//
// Peers are dense 0..N-1 (common/ids.h), so node-keyed std::map /
// unordered_map per-peer state wastes cache, allocates per node, and (for
// the unordered flavour) iterates nondeterministically. PeerArena<T>
// (common/arena.h) is the project container: dense, shard-safe, and
// mechanically iterable in id order.

void check_arena_map(const SourceFile& file, const std::vector<Tok>& t,
                     std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].text != "std" || t[i + 1].text != "::") continue;
    const std::string& kind = t[i + 2].text;
    if (kind != "map" && kind != "unordered_map" && kind != "multimap") {
      continue;
    }
    if (tok_at(t, i + 3) != "<") continue;
    // Scan the first template argument (up to a top-level comma).
    int angle = 0;
    for (std::size_t j = i + 3; j < t.size(); ++j) {
      if (t[j].text == "<") ++angle;
      if (t[j].text == ">" && --angle == 0) break;
      if (t[j].text == "," && angle == 1) break;
      if (angle == 1 && (t[j].text == "PeerId" || t[j].text == "NodeId")) {
        add_finding(out, file, Check::kArenaMap, t[i].line,
                    "std::" + kind + "<" + t[j].text +
                        ", T> for per-peer state: peers are dense 0..N-1, "
                        "use PeerArena<T> (common/arena.h)");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 5: nf-obs-context.
//
// obs::Context rides protocol hot paths as a nullable pointer, so (a) every
// dereference needs a null guard in sight, and (b) string-keyed registry
// lookups (registry.counter("...")) may not sit inside loops — cache the
// handle once (see Engine::set_obs) and bump it. src/obs itself is exempt:
// it implements the registry. (The former rule (c) — LinkStats::charge
// outside net/engine.cpp — moved to the whole-program nf-cap-thread pass,
// nf_lint_cap.cpp.)

void check_obs_context(const SourceFile& file, const std::vector<Tok>& t,
                       const std::vector<int>& loop_depth,
                       std::vector<Finding>& out) {
  if (in_dir(file.path, "obs")) return;
  static const std::set<std::string> members = {
      "registry", "tracer", "series", "conformance", "link_stats"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    // (a) unguarded `x->registry` etc.
    if (t[i].text == "->" && members.count(tok_at(t, i + 1)) > 0) {
      const std::string chain = chain_before(t, i);
      bool guarded = false;
      if (!chain.empty()) {
        const int line = t[i].line;
        const int first = std::max(1, line - 40);
        for (int li = first; li <= line && !guarded; ++li) {
          const std::string flat =
              strip_ws(file.code[static_cast<std::size_t>(li) - 1]);
          for (const std::string& pat :
               {chain + "!=nullptr", chain + "==nullptr", "if(" + chain + ")",
                "!" + chain, chain + "&&", "&&" + chain, chain + "?"}) {
            if (flat.find(pat) != std::string::npos) {
              guarded = true;
              break;
            }
          }
        }
      }
      if (!guarded) {
        add_finding(out, file, Check::kObsContext, t[i].line,
                    "dereference of obs::Context '" + chain +
                        "' with no null guard in sight: obs is nullable by "
                        "contract (obs/context.h)");
      }
    }
    // (b) string-keyed handle lookup inside a loop.
    if (t[i].text == "registry" && tok_at(t, i + 1) == "." &&
        loop_depth[i] > 0) {
      const std::string& m = tok_at(t, i + 2);
      if ((m == "counter" || m == "gauge" || m == "histogram") &&
          tok_at(t, i + 3) == "(") {
        add_finding(out, file, Check::kObsContext, t[i].line,
                    "registry." + m +
                        "(...) inside a loop does a string-keyed lookup per "
                        "iteration; hoist the handle (see Engine::set_obs)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 6: nf-link-model.
//
// The per-link backlog ledger (net/link_model.h LinkQueueTable) is only
// deterministic because every mutation happens on the engine thread in
// canonical (major, minor) admission order, inside net/engine.cpp. A
// schedule()/drain_round() call anywhere else — a protocol peeking at
// capacity headroom, a bench draining queues itself — would fork the
// ledger and desynchronize serial vs sharded congestion. Matching is by
// the conventional member names (link_queues_ / link_queues), so a unit
// test exercising a standalone table under a local name is not flagged.

void check_link_model(const SourceFile& file, const std::vector<Tok>& t,
                      std::vector<Finding>& out) {
  if (path_ends_with(file.path, "net/engine.cpp") ||
      path_ends_with(file.path, "net/link_model.h") ||
      path_ends_with(file.path, "net/link_model.cpp")) {
    return;
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    const bool queue_object = s == "link_queues" || s == "link_queues_" ||
                              s == "LinkQueueTable";
    if (queue_object &&
        (tok_at(t, i + 1) == "." || tok_at(t, i + 1) == "->" ||
         tok_at(t, i + 1) == "::")) {
      const std::string& m = tok_at(t, i + 2);
      if ((m == "schedule" || m == "drain_round") &&
          tok_at(t, i + 3) == "(") {
        add_finding(out, file, Check::kLinkModel, t[i].line,
                    "LinkQueueTable::" + m +
                        " outside net/engine.cpp: the backlog ledger is "
                        "admission-order sensitive; only the engine's "
                        "canonical scheduler may mutate it "
                        "(net/link_model.h)");
      }
    }
    // The congestion telemetry mirror: spill charges and backlog gauges
    // are snapshots of the engine-thread ledger; writing them elsewhere
    // misreports a ledger the writer cannot see.
    if ((s == "link_stats" || s == "link_stats_") &&
        (tok_at(t, i + 1) == "." || tok_at(t, i + 1) == "->")) {
      const std::string& m = tok_at(t, i + 2);
      if ((m == "charge_spill" || m == "set_backlog") &&
          tok_at(t, i + 3) == "(") {
        add_finding(out, file, Check::kLinkModel, t[i].line,
                    "LinkStats::" + m +
                        " outside net/engine.cpp: congestion telemetry "
                        "mirrors the engine-thread backlog ledger; only "
                        "the canonical scheduler may write it "
                        "(obs/link_stats.h)");
      }
    }
  }
}

}  // namespace

std::vector<Finding> run_checks(const std::vector<std::string>& paths,
                                const std::vector<Check>& checks) {
  std::vector<Finding> out;
  const auto enabled = [&checks](Check c) {
    return std::find(checks.begin(), checks.end(), c) != checks.end();
  };
  const bool want_cap = enabled(Check::kCapThread) ||
                        enabled(Check::kCapNoalloc) ||
                        enabled(Check::kCapComplete);
  cap::Model model;
  for (const std::string& path : paths) {
    SourceFile file;
    if (!load_file(path, file)) {
      std::fprintf(stderr, "nf-lint: cannot read %s\n", path.c_str());
      continue;
    }
    const std::vector<Tok> toks = lex::lex(file);
    const std::vector<int> depth = loop_depths(toks);
    if (enabled(Check::kUnorderedIteration)) {
      check_unordered(file, toks, out);
    }
    if (enabled(Check::kBannedEntropy)) check_entropy(file, toks, out);
    if (enabled(Check::kEnvelopeDiscipline)) check_envelope(file, toks, out);
    if (enabled(Check::kArenaMap)) check_arena_map(file, toks, out);
    if (enabled(Check::kObsContext)) {
      check_obs_context(file, toks, depth, out);
    }
    if (enabled(Check::kLinkModel)) check_link_model(file, toks, out);
    if (want_cap) {
      // The capability pass reads declarations, so macro-definition lines
      // spelling the same tokens must not leak in.
      const std::vector<Tok> cap_toks =
          lex::lex(file, /*skip_preprocessor=*/true);
      cap::extract_from_tokens(file, cap_toks, model);
    }
  }
  if (want_cap) cap::analyze(model, checks, out);
  sort_findings(out);
  return out;
}

}  // namespace nf::lint

// ---------------------------------------------------------------------------
// Driver.

namespace {

using nf::lint::Check;
using nf::lint::Finding;

struct Options {
  std::vector<std::string> paths;
  std::vector<Check> checks{std::begin(nf::lint::kAllChecks),
                            std::end(nf::lint::kAllChecks)};
  std::string baseline;
  std::string write_baseline;
  std::string report;
  bool quiet = false;
  bool strict_suppressions = false;
};

int usage(const char* argv0) {
  std::printf(
      "usage: %s [options] [paths...]\n"
      "Scans C++ sources for netfilter invariant violations "
      "(docs/STATIC_ANALYSIS.md).\n\n"
      "  paths                  files or directories (default: src)\n"
      "  --check NAME           run only NAME (repeatable)\n"
      "  --baseline FILE        fail only on findings not in FILE\n"
      "  --write-baseline FILE  write current findings as the new baseline\n"
      "  --report FILE          also write the findings report to FILE\n"
      "  --strict-suppressions  fail when a `<check>-ok` comment suppresses "
      "nothing\n"
      "  --list-checks          print the check catalog and exit\n"
      "  -q, --quiet            summary only\n\n"
      "Suppress a finding inline with `// nf-lint: <check>-ok` on the "
      "flagged line or the line above.\n"
      "Exit: 0 clean (or no new findings vs baseline), 1 findings, 2 usage "
      "error.\n",
      argv0);
  return 2;
}

std::vector<std::string> collect_files(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  const auto is_source = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc" ||
           ext == ".cxx";
  };
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           it != end && !ec; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (it->is_directory() &&
            (name == ".git" || name.rfind("build", 0) == 0)) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && is_source(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
    } else {
      files.push_back(path);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// One `// nf-lint: <check>-ok` comment found in a scanned file.
struct Suppression {
  std::string path;
  int line = 0;
  std::string check;  // check name, without the "-ok"
  bool used = false;
};

std::vector<std::string> read_raw_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : ss.str()) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else if (c != '\r') {
      cur.push_back(c);
    }
  }
  lines.push_back(cur);
  return lines;
}

/// Scans every file for suppression comments naming an enabled check, so
/// stale ones (suppressing nothing) can be reported instead of rotting.
std::vector<Suppression> collect_suppressions(
    const std::vector<std::string>& files, const std::vector<Check>& checks) {
  std::vector<Suppression> out;
  for (const std::string& path : files) {
    const std::vector<std::string> lines = read_raw_lines(path);
    for (std::size_t li = 0; li < lines.size(); ++li) {
      if (lines[li].find("nf-lint:") == std::string::npos) continue;
      for (const Check c : checks) {
        const std::string want = std::string(check_name(c)) + "-ok";
        if (lines[li].find(want) != std::string::npos) {
          out.push_back({nf::lint::lex::normalize_path(path),
                         static_cast<int>(li) + 1, check_name(c), false});
        }
      }
    }
  }
  return out;
}

/// Drops findings suppressed by `// nf-lint: <check>-ok` on the finding's
/// line or the line above it, marking the matching comments used.
void apply_suppressions(std::vector<Finding>& findings,
                        std::vector<Suppression>& suppressions) {
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    bool suppressed = false;
    for (Suppression& s : suppressions) {
      if (s.path == f.path && s.check == check_name(f.check) &&
          (s.line == f.line || s.line == f.line - 1)) {
        s.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) kept.push_back(std::move(f));
  }
  findings = std::move(kept);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<Check> only;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both `--flag value` and `--flag=value`.
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    const auto next = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--list-checks") {
      for (const Check c : nf::lint::kAllChecks) {
        std::printf("%-40s %s\n", check_name(c),
                    nf::lint::check_description(c));
      }
      return 0;
    } else if (arg == "--check") {
      const char* name = next();
      if (name == nullptr) return usage(argv[0]);
      bool found = false;
      for (const Check c : nf::lint::kAllChecks) {
        if (std::string(check_name(c)) == name) {
          only.push_back(c);
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "nf-lint: unknown check '%s'\n", name);
        return 2;
      }
    } else if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.baseline = v;
    } else if (arg == "--write-baseline") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.write_baseline = v;
    } else if (arg == "--report") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.report = v;
    } else if (arg == "--strict-suppressions") {
      opt.strict_suppressions = true;
    } else if (arg == "-q" || arg == "--quiet") {
      opt.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      opt.paths.push_back(arg);
    }
  }
  if (!only.empty()) opt.checks = only;
  if (opt.paths.empty()) opt.paths.push_back("src");

  const std::vector<std::string> files = collect_files(opt.paths);
  if (files.empty()) {
    std::fprintf(stderr, "nf-lint: no source files under given paths\n");
    return 2;
  }

  std::vector<Finding> findings = nf::lint::run_checks(files, opt.checks);
  std::vector<Suppression> suppressions =
      collect_suppressions(files, opt.checks);
  apply_suppressions(findings, suppressions);
  nf::lint::sort_findings(findings);

  if (!opt.write_baseline.empty()) {
    std::ofstream out(opt.write_baseline, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "nf-lint: cannot write %s\n",
                   opt.write_baseline.c_str());
      return 2;
    }
    out << "# nf-lint baseline: one `check|path|snippet` key per accepted\n"
           "# finding. CI fails only on findings NOT listed here; burn this\n"
           "# file down to empty. Regenerate: nf-lint --write-baseline "
           "tools/nf_lint_baseline.txt src\n";
    std::vector<std::string> keys;
    keys.reserve(findings.size());
    for (const Finding& f : findings) keys.push_back(finding_key(f));
    std::sort(keys.begin(), keys.end());
    for (const std::string& k : keys) out << k << "\n";
    std::printf("nf-lint: wrote %zu baseline entr%s to %s\n", keys.size(),
                keys.size() == 1 ? "y" : "ies", opt.write_baseline.c_str());
    return 0;
  }

  std::multiset<std::string> baseline;
  if (!opt.baseline.empty()) {
    std::ifstream in(opt.baseline, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "nf-lint: cannot read baseline %s\n",
                   opt.baseline.c_str());
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      baseline.insert(line);
    }
  }

  std::size_t new_count = 0;
  std::ostringstream report;
  for (const Finding& f : findings) {
    const std::string key = finding_key(f);
    const auto it = baseline.find(key);
    const bool known = it != baseline.end();
    if (known) {
      baseline.erase(it);
    } else {
      ++new_count;
    }
    report << f.path << ":" << f.line << ": [" << check_name(f.check) << "]"
           << (known ? " (baseline)" : "") << " " << f.message << "\n";
    if (!f.snippet.empty()) report << "    " << f.snippet << "\n";
  }
  std::size_t stale_count = 0;
  for (const Suppression& s : suppressions) {
    if (s.used) continue;
    ++stale_count;
    report << s.path << ":" << s.line << ": stale suppression `nf-lint: "
           << s.check << "-ok`: it no longer matches any finding; delete "
           << "it (or re-justify it) so the audit trail stays honest\n";
  }
  std::ostringstream summary;
  summary << "nf-lint: " << findings.size()
          << " finding" << (findings.size() == 1 ? "" : "s");
  if (!opt.baseline.empty()) {
    summary << " (" << new_count << " new vs " << opt.baseline << ")";
  }
  if (stale_count > 0) {
    summary << ", " << stale_count << " stale suppression"
            << (stale_count == 1 ? "" : "s")
            << (opt.strict_suppressions ? "" : " (warning)");
  }
  summary << " across " << files.size() << " files\n";

  if (!opt.quiet) std::fputs(report.str().c_str(), stdout);
  std::fputs(summary.str().c_str(), stdout);
  if (!opt.report.empty()) {
    std::ofstream out(opt.report, std::ios::binary);
    out << report.str() << summary.str();
  }

  bool fail = opt.baseline.empty() ? !findings.empty() : new_count > 0;
  if (opt.strict_suppressions && stale_count > 0) fail = true;
  return fail ? 1 : 0;
}
