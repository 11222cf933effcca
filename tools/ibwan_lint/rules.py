"""Rule implementations for ibwan-lint.

Each rule is a callable `rule(sf: SourceFile, ctx: ProjectContext) ->
Iterable[Finding]`.  Findings are emitted *without* suppression applied;
the engine matches them against `// NOLINT-IBWAN(RULE): reason`
comments afterwards so suppressed findings can still be counted and
audited (`--show-suppressed`).

Rules never look at comments or string literals: they walk the token
stream, so `// calls rand()` in a comment is not a finding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .lexer import CHAR, IDENT, NUMBER, PUNCT, STRING, Token
from .model import Finding, SourceFile
from . import index as index_mod
from .index import (FileSummary, MetricsDocs, ProjectIndex, build_summary,
                    unit_of)

# ---------------------------------------------------------------------------
# Project-wide context (built once over every scanned file).
# ---------------------------------------------------------------------------


@dataclass
class ProjectContext:
    """Cross-file facts rules need.  Since v2 this is a thin view over
    the pass-1 `ProjectIndex` (tools/ibwan_lint/index.py), which merges
    per-file summaries — possibly loaded from the content-hash cache
    instead of re-lexed files."""

    # Variable/member names declared with an unordered container type,
    # mapped to one declaration site (path, line) for the message.
    unordered_names: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    # Conserved counter members: name -> (declaring path, line).
    conserved: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    # The full pass-1 index (None only in degenerate direct calls).
    index: Optional[ProjectIndex] = None

    @staticmethod
    def from_index(idx: ProjectIndex) -> "ProjectContext":
        return ProjectContext(dict(idx.unordered_names),
                              dict(idx.conserved), idx)

    @staticmethod
    def build(files: Iterable[SourceFile],
              docs: Optional[MetricsDocs] = None) -> "ProjectContext":
        summaries = []
        for sf in files:
            if getattr(sf, "summary", None) is None:
                sf.summary = build_summary(sf)
            summaries.append(sf.summary)
        return ProjectContext.from_index(ProjectIndex.build(summaries, docs))


def _summary_of(sf: SourceFile) -> FileSummary:
    s = getattr(sf, "summary", None)
    if s is None:
        s = build_summary(sf)
        sf.summary = s
    return s


def _match_angle(toks: List[Token], i: int) -> int:
    """`toks[i]` is '<'; returns the index of its matching '>' (or the
    index where scanning gave up).  Treats '>>' as two closers."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == PUNCT:
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return i
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return i
            elif t.text in (";", "{", "}"):
                return i  # not a template argument list after all
        i += 1
    return n - 1


# ---------------------------------------------------------------------------
# DET001 — banned nondeterminism APIs.
# ---------------------------------------------------------------------------

_BANNED_CALLS = {
    "rand": "libc rand() is seeded process-globally",
    "srand": "seeds the process-global libc RNG",
    "rand_r": "libc PRNG outside the simulator seed",
    "drand48": "libc PRNG outside the simulator seed",
    "lrand48": "libc PRNG outside the simulator seed",
    "random": "libc PRNG outside the simulator seed",
    "time": "reads the wall clock",
    "clock": "reads the process clock",
    "gettimeofday": "reads the wall clock",
    "clock_gettime": "reads the wall clock",
    "timespec_get": "reads the wall clock",
    "localtime": "depends on host time/zone",
    "gmtime": "depends on host time",
    "strftime": "formats host time",
}
_BANNED_TYPES = {
    "random_device": "std::random_device is nondeterministic by design",
}
_CHRONO_CLOCKS = {"system_clock", "steady_clock", "high_resolution_clock"}
# getenv is allowed only inside these functions (suffix match on the
# qualified enclosing-function name).
_GETENV_ALLOWED_SUFFIXES = ("bench::init",)
# Keywords that may directly precede a banned call without making it a
# declaration (`return time(...)` is a call; `Duration time(...)` is not).
_STMT_KEYWORDS = {"return", "co_return", "co_yield", "case", "else", "do",
                  "throw"}


def _prev_punct(toks: List[Token], i: int) -> str:
    return toks[i - 1].text if i > 0 and toks[i - 1].kind == PUNCT else ""


def _is_member_access(toks: List[Token], i: int) -> bool:
    p = _prev_punct(toks, i)
    if p in (".", "->"):
        return True
    # `foo::bar(` where foo is not std — treat as project-scoped, allowed
    # for the call names (DET bans the libc/std entry points).
    if p == "::":
        k = i - 2
        if k >= 0 and toks[k].kind == IDENT and toks[k].text != "std":
            return True
    return False


def rule_det001(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    toks = sf.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != IDENT:
            continue
        name = t.text
        if name in _BANNED_TYPES and not _is_member_access(toks, i):
            yield Finding("DET001", sf.path, t.line, t.col,
                          f"use of `{name}`: {_BANNED_TYPES[name]}; "
                          "draw from Simulator::rng()/rng_stream() instead")
            continue
        nxt = toks[i + 1] if i + 1 < n else None
        is_call = nxt is not None and nxt.kind == PUNCT and nxt.text == "("
        if name in _BANNED_CALLS and is_call and \
                not _is_member_access(toks, i):
            # `time(` as a declaration like `sim::Time time(...)`? The
            # banned set is only flagged as a *call*: preceded by an
            # operator/separator/statement keyword, not by a type name.
            if i > 0 and toks[i - 1].kind == IDENT and \
                    toks[i - 1].text not in _STMT_KEYWORDS:
                continue  # `Duration time(...)` — a declaration
            yield Finding("DET001", sf.path, t.line, t.col,
                          f"call to banned API `{name}`: "
                          f"{_BANNED_CALLS[name]}; simulation code must be "
                          "deterministic (use sim::Simulator time/RNG)")
            continue
        if name in _CHRONO_CLOCKS:
            # std::chrono::steady_clock::now()
            if i + 3 < n and toks[i + 1].text == "::" and \
                    toks[i + 2].kind == IDENT and toks[i + 2].text == "now":
                yield Finding("DET001", sf.path, t.line, t.col,
                              f"`{name}::now()` reads a host clock; "
                              "simulated time comes from Simulator::now()")
            continue
        if name == "getenv" and is_call:
            fn = sf.enclosing(i) or ""
            if any(fn.endswith(sfx) for sfx in _GETENV_ALLOWED_SUFFIXES):
                continue
            yield Finding("DET001", sf.path, t.line, t.col,
                          "`getenv` outside bench::init: environment reads "
                          "must be centralized in the bench entry hook "
                          f"(enclosing function: {fn or '<file scope>'})")


# ---------------------------------------------------------------------------
# DET002 — effectful iteration over unordered containers.
# ---------------------------------------------------------------------------

# Calls that schedule events, emit traces/metrics, or write output.
_EFFECT_CALLS = {
    "schedule", "schedule_at", "cancel", "fire", "resume", "trace",
    "record", "observe", "emit", "printf", "fprintf", "fputs", "fputc",
    "fwrite", "puts", "putc", "putchar", "write_csv", "write_json",
    "add_row", "append_row", "flush_wqe", "post_send", "post_recv",
    "deliver", "send", "complete", "fail",
}
_EFFECT_PUNCT = {"<<"}  # stream output


def _iterated_name(expr: List[Token]) -> Optional[str]:
    """Name of the container in a range-for's range expression: the
    last identifier, skipping trailing () of accessor calls."""
    ids = [t.text for t in expr if t.kind == IDENT]
    return ids[-1] if ids else None


def _match_paren(toks: List[Token], i: int) -> int:
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == PUNCT:
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return n - 1


def _match_brace(toks: List[Token], i: int) -> int:
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == PUNCT:
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return n - 1


def _body_effects(toks: List[Token], start: int, end: int) -> Optional[str]:
    for k in range(start, min(end + 1, len(toks))):
        t = toks[k]
        if t.kind == IDENT and t.text in _EFFECT_CALLS:
            nxt = toks[k + 1] if k + 1 < len(toks) else None
            if nxt is not None and nxt.kind == PUNCT and nxt.text == "(":
                return t.text
        if t.kind == PUNCT and t.text in _EFFECT_PUNCT:
            return "operator<<"
    return None


def rule_det002(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    toks = sf.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if not (t.kind == IDENT and t.text == "for"):
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        close = _match_paren(toks, i + 1)
        header = toks[i + 2:close]
        # Range-for: a ':' at top template/paren depth.
        colon = None
        depth = 0
        for k, h in enumerate(header):
            if h.kind == PUNCT:
                if h.text in ("(", "<", "["):
                    depth += 1
                elif h.text in (")", ">", "]"):
                    depth -= 1
                elif h.text == ":" and depth == 0:
                    colon = k
                elif h.text == "::":
                    continue
        if colon is None:
            # Iterator loop over `x.begin()`?
            name = _iter_loop_container(header)
            if name is None or name not in ctx.unordered_names:
                continue
        else:
            name = _iterated_name(header[colon + 1:])
            if name is None or name not in ctx.unordered_names:
                continue
        body_start = close + 1
        if body_start < n and toks[body_start].text == "{":
            body_end = _match_brace(toks, body_start)
        else:  # single statement
            body_end = body_start
            while body_end < n and toks[body_end].text != ";":
                body_end += 1
        effect = _body_effects(toks, body_start, body_end + 1)
        if effect is None:
            continue
        decl_path, decl_line = ctx.unordered_names[name]
        yield Finding(
            "DET002", sf.path, t.line, t.col,
            f"iteration over unordered container `{name}` (declared at "
            f"{os.path.basename(decl_path)}:{decl_line}) has side effects "
            f"(`{effect}`): hash order is not deterministic across "
            "platforms — use an ordered container or sort keys first")


def _iter_loop_container(header: List[Token]) -> Optional[str]:
    for k, h in enumerate(header):
        if h.kind == IDENT and h.text in ("begin", "cbegin") and k >= 2:
            if header[k - 1].kind == PUNCT and header[k - 1].text in (".", "->"):
                if header[k - 2].kind == IDENT:
                    return header[k - 2].text
    return None


# ---------------------------------------------------------------------------
# DET003 — ordering keyed on pointer values.
# ---------------------------------------------------------------------------

_ORDERED_ASSOC = {"map": 1, "multimap": 1, "set": 1, "multiset": 1,
                  "priority_queue": 1}


def _first_template_arg(toks: List[Token], lt: int) -> Tuple[List[Token], int]:
    """Tokens of the first template argument after '<' at index lt, and
    the number of top-level arguments."""
    depth = 0
    args = 1
    first: List[Token] = []
    i = lt
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == PUNCT:
            if t.text in ("<", "("):
                depth += 1
            elif t.text in (")",):
                depth -= 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    break
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    break
            elif t.text == "," and depth == 1:
                args += 1
                i += 1
                continue
        if depth >= 1 and args == 1 and i != lt:
            first.append(t)
        i += 1
    return first, args


def rule_det003(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    toks = sf.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != IDENT:
            continue
        if t.text in _ORDERED_ASSOC:
            if i + 1 >= n or toks[i + 1].text != "<":
                continue
            # Only std:: (or unqualified) containers.
            if _prev_punct(toks, i) == "::" and i >= 2 and \
                    toks[i - 2].text != "std":
                continue
            first, nargs = _first_template_arg(toks, i + 1)
            if not first or first[-1].text != "*":
                continue
            three_arg = t.text in ("map", "multimap", "priority_queue")
            has_cmp = nargs >= (3 if three_arg else 2)
            if has_cmp:
                continue  # custom comparator: assume a stable key order
            yield Finding(
                "DET003", sf.path, t.line, t.col,
                f"`std::{t.text}` keyed on a pointer type "
                f"(`{''.join(tok.text for tok in first)}`): iteration order "
                "follows allocation addresses, which vary run to run — key "
                "on a stable id instead")
        elif t.text == "less" and i + 1 < n and toks[i + 1].text == "<":
            first, _ = _first_template_arg(toks, i + 1)
            if first and first[-1].text == "*":
                yield Finding(
                    "DET003", sf.path, t.line, t.col,
                    "`std::less` over a pointer type orders by address; "
                    "sort by a stable id instead")


# ---------------------------------------------------------------------------
# DET004 — RNG draws must route through the seeded simulator streams.
# ---------------------------------------------------------------------------

_STD_ENGINES = {"mt19937", "mt19937_64", "default_random_engine",
                "minstd_rand", "minstd_rand0", "ranlux24", "ranlux48",
                "knuth_b"}


def rule_det004(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    toks = sf.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != IDENT:
            continue
        if t.text in _STD_ENGINES:
            yield Finding(
                "DET004", sf.path, t.line, t.col,
                f"`std::{t.text}`: <random> engines are "
                "implementation-defined and bypass the simulator seed; all "
                "draws must come from Simulator::rng()/rng_stream()")
            continue
        if t.text == "Rng" and sf.in_function(i):
            # Default-constructed sim::Rng inside a function: a fixed
            # default seed untied to the run seed. `Rng r(seed)` and
            # `Rng r = sim.rng_stream("x")` are fine.
            j = i + 1
            if j < n and toks[j].kind == IDENT:  # `Rng name ...`
                k = j + 1
                if k < n and toks[k].kind == PUNCT and toks[k].text == ";":
                    yield Finding(
                        "DET004", sf.path, t.line, t.col,
                        f"default-constructed sim::Rng `{toks[j].text}` uses "
                        "the fixed default seed; obtain it from "
                        "Simulator::rng_stream(name) or pass the run seed")
                elif k < n and toks[k].kind == PUNCT and \
                        toks[k].text in ("(", "{") and \
                        k + 1 < n and toks[k + 1].kind == PUNCT and \
                        toks[k + 1].text in (")", "}"):
                    yield Finding(
                        "DET004", sf.path, t.line, t.col,
                        f"sim::Rng `{toks[j].text}` constructed with no "
                        "seed; obtain it from Simulator::rng_stream(name) "
                        "or pass the run seed")


# ---------------------------------------------------------------------------
# INV001 — conserved counters must not be written from outside their
# owning translation-unit pair.
# ---------------------------------------------------------------------------

_WRITE_AFTER = {"=", "+=", "-=", "*=", "/=", "++", "--"}
_WRITE_BEFORE = {"++", "--"}


def _owning_stems(decl_path: str) -> Set[str]:
    base = os.path.basename(decl_path)
    stem = base.rsplit(".", 1)[0]
    return {stem}


def rule_inv001(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    if not ctx.conserved:
        return
    toks = sf.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != IDENT or t.text not in ctx.conserved:
            continue
        decl_path, decl_line = ctx.conserved[t.text]
        decl_stem = os.path.basename(decl_path).rsplit(".", 1)[0]
        same_unit = (os.path.basename(sf.path).rsplit(".", 1)[0] == decl_stem)
        nxt = toks[i + 1] if i + 1 < n else None
        prv = toks[i - 1] if i > 0 else None
        wrote = False
        if nxt is not None and nxt.kind == PUNCT and nxt.text in _WRITE_AFTER:
            wrote = True
        if prv is not None and prv.kind == PUNCT and prv.text in _WRITE_BEFORE:
            wrote = True
        if not wrote:
            # Prefix increment through a member chain (`++obj.counter`):
            # walk back over the access chain and look for ++/--.
            j = i
            while j > 0 and (toks[j - 1].kind == IDENT or
                             (toks[j - 1].kind == PUNCT and
                              toks[j - 1].text in (".", "->"))):
                j -= 1
            if (j > 0 and j != i and toks[j - 1].kind == PUNCT and
                    toks[j - 1].text in ("++", "--")):
                wrote = True
        if not wrote:
            continue
        if (nxt is not None and nxt.kind == PUNCT and nxt.text == "=" and
                prv is not None and
                (prv.kind == IDENT or
                 (prv.kind == PUNCT and prv.text in ("*", "&", ">")))):
            # `Type name = ...` / `Type* name = ...`: a fresh local that
            # happens to share the counter's name, not a member write.
            continue
        if same_unit:
            continue  # the owning class's own accounting
        yield Finding(
            "INV001", sf.path, t.line, t.col,
            f"direct write to conserved counter `{t.text}` (declared at "
            f"{os.path.basename(decl_path)}:{decl_line}, `// lint:conserved`)"
            " from outside its owning translation unit bypasses the "
            "accounting invariant — go through the owning class's API")


# ---------------------------------------------------------------------------
# HDR001 — header hygiene.
# ---------------------------------------------------------------------------

_BANNED_HEADER_INCLUDES = {"iostream"}


def rule_hdr001(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    if not sf.is_header():
        return
    has_guard = False
    for idx, raw in enumerate(sf.lines[:60], start=1):
        s = raw.strip()
        if s.startswith("#pragma") and "once" in s:
            has_guard = True
            break
        if s.startswith("#ifndef"):
            nxt = sf.lines[idx].strip() if idx < len(sf.lines) else ""
            if nxt.startswith("#define"):
                has_guard = True
                break
    if not has_guard:
        yield Finding("HDR001", sf.path, 1, 1,
                      "header has no `#pragma once` (or include guard)")
    for idx, raw in enumerate(sf.lines, start=1):
        s = raw.strip()
        if not s.startswith("#include"):
            continue
        for banned in _BANNED_HEADER_INCLUDES:
            if f"<{banned}>" in s:
                yield Finding(
                    "HDR001", sf.path, idx, raw.index("#") + 1,
                    f"`#include <{banned}>` in a header: drags iostream "
                    "static-init into every TU — include it in the .cpp, "
                    "or use <cstdio>")


# ---------------------------------------------------------------------------
# LNT001 — suppressions must carry a reason.
# ---------------------------------------------------------------------------


def rule_lnt001(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    for s in sf.suppressions:
        if not s.reason:
            yield Finding(
                "LNT001", sf.path, s.line, 1,
                f"NOLINT-IBWAN({s.rule}) without a reason: suppressions "
                "must say why (`// NOLINT-IBWAN(RULE): reason`)")


# ---------------------------------------------------------------------------
# CONC001 — site selection flowing into the scheduler, directly or
# through a call chain (the pass-1 call graph).
# ---------------------------------------------------------------------------

# Accessors that select a specific site's Simulator (sim::SiteEngine /
# net::Fabric / core::Testbed).
_SITE_SELECTORS = {"site", "sim_of", "sim_of_node", "sim_of_site", "sim_a",
                   "sim_b", "sim_for"}
# Methods that inject events into the selected site's queue.
_SITE_MUTATORS = {"schedule", "schedule_at"}


def _enclosing_call_name(toks: List[Token], i: int) -> Optional[str]:
    """Name of the call whose argument list contains token i, or None
    when i is not inside a call's parentheses (statement boundary hit
    first)."""
    depth = 0
    k = i - 1
    while k >= 0:
        t = toks[k]
        if t.kind == PUNCT:
            if t.text == ")":
                depth += 1
            elif t.text == "(":
                if depth == 0:
                    if k > 0 and toks[k - 1].kind == IDENT:
                        return toks[k - 1].text
                    return None
                depth -= 1
            elif depth == 0 and t.text in (";", "{", "}"):
                return None
        k -= 1
    return None


def rule_conc001(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    """Flags events injected into a site picked by a site selector.
    Under site-parallel execution (DESIGN.md §13) the only legal way for
    causality to cross an LP boundary is the WAN channel (net::Link in
    channel mode / sim::SiteEngine::Channel); direct injection bypasses
    the conservative merge, so the event order — and with worker
    threads, memory safety — is no longer guaranteed.

    Chain form: `site(i).m(...)` where m is schedule/schedule_at itself
    (a chain of length zero) or a method that *transitively* reaches
    it.  Argument form: passing a selected site's Simulator into a free
    function that does.  Functions that take a `SiteEngine` parameter
    are engine-aware runners (they own the cross-LP coordination) and
    are exempt.  Wiring code that runs before the engine starts may
    suppress with a reason."""
    idx = ctx.index
    if idx is None:
        return
    toks = sf.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != IDENT or t.text not in _SITE_SELECTORS:
            continue
        if i + 1 >= n or not (toks[i + 1].kind == PUNCT and
                              toks[i + 1].text == "("):
            continue
        close = _match_paren(toks, i + 1)
        j = close + 1
        # Chain form: selector(...).m(...) where m is the scheduler or
        # reaches it through its body.
        if j + 2 < n and toks[j].kind == PUNCT and \
                toks[j].text in (".", "->") and \
                toks[j + 1].kind == IDENT and \
                toks[j + 2].kind == PUNCT and toks[j + 2].text == "(":
            m = toks[j + 1].text
            if m in _SITE_MUTATORS or m in idx.reaches_schedule:
                via = "" if m in _SITE_MUTATORS else (
                    f" through the call graph (`{m}` -> ... -> schedule)")
                yield Finding(
                    "CONC001", sf.path, t.line, t.col,
                    f"`{t.text}(...)`.{m}(...) schedules into a selected "
                    f"site's event queue{via}: cross-site causality must "
                    "cross the LP boundary through the WAN channel API "
                    "(net::Link in channel mode) — direct injection "
                    "bypasses the conservative merge and breaks "
                    "determinism under --par-sites (DESIGN.md §13)")
                continue
        # Argument form: f(selector(...), ...) where f reaches the
        # scheduler and is not an engine-aware runner.
        caller = _enclosing_call_name(toks, i)
        if caller and caller not in _SITE_SELECTORS and \
                caller not in _SITE_MUTATORS and \
                caller in idx.reaches_schedule and \
                caller not in idx.engine_aware:
            yield Finding(
                "CONC001", sf.path, t.line, t.col,
                f"`{t.text}(...)` passed to `{caller}`, which reaches "
                "Simulator::schedule: the callee will inject events into "
                "the selected site's queue without crossing a Channel — "
                "make it engine-aware (take the SiteEngine) or route "
                "through the WAN channel API (DESIGN.md §13)")


# ---------------------------------------------------------------------------
# CONC002 — site-local resources captured into cross-site callbacks.
# ---------------------------------------------------------------------------

# Types whose instances belong to exactly one LP.  A Channel::push
# callback runs when the *destination* site pops the event, so touching
# the source site's Simulator/metrics/traces/RNG from it is a data race
# under --par-sites.
_CONC002_TYPES = {"Simulator", "MetricsRegistry", "FlightRecorder", "Rng"}


def rule_conc002(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    idx = ctx.index
    if idx is None:
        return
    toks = sf.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != IDENT or t.text != "push":
            continue
        if _prev_punct(toks, i) not in (".", "->"):
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        close = _match_paren(toks, i + 1)
        # Find lambda arguments: a '[' at paren depth 1.
        depth = 0
        k = i + 1
        while k <= close:
            tk = toks[k]
            if tk.kind == PUNCT:
                if tk.text == "(":
                    depth += 1
                elif tk.text == ")":
                    depth -= 1
                elif tk.text == "[" and depth == 1:
                    # Capture list: idents up to the matching ']'.
                    j = k + 1
                    while j < n and not (toks[j].kind == PUNCT and
                                         toks[j].text == "]"):
                        cj = toks[j]
                        if cj.kind == IDENT and cj.text != "this" and \
                                cj.text in idx.resource_vars:
                            ty, dp, dl = idx.resource_vars[cj.text]
                            if ty in _CONC002_TYPES:
                                yield Finding(
                                    "CONC002", sf.path, cj.line, cj.col,
                                    f"site-local `{ty}` `{cj.text}` "
                                    f"(declared at "
                                    f"{os.path.basename(dp)}:{dl}) captured "
                                    "into a Channel::push callback: the "
                                    "callback runs on the destination LP, "
                                    "so this touches another site's state "
                                    "without crossing the channel — capture "
                                    "plain data and resolve the resource on "
                                    "the receiving side (DESIGN.md §13)")
                        j += 1
                    k = j
            k += 1


# ---------------------------------------------------------------------------
# CONC003 — mutable static state breaks site-parallel determinism.
# ---------------------------------------------------------------------------

# bench/examples/tools are single-threaded drivers; the rule guards the
# library code that runs inside LPs.
_CONC003_EXEMPT_ROOTS = {"bench", "examples", "tools"}
_CONST_QUALS = {"const", "constexpr", "constinit"}


def rule_conc003(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    if _CONC003_EXEMPT_ROOTS & set(os.path.normpath(sf.path).split(os.sep)):
        return
    toks = sf.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != IDENT or t.text not in ("static", "thread_local"):
            continue
        # `static thread_local X` — report once, at the first keyword.
        if i > 0 and toks[i - 1].kind == IDENT and \
                toks[i - 1].text in ("static", "thread_local"):
            continue
        is_const = False
        is_func = False
        name = None
        j = i + 1
        while j < n:
            tj = toks[j]
            if tj.kind == IDENT:
                if tj.text in _CONST_QUALS:
                    is_const = True
                name = tj.text
            elif tj.kind == PUNCT:
                if tj.text == "<":
                    j = _match_angle(toks, j)
                elif tj.text == "(":
                    is_func = True
                    break
                elif tj.text in (";", "=", "{"):
                    break
            j += 1
        if is_func or is_const or name is None:
            continue
        kw = t.text
        if i + 1 < n and toks[i + 1].kind == IDENT and \
                toks[i + 1].text in ("static", "thread_local"):
            kw = f"{kw} {toks[i + 1].text}"
        yield Finding(
            "CONC003", sf.path, t.line, t.col,
            f"mutable `{kw}` state `{name}`: function-local/namespace "
            "statics are shared across LPs and break determinism (or "
            "race outright) under --par-sites — move the state into the "
            "per-site Simulator/owning object, or suppress with the "
            "single-threaded-setup reason if it is only touched before "
            "the engine starts")


# ---------------------------------------------------------------------------
# UNIT001 — arithmetic mixing inferred time/byte/rate dimensions.
# ---------------------------------------------------------------------------

_UNIT_MIX_OPS = {"+", "-", "+=", "-=", "=", "<", ">", "<=", ">=",
                 "==", "!="}
_DIMENSION = {"ns": "time", "us": "time", "ms": "time",
              "bytes": "bytes", "per_s": "rate"}
# Multiplicative neighbors make the operand's dimension ambiguous
# (`bytes + rate * time` is fine); member/scope access re-types it.
_GUARD_BEFORE = {"*", "/", ".", "->", "::"}
_GUARD_AFTER = {"*", "/", ".", "->", "::", "("}


def rule_unit001(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    idx = ctx.index
    var_units = idx.var_units if idx is not None else {}
    toks = sf.tokens
    n = len(toks)
    for i in range(1, n - 1):
        op = toks[i]
        if op.kind != PUNCT or op.text not in _UNIT_MIX_OPS:
            continue
        a, b = toks[i - 1], toks[i + 1]
        if a.kind != IDENT or b.kind != IDENT:
            continue
        ua = unit_of(a.text) or var_units.get(a.text)
        ub = unit_of(b.text) or var_units.get(b.text)
        if ua is None or ub is None or ua == ub:
            continue
        if i >= 2 and toks[i - 2].kind == PUNCT and \
                toks[i - 2].text in ("*", "/"):
            continue  # `c * a_unit OP b` — a's term has another dimension
        if i + 2 < n and toks[i + 2].kind == PUNCT and \
                toks[i + 2].text in _GUARD_AFTER:
            continue  # `a OP b_unit * c` / `a OP b.member(...)`
        da, db = _DIMENSION[ua], _DIMENSION[ub]
        if da != db:
            yield Finding(
                "UNIT001", sf.path, op.line, op.col,
                f"`{a.text} {op.text} {b.text}` mixes "
                f"{index_mod.UNIT_HUMAN[ua]} with "
                f"{index_mod.UNIT_HUMAN[ub]}: both sides are plain "
                "integers, so nothing stops this dimensional error — "
                "convert explicitly or fix the operand")
        else:
            yield Finding(
                "UNIT001", sf.path, op.line, op.col,
                f"`{a.text} {op.text} {b.text}` mixes "
                f"{index_mod.UNIT_HUMAN[ua]} with "
                f"{index_mod.UNIT_HUMAN[ub]}: same dimension, different "
                "scale — convert explicitly (e.g. `* 1000`) so the "
                "factor is visible")


# ---------------------------------------------------------------------------
# UNIT002 — raw time literals in schedule/delay positions.
# ---------------------------------------------------------------------------

_TIME_CONSTS = {"kNanosecond", "kMicrosecond", "kMillisecond", "kSecond"}
# An explicit cast/construction to the time types is an explicit unit
# statement (Duration is defined as nanoseconds).
_TIME_TYPES = {"Duration", "Time"}


def _is_unitized_number(text: str) -> bool:
    return text.endswith(("_ns", "_us", "_ms", "_s"))


def _raw_number_value(text: str) -> Optional[int]:
    t = text.replace("'", "").rstrip("uUlL")
    try:
        return int(t, 0)
    except ValueError:
        return None


def rule_unit002(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    toks = sf.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != IDENT or t.text not in _SITE_MUTATORS:
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        close = _match_paren(toks, i + 1)
        # First top-level argument.
        arg: List[Token] = []
        depth = 0
        for k in range(i + 2, close):
            tk = toks[k]
            if tk.kind == PUNCT:
                if tk.text in ("(", "[", "{"):
                    depth += 1
                elif tk.text in (")", "]", "}"):
                    depth -= 1
                elif tk.text == "," and depth == 0:
                    break
            arg.append(tk)
        if not arg:
            continue
        has_marker = any(
            (tk.kind == NUMBER and _is_unitized_number(tk.text)) or
            (tk.kind == IDENT and
             (tk.text in _TIME_CONSTS or tk.text in _TIME_TYPES or
              (unit_of(tk.text) in ("ns", "us", "ms"))))
            for tk in arg)
        if has_marker:
            continue
        for tk in arg:
            if tk.kind != NUMBER or _is_unitized_number(tk.text):
                continue
            v = _raw_number_value(tk.text)
            if v == 0:
                continue  # zero is scale-free ("now")
            yield Finding(
                "UNIT002", sf.path, tk.line, tk.col,
                f"raw literal `{tk.text}` in a {t.text}() delay position: "
                "nothing says whether this is ns, us or ms — use the "
                "unit literals (`100_ns`, `10_us`; "
                "`using namespace sim::literals`) or the kNanosecond/"
                "kMicrosecond/kMillisecond constants")
            break  # one finding per call is enough


# ---------------------------------------------------------------------------
# SCHEMA001 — metric/trace names must match docs/METRICS.md, both ways.
# ---------------------------------------------------------------------------


def rule_schema001(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    """Source side: every metric registration whose scope resolves to a
    `.../layer` string, and every flight-recorder kind, must have a
    docs/METRICS.md row with the same kind and unit.  The docs side
    (documented-but-unregistered rows) is checked once per run by
    `project_schema001`.  Needs `--metrics-docs`; silent without it."""
    idx = ctx.index
    docs = idx.docs if idx is not None else None
    if docs is None:
        return
    summary = _summary_of(sf)
    for m in summary.metrics:
        if m["layer"] is None:
            continue  # scope not statically resolvable (e.g. a param)
        key = f"{m['layer']}/{m['leaf']}"
        row = docs.metrics.get(key)
        if row is None:
            yield Finding(
                "SCHEMA001", sf.path, m["line"], 1,
                f"metric `{key}` ({m['kind']}, {m['unit']}) is registered "
                f"here but has no row in {docs.path} — document it in the "
                "metric inventory")
        elif (row[0], row[1]) != (m["kind"], m["unit"]):
            yield Finding(
                "SCHEMA001", sf.path, m["line"], 1,
                f"metric `{key}` is registered as ({m['kind']}, "
                f"{m['unit']}) but {docs.path}:{row[2]} documents "
                f"({row[0]}, {row[1]}) — the schema and the code "
                "disagree")
    for name, line in summary.traces:
        if name == "?":
            continue  # the unknown-kind fallback arm
        if name not in docs.traces:
            yield Finding(
                "SCHEMA001", sf.path, line, 1,
                f"trace kind `{name}` is emitted by the flight recorder "
                f"but has no row in the {docs.path} flight-recorder "
                "table — document it")


def project_schema001(ctx: ProjectContext) -> Iterable[Finding]:
    """Docs-side SCHEMA001: rows documenting metrics/trace kinds that no
    scanned source registers.  Anchored at the stale docs row."""
    idx = ctx.index
    docs = idx.docs if idx is not None else None
    if docs is None:
        return
    unresolved_leaves = {k.split("/", 1)[1]
                        for k in idx.metric_regs if k.startswith("?/")}
    for key, (kind, unit, line) in sorted(docs.metrics.items()):
        if key in idx.metric_regs:
            continue
        leaf = key.rsplit("/", 1)[1]
        if leaf in unresolved_leaves:
            continue  # registered somewhere under a dynamic scope
        yield Finding(
            "SCHEMA001", docs.path, line, 1,
            f"documented metric `{key}` ({kind}, {unit}) is not "
            "registered anywhere in the scanned sources — delete the "
            "row or restore the metric")
    for name, line in sorted(docs.traces.items()):
        if name not in idx.trace_kinds:
            yield Finding(
                "SCHEMA001", docs.path, line, 1,
                f"documented trace kind `{name}` is not produced by "
                "trace_kind_name() — delete the row or restore the kind")


# ---------------------------------------------------------------------------
# SCHEMA002 — metric/trace names must match the naming grammar.
# ---------------------------------------------------------------------------


def rule_schema002(sf: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
    summary = _summary_of(sf)
    for m in summary.metrics:
        if m["layer"] is not None and \
                not index_mod.LAYER_GRAMMAR.match(m["layer"]):
            yield Finding(
                "SCHEMA002", sf.path, m["line"], 1,
                f"metric layer `{m['layer']}` violates the naming "
                "grammar `layer.component` (lowercase dot-separated "
                "segments, e.g. `net.link`, `ib.rc`)")
        if not index_mod.LEAF_GRAMMAR.match(m["leaf"]):
            yield Finding(
                "SCHEMA002", sf.path, m["line"], 1,
                f"metric name `{m['leaf']}` violates the naming grammar "
                "`[a-z0-9_]+` (lowercase snake_case)")
    for name, line in summary.traces:
        if name == "?":
            continue
        if not index_mod.TRACE_GRAMMAR.match(name):
            yield Finding(
                "SCHEMA002", sf.path, line, 1,
                f"trace kind `{name}` violates the naming grammar "
                "`[a-z0-9]+(-[a-z0-9]+)*` (lowercase kebab-case)")


RULES = {
    "DET001": rule_det001,
    "DET002": rule_det002,
    "DET003": rule_det003,
    "DET004": rule_det004,
    "CONC001": rule_conc001,
    "CONC002": rule_conc002,
    "CONC003": rule_conc003,
    "UNIT001": rule_unit001,
    "UNIT002": rule_unit002,
    "SCHEMA001": rule_schema001,
    "SCHEMA002": rule_schema002,
    "INV001": rule_inv001,
    "HDR001": rule_hdr001,
    "LNT001": rule_lnt001,
}

# Rules that run once per project (not per file); keyed by the same ids
# so `--rules` selection covers both halves.
PROJECT_RULES = {
    "SCHEMA001": project_schema001,
}

RULE_DOCS = {
    "DET001": "No banned nondeterminism APIs (rand/time/clocks; getenv "
              "only in bench::init).",
    "DET002": "No effectful iteration over unordered containers "
              "(schedule/trace/metrics/output in the loop body).",
    "DET003": "No ordering keyed on pointer values (std::map<T*,...>, "
              "std::less<T*>).",
    "DET004": "RNG draws must route through Simulator::rng()/rng_stream(); "
              "no <random> engines, no default-seeded sim::Rng locals.",
    "CONC001": "No scheduling into a selected site, directly "
               "(site(i).schedule(...)) or through a call chain; "
               "engine-aware functions taking a SiteEngine are exempt.",
    "CONC002": "No site-local Simulator/MetricsRegistry/FlightRecorder/"
               "Rng captured into Channel::push callbacks (they run on "
               "the destination LP).",
    "CONC003": "No mutable function-local/namespace static state in "
               "library code: statics are shared across LPs under "
               "--par-sites.",
    "UNIT001": "No arithmetic/assignment mixing inferred time/byte/rate "
               "units (`_ns`/`_bytes`/`_per_s` suffix inference).",
    "UNIT002": "No raw numeric literals in schedule()/schedule_at() "
               "delay positions; use `_ns`/`_us`/`_ms` literals or the "
               "kNanosecond-family constants.",
    "SCHEMA001": "Metric and trace names must match docs/METRICS.md "
                 "rows both ways (kind and unit included); needs "
                 "--metrics-docs.",
    "SCHEMA002": "Metric layers are lowercase dot-separated, leaves "
                 "snake_case, trace kinds kebab-case.",
    "INV001": "Conserved counters (`// lint:conserved`) are written only "
              "by their owning translation unit.",
    "HDR001": "Headers carry `#pragma once`/include guards and never "
              "include <iostream>.",
    "LNT001": "Every NOLINT-IBWAN suppression carries a reason.",
}
