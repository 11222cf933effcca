"""File discovery, the two-pass driver, caching, reporting.

v2 flow (`run`):

  1. discover files; hash each file's content (sha256).
  2. For files whose hash matches the cache, reuse the cached pass-1
     `FileSummary` without re-lexing; parse the rest.
  3. Merge summaries (+ docs/METRICS.md) into the `ProjectIndex` and
     compute its digest over the cross-file facts rules consume.
  4. If the digest matches the cache, unchanged files also reuse their
     cached *findings* (suppressions already resolved); only changed
     files run pass 2.  A digest mismatch — someone changed a conserved
     annotation, a metric name, the call graph shape — re-runs pass 2
     everywhere, because any file's findings may now differ.
  5. Project-level rules (docs-side SCHEMA001) always run; they are
     anchored at docs/METRICS.md, not at a cached source file.

The cache is invalidated wholesale when the linter's own sources
change (`tool` digest) so a rule edit can never serve stale results.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .index import (FileSummary, MetricsDocs, ProjectIndex, build_summary)
from .lexer import LexError
from .model import Finding, SourceFile
from .rules import PROJECT_RULES, RULES, ProjectContext

_CXX_EXT = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh", ".hxx", ".inl")
# Directories never scanned even when a parent is given.
_SKIP_DIRS = {"build", ".git", "third_party", "fixtures"}

CACHE_SCHEMA = "ibwan.lint.cache.v2"


def discover(paths: Sequence[str],
             compile_commands: Optional[str] = None) -> List[str]:
    """Expands files/dirs to a sorted list of C++ sources.  When a
    compile_commands.json is given, its entries are added too (headers
    are still found by the directory walk)."""
    out = set()
    for p in paths:
        if os.path.isfile(p):
            out.add(os.path.normpath(p))
        elif os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
                for f in sorted(files):
                    if f.endswith(_CXX_EXT):
                        out.add(os.path.normpath(os.path.join(root, f)))
        else:
            raise FileNotFoundError(p)
    if compile_commands and os.path.isfile(compile_commands):
        with open(compile_commands, "r", encoding="utf-8") as fh:
            for entry in json.load(fh):
                f = os.path.normpath(
                    os.path.join(entry.get("directory", "."), entry["file"]))
                # Only files under one of the requested roots.
                for p in paths:
                    rp = os.path.abspath(p)
                    if os.path.abspath(f).startswith(rp + os.sep) or \
                            os.path.abspath(f) == rp:
                        out.add(os.path.relpath(f))
                        break
    return sorted(out)


def parse_files(paths: Iterable[str]) -> Tuple[List[SourceFile], List[str]]:
    files: List[SourceFile] = []
    errors: List[str] = []
    for p in paths:
        try:
            with open(p, "r", encoding="utf-8", errors="replace") as fh:
                files.append(SourceFile(p, fh.read()))
        except LexError as e:
            errors.append(f"{p}: {e}")
    return files, errors


# ---------------------------------------------------------------------------
# The content-hash cache.
# ---------------------------------------------------------------------------


def tool_digest() -> str:
    """sha256 over the linter's own sources: any rule/engine edit must
    invalidate every cached result."""
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(here)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(here, name), "rb") as fh:
            h.update(name.encode())
            h.update(fh.read())
    return h.hexdigest()


def load_cache(path: Optional[str], tool: str) -> dict:
    empty = {"schema": CACHE_SCHEMA, "tool": tool,
             "index_digest": "", "files": {}}
    if not path or not os.path.isfile(path):
        return empty
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return empty
    if doc.get("schema") != CACHE_SCHEMA or doc.get("tool") != tool:
        return empty  # stale tool: every cached result is suspect
    doc.setdefault("files", {})
    return doc


def save_cache(path: str, cache: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(cache, fh, sort_keys=True)
    os.replace(tmp, path)


def _finding_to_dict(f: Finding) -> dict:
    return {"rule": f.rule, "path": f.path, "line": f.line, "col": f.col,
            "message": f.message, "suppressed": f.suppressed,
            "suppress_reason": f.suppress_reason}


def _finding_from_dict(d: dict) -> Finding:
    return Finding(d["rule"], d["path"], d["line"], d["col"], d["message"],
                   d["suppressed"], d["suppress_reason"])


# ---------------------------------------------------------------------------
# The driver.
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    findings: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    files_total: int = 0
    files_linted: int = 0    # parsed and run through pass 2
    files_cached: int = 0    # findings served from the cache
    changed: List[str] = field(default_factory=list)
    index: Optional[ProjectIndex] = None


def _lint_one(sf: SourceFile, ctx: ProjectContext,
              selected: Sequence[str]) -> List[Finding]:
    findings: List[Finding] = []
    for rid in selected:
        findings.extend(RULES[rid](sf, ctx))
    for f in findings:
        sup = sf.suppression_for(f.rule, f.line)
        if sup is not None:
            sup.used = True
            f.suppressed = True
            f.suppress_reason = sup.reason
    return findings


def run(paths: Sequence[str], *,
        compile_commands: Optional[str] = None,
        rule_ids: Optional[Sequence[str]] = None,
        cache_path: Optional[str] = None,
        changed_only: bool = False,
        metrics_docs: Optional[str] = None) -> RunResult:
    res = RunResult()
    file_list = discover(paths, compile_commands)
    res.files_total = len(file_list)
    selected = list(rule_ids) if rule_ids else sorted(RULES)

    tool = tool_digest()
    cache = load_cache(cache_path, tool)

    texts: Dict[str, str] = {}
    shas: Dict[str, str] = {}
    summaries: Dict[str, FileSummary] = {}
    parsed: Dict[str, SourceFile] = {}

    for p in file_list:
        try:
            with open(p, "r", encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError as e:
            res.errors.append(f"{p}: {e}")
            continue
        texts[p] = text
        shas[p] = hashlib.sha256(text.encode()).hexdigest()
        ent = cache["files"].get(p)
        if ent is not None and ent.get("sha") == shas[p]:
            summaries[p] = FileSummary.from_dict(ent["summary"])
        else:
            try:
                sf = SourceFile(p, text)
            except LexError as e:
                res.errors.append(f"{p}: {e}")
                continue
            sf.summary = build_summary(sf)
            parsed[p] = sf
            summaries[p] = sf.summary

    docs = MetricsDocs.load(metrics_docs) if metrics_docs else None
    idx = ProjectIndex.build(summaries.values(), docs)
    res.index = idx
    digest = idx.digest()
    res.changed = sorted(parsed)

    # A cross-file-fact change invalidates every cached finding.
    if cache.get("index_digest") != digest:
        for p in file_list:
            if p in summaries and p not in parsed:
                try:
                    sf = SourceFile(p, texts[p])
                except LexError as e:
                    res.errors.append(f"{p}: {e}")
                    del summaries[p]
                    continue
                sf.summary = summaries[p]
                parsed[p] = sf

    ctx = ProjectContext.from_index(idx)

    new_cache = {"schema": CACHE_SCHEMA, "tool": tool,
                 "index_digest": digest, "files": {}}
    for p in file_list:
        if p not in summaries:
            continue
        if p in parsed:
            fs = _lint_one(parsed[p], ctx, selected)
            res.files_linted += 1
        else:
            fs = [_finding_from_dict(d)
                  for d in cache["files"][p].get("findings", [])
                  if d["rule"] in selected]
            res.files_cached += 1
        res.findings.extend(fs)
        new_cache["files"][p] = {
            "sha": shas[p],
            "summary": summaries[p].to_dict(),
            "findings": [_finding_to_dict(f) for f in fs],
        }

    for rid, project_rule in sorted(PROJECT_RULES.items()):
        if rid in selected:
            res.findings.extend(project_rule(ctx))

    if changed_only:
        keep = set(parsed) | ({docs.path} if docs else set())
        res.findings = [f for f in res.findings if f.path in keep]

    res.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    if cache_path:
        save_cache(cache_path, new_cache)
    return res


def run_rules(files: List[SourceFile],
              rule_ids: Optional[Sequence[str]] = None,
              metrics_docs: Optional[str] = None) -> List[Finding]:
    """Cache-free entry point over pre-parsed files (tests use this).
    Runs both per-file and project-level rules."""
    docs = MetricsDocs.load(metrics_docs) if metrics_docs else None
    ctx = ProjectContext.build(files, docs)
    selected = list(rule_ids) if rule_ids else sorted(RULES)
    findings: List[Finding] = []
    for sf in files:
        findings.extend(_lint_one(sf, ctx, selected))
    for rid, project_rule in sorted(PROJECT_RULES.items()):
        if rid in selected:
            findings.extend(project_rule(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def report_text(findings: List[Finding], show_suppressed: bool,
                out=sys.stdout, stats: Optional[RunResult] = None) -> int:
    active = [f for f in findings if not f.suppressed]
    for f in active:
        print(f.format(), file=out)
    if show_suppressed:
        for f in findings:
            if f.suppressed:
                print(f"{f.format()} [suppressed: {f.suppress_reason}]",
                      file=out)
    n_sup = sum(1 for f in findings if f.suppressed)
    extra = ""
    if stats is not None and stats.files_cached:
        extra = (f" ({stats.files_linted} linted, "
                 f"{stats.files_cached} from cache)")
    print(f"ibwan-lint: {len(active)} finding(s), {n_sup} suppressed"
          f"{extra}", file=out)
    return 1 if active else 0


def report_json(findings: List[Finding], out=sys.stdout) -> int:
    doc = {
        "schema": "ibwan.lint.v1",
        "findings": [_finding_to_dict(f) for f in findings],
    }
    json.dump(doc, out, indent=2)
    out.write("\n")
    return 1 if any(not f.suppressed for f in findings) else 0


# ---------------------------------------------------------------------------
# Suppression audit (`--suppressions` / `--suppressions-baseline`).
# ---------------------------------------------------------------------------


def suppression_report(idx: ProjectIndex, out=sys.stdout) -> int:
    """Lists every NOLINT-IBWAN in the scanned tree, one per line:
    `path:line: RULE: reason`."""
    for path, line, rule, reason in idx.all_suppressions:
        print(f"{path}:{line}: {rule}: {reason}", file=out)
    print(f"ibwan-lint: {len(idx.all_suppressions)} suppression(s)",
          file=out)
    return 0


def suppression_keys(idx: ProjectIndex) -> List[str]:
    """Line-number-free multiset keys (`path RULE`), so moving code
    within a file does not churn the baseline."""
    return sorted(f"{path} {rule}"
                  for path, _line, rule, _ in idx.all_suppressions)


def check_suppression_baseline(idx: ProjectIndex, baseline_path: str,
                               out=sys.stdout) -> int:
    """Fails (exit 1) when the tree carries suppressions beyond the
    committed baseline: adding one forces a baseline edit, which makes
    the new suppression visible in the PR diff.  Shrinking is legal and
    just suggests tightening the baseline."""
    try:
        with open(baseline_path, "r", encoding="utf-8") as fh:
            baseline = sorted(ln.strip() for ln in fh
                              if ln.strip() and not ln.startswith("#"))
    except OSError as e:
        print(f"ibwan-lint: cannot read baseline: {e}", file=out)
        return 2
    current = suppression_keys(idx)

    def multiset(keys):
        m: Dict[str, int] = {}
        for k in keys:
            m[k] = m.get(k, 0) + 1
        return m

    cur, base = multiset(current), multiset(baseline)
    grew = {k: c - base.get(k, 0) for k, c in cur.items()
            if c > base.get(k, 0)}
    shrank = {k: c - cur.get(k, 0) for k, c in base.items()
              if c > cur.get(k, 0)}
    if grew:
        print("ibwan-lint: suppression budget exceeded — new "
              "suppressions not in the baseline:", file=out)
        for k, extra in sorted(grew.items()):
            print(f"  +{extra}  {k}", file=out)
        print(f"update {baseline_path} in the same PR to account for "
              "them (the diff line is the audit trail)", file=out)
        return 1
    if shrank:
        print("ibwan-lint: baseline is stale (suppressions removed); "
              f"consider tightening {baseline_path}:", file=out)
        for k, fewer in sorted(shrank.items()):
            print(f"  -{fewer}  {k}", file=out)
    print(f"ibwan-lint: {len(current)} suppression(s) within baseline "
          f"budget ({len(baseline)})", file=out)
    return 0


_BASELINE_HEADER = """\
# ibwan-lint suppression budget: one `path RULE` line per
# NOLINT-IBWAN comment in the linted tree (line numbers omitted so
# moving code does not churn the file).  Adding a suppression fails CI
# until the new key lands here too — the diff line is the audit trail.
# Regenerate: python3 tools/ibwan_lint src bench examples tools \\
#   --suppressions-baseline tests/lint/suppressions_baseline.txt \\
#   --update-baseline
"""


def write_suppression_baseline(idx: ProjectIndex, baseline_path: str,
                               out=sys.stdout) -> int:
    tmp = baseline_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_BASELINE_HEADER)
        for k in suppression_keys(idx):
            fh.write(k + "\n")
    os.replace(tmp, baseline_path)
    print(f"ibwan-lint: wrote {len(suppression_keys(idx))} suppression "
          f"key(s) to {baseline_path}", file=out)
    return 0
