"""CLI: python3 tools/ibwan_lint [options] <paths...>

Exit codes: 0 clean, 1 findings, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import os
import sys

if __package__ in (None, ""):  # `python3 tools/ibwan_lint` (path exec)
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    __package__ = "ibwan_lint"

from . import __version__, engine, sarif  # noqa: E402
from .rules import RULES, RULE_DOCS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ibwan-lint",
        description="Determinism & invariant static analysis for the "
                    "IB-WAN simulator (see DESIGN.md §10).")
    ap.add_argument("paths", nargs="*", default=[],
                    help="files or directories to scan")
    ap.add_argument("-p", "--compile-commands", metavar="JSON",
                    default="build/compile_commands.json",
                    help="compile_commands.json (default: "
                         "build/compile_commands.json; used for file "
                         "discovery)")
    ap.add_argument("--rules", metavar="IDS",
                    help="comma-separated rule ids (default: all)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog and exit")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable ibwan.lint.v1 output")
    ap.add_argument("--sarif", metavar="FILE",
                    help="also write findings as SARIF 2.1.0 to FILE "
                         "(GitHub code scanning)")
    ap.add_argument("--cache", metavar="FILE",
                    help="content-hash result cache: unchanged files "
                         "skip lexing and reuse their findings unless a "
                         "cross-file fact changed")
    ap.add_argument("--changed-only", action="store_true",
                    help="with --cache: report findings only for files "
                         "whose content changed (plus docs-side "
                         "SCHEMA001); exit code follows the reported set")
    ap.add_argument("--metrics-docs", metavar="MD",
                    help="docs/METRICS.md path enabling the SCHEMA001 "
                         "two-way metric/trace schema check")
    ap.add_argument("--suppressions", action="store_true",
                    help="report every NOLINT-IBWAN in the scanned tree "
                         "instead of linting")
    ap.add_argument("--suppressions-baseline", metavar="FILE",
                    help="fail if the tree carries suppressions beyond "
                         "this committed `path RULE` baseline")
    ap.add_argument("--update-baseline", action="store_true",
                    help="with --suppressions-baseline: rewrite the "
                         "baseline from the current tree instead of "
                         "checking against it")
    ap.add_argument("--show-suppressed", action="store_true",
                    help="also print suppressed findings with reasons")
    ap.add_argument("--version", action="version", version=__version__)
    args = ap.parse_args(argv)

    if args.list_rules:
        for rid in sorted(RULES):
            print(f"{rid}  {RULE_DOCS[rid]}")
        return 0
    if not args.paths:
        ap.error("no paths given (try: src bench examples tools)")

    rule_ids = None
    if args.rules:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rule_ids if r not in RULES]
        if unknown:
            print(f"ibwan-lint: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    try:
        res = engine.run(args.paths,
                         compile_commands=args.compile_commands,
                         rule_ids=rule_ids,
                         cache_path=args.cache,
                         changed_only=args.changed_only,
                         metrics_docs=args.metrics_docs)
    except FileNotFoundError as e:
        print(f"ibwan-lint: no such path: {e}", file=sys.stderr)
        return 2
    for e in res.errors:
        print(f"ibwan-lint: parse error: {e}", file=sys.stderr)

    if args.suppressions or args.suppressions_baseline:
        if args.suppressions:
            rc = engine.suppression_report(res.index)
        else:
            rc = 0
        if args.suppressions_baseline:
            if args.update_baseline:
                rc = max(rc, engine.write_suppression_baseline(
                    res.index, args.suppressions_baseline))
            else:
                rc = max(rc, engine.check_suppression_baseline(
                    res.index, args.suppressions_baseline))
        return 2 if res.errors else rc

    if args.sarif:
        sarif.write_sarif(res.findings, args.sarif)
    if args.json:
        rc = engine.report_json(res.findings)
    else:
        rc = engine.report_text(res.findings, args.show_suppressed,
                                stats=res)
    if res.errors:
        rc = 2
    return rc


if __name__ == "__main__":
    sys.exit(main())
