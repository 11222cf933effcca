"""ibwan-lint: determinism & invariant static analysis for the IB-WAN sim.

Every figure this repository reproduces depends on byte-identical
deterministic replay.  This package makes the determinism contract
machine-checked instead of review-checked: a small rule engine walks a
token-level model of each translation unit and reports violations of
the rules catalogued in DESIGN.md §10.

Since v2 the engine is two-pass and flow-aware: pass 1 distills every
file into a `FileSummary` (function spans, a lightweight call graph,
declared types for site-local resources, `_ns`/`_bytes`/`_per_s` unit
inference, metric/trace registrations) and merges them into a
`ProjectIndex`; pass 2 runs the rules with that index available.  A
content-hash cache (`--cache`) lets CI re-lint only changed files, and
`--sarif` emits SARIF 2.1.0 for code scanning.

Rules shipped here:

  DET001    banned nondeterminism APIs (rand/time/clocks/getenv/...)
  DET002    effectful iteration over unordered containers
  DET003    ordering keyed on pointer values
  DET004    RNG draws that bypass the seeded Simulator streams
  CONC001   scheduling into another LP's queue, directly or via calls
  CONC002   site-local resources captured into Channel::push callbacks
  CONC003   mutable static state in library code (races --par-sites)
  UNIT001   arithmetic mixing inferred time/byte/rate units
  UNIT002   raw numeric literals in schedule() delay positions
  SCHEMA001 metric/trace names vs docs/METRICS.md, both directions
  SCHEMA002 metric/trace naming grammar
  INV001    direct writes to `// lint:conserved` accounting counters
  HDR001    header hygiene (guards, no <iostream> in headers)
  LNT001    suppressions must carry a reason

Suppression: append `// NOLINT-IBWAN(RULE): reason` to the offending
line, or place it alone on the line above.  `--suppressions` audits
them; `--suppressions-baseline` enforces the committed budget.
"""

__version__ = "2.0.0"
