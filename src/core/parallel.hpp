// Process-wide knobs for site-parallel (PDES) execution, DESIGN.md §13.
//
// `par_sites` is the requested number of logical processes per
// simulation (one per cluster; 1 = today's sequential engine). Benches
// set it from `--par-sites N` (bench::init); tests set it directly.
// Like the seed knob it must be set before testbeds are constructed and
// is read-only while sweeps run.
//
// `IBWAN_THREADS=1` doubles as the differential oracle switch: with a
// one-thread budget the partition is pointless, so Testbed collapses to
// one site and runs the exact sequential path the committed CSVs were
// generated with.
#pragma once

#include <cstdlib>

namespace ibwan::core {

namespace detail {
inline int& par_sites_storage() {
  // NOLINT-IBWAN(CONC003): process-wide CLI knob, set once before any run
  static int sites = 1;  // NOLINT: process-wide knob, set before runs start
  return sites;
}
}  // namespace detail

inline int par_sites() { return detail::par_sites_storage(); }

inline void set_par_sites(int sites) {
  detail::par_sites_storage() = sites < 1 ? 1 : sites;
}

/// PDES worker budget: IBWAN_THREADS when set, else 0 (auto — the
/// engine sizes its pool from hardware concurrency). A value of 1
/// forces sequential execution.
inline int pdes_threads() {
  // NOLINT-IBWAN(DET001): explicit user knob; the worker budget never
  // affects simulated outputs, only wall-clock time
  if (const char* env = std::getenv("IBWAN_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 0;
}

}  // namespace ibwan::core
