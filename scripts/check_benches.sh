#!/usr/bin/env bash
# Bench determinism gate: every bench CSV and metrics export must be a
# pure function of (code, seed). For each bench listed in the build's
# manifest (<build-dir>/bench/benches.txt, written by bench/CMakeLists.txt)
# this runs a sequential reference (IBWAN_THREADS=1) and a site-parallel
# run (--par-sites 2), both with --metrics and --selfcheck, and compares
# every CSV and JSON the two write byte for byte. Benches marked `chaos`
# repeat the pair under examples/chaos_plan.json. Exits 1, naming the
# bench, on any difference or any nonzero bench exit (a failed selfcheck
# included).
#
#   scripts/check_benches.sh [build-dir]     # default: the repo's build/
#
# Runs at the master seed in IBWAN_SEED (default 42).
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "${1:-$repo/build}" && pwd)"
manifest="$build/bench/benches.txt"
[[ -f "$manifest" ]] || { echo "no $manifest: configure first" >&2; exit 2; }
mapfile -t names < <(cut -d' ' -f1 "$manifest")
cmake --build "$build" -j "$(nproc)" --target "${names[@]}" >/dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
unset IBWAN_THREADS  # the site-parallel run gets a real worker pool
fail=0
count=0

# run <label> <seq|par> <command...>: one bench process in its own dir.
run() {
  local dir="$tmp/$1/$2"
  shift 2
  mkdir -p "$dir"
  (cd "$dir" && "$@" </dev/null >stdout.txt 2>&1) && return
  echo "FAIL ${dir#"$tmp"/}: exited nonzero"
  tail -n 5 "$dir/stdout.txt"
  fail=1
}

# check <bench> <label> [bench args...]: one sequential/site-parallel pair.
check() {
  local b=$1 label=$2
  shift 2
  local args=(--metrics "$b.metrics.json" --selfcheck "$@")
  run "$label" seq env IBWAN_THREADS=1 "$build/bench/$b" "${args[@]}"
  run "$label" par "$build/bench/$b" --par-sites 2 "${args[@]}"
  if ! diff -r -x stdout.txt "$tmp/$label/seq" "$tmp/$label/par" \
      >"$tmp/$label.diff"; then
    echo "FAIL $label: artifacts differ between sequential and site-parallel"
    head -n 10 "$tmp/$label.diff"
    fail=1
  fi
  count=$((count + $(find "$tmp/$label/seq" -name '*.csv' -o -name '*.json' | wc -l)))
}

while read -r b chaos; do
  echo "== $b"
  check "$b" "$b"
  if [[ $chaos == chaos ]]; then
    check "$b" "$b-chaos" --faults "$repo/examples/chaos_plan.json"
  fi
done <"$manifest"

if [[ $fail == 0 ]]; then
  echo "check_benches: $count artifacts byte-identical, every selfcheck" \
       "passed (seed ${IBWAN_SEED:-42})"
fi
exit "$fail"
