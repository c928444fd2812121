#!/usr/bin/env bash
# The acceptance protocol on one tree: two sets of runs of the same code, ten
# seeds per workload each, then `compare` with each metric's own bound.
#   - every seed-determined count and outcome_hash must be equal,
#   - no median may be worse in the second set by more than its bound,
#   - no spread (except setup_s, which the protocol exempts) may exceed its bound.
# `--quick` (2 seeds, 1 s per run, about two minutes) keeps every output check and
# the equality of the exact counts, and drops the statistics two runs cannot give.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
rounds=10 seed=2017 quick=0
seconds="" # empty: the run length BENCHMARK.json declares
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) quick=1 rounds=2 seconds=1 ;;
    --seed) seed="$2"; shift ;;
    *) echo "usage: selfcheck.sh [--quick] [--seed n]" >&2; exit 2 ;;
  esac
  shift
done
out="$here/out"
for set in a b; do
  bash "$here/run.sh" run --seed "$seed" --rounds "$rounds" ${seconds:+--seconds "$seconds"} \
    --out "$out/selfcheck-$set.json"
done
status=0
bash "$here/run.sh" compare "$out/selfcheck-a.json" "$out/selfcheck-b.json" \
  | tee "$out/selfcheck.txt" || status=$?
if grep -q "DIFFERENT" "$out/selfcheck.txt"; then
  echo "selfcheck: seed-determined counts differ between two runs of the same code" >&2
  exit 1
fi
if [ "$quick" = 1 ]; then
  echo "selfcheck --quick: output checks passed, exact counts equal"
  exit 0
fi
if [ "$status" != 0 ] || grep -v " setup_s " "$out/selfcheck.txt" | grep -q "unresolved"; then
  echo "selfcheck: a median moved or a spread is wider than its bound (see $out/selfcheck.txt)" >&2
  exit 1
fi
echo "selfcheck: two sets of $rounds seeds agree within every bound"
