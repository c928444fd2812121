#!/usr/bin/env bash
# Alternating parent/change pairs of one repo-benchmark workload — the
# ROADMAP rigor rule as a command:
#
#   scripts/pairs.sh <parent-tree> <change-tree> <workload> [pairs] [seconds] [seed]
#
# Each tree is a checkout of this repository; its benchmark is built once
# (offline, into <tree>/benchmark/target unless CARGO_TARGET_DIR_PARENT /
# CARGO_TARGET_DIR_CHANGE say otherwise) and run from the tree's own root,
# one process at a time, `--trace 0`. Odd pairs run the parent first, even
# pairs the change. Prints one row per pair, then per end-to-end metric
# each side's median and quartiles, change / parent, the pairs the change
# won (ties win nothing) and the median gap (positive when the change is
# better) against the parent's own inter-quartile spread, and last
# whether `exact` lines, `correct` and `failed` agree. A gain may be
# claimed on a metric when the change wins at least nine pairs in ten and
# the gap exceeds the parent's spread.
#
# Defaults: 10 pairs, 15 seconds (what BENCHMARK.json runs), seed 2017;
# repeat with seed 7 for the held-out check. Raw result lines are kept in
# a fresh directory under $TMPDIR, printed at the end.
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seconds="${5:-15}"
seed="${6:-2017}"

build() { # <tree> <target-dir>
  CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml"
}
parent_target="${CARGO_TARGET_DIR_PARENT:-$parent/benchmark/target}"
change_target="${CARGO_TARGET_DIR_CHANGE:-$change/benchmark/target}"
build "$parent" "$parent_target"
build "$change" "$change_target"

out="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"
run() { # <side> <tree> <target-dir> <pair>
  (cd "$2" && "$3/release/f2c-benchmark" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0) >"$out/$1.$4.txt"
  tail -n 1 "$out/$1.$4.txt" >>"$out/$1.results"
  grep '^exact ' "$out/$1.$4.txt" >>"$out/$1.exact"
}
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run parent "$parent" "$parent_target" "$pair"
    run change "$change" "$change_target" "$pair"
  else
    run change "$change" "$change_target" "$pair"
    run parent "$parent" "$parent_target" "$pair"
  fi
  echo "pair $pair/$pairs done" >&2
done

# One metric's value per result line, in pair order.
metric() { # <side> <name>
  sed -n "s/.*\"$2\": {\"value\": \([0-9.eE+-]*\).*/\1/p" "$out/$1.results"
}
field() { # <side> <name>: a top-level scalar of the result line
  sed -n "s/.*\"$2\": \([a-z0-9]*\).*/\1/p" "$out/$1.results"
}

echo "## \`$workload\`, seed $seed, $pairs pairs at --seconds $seconds"
echo
echo "| pair | parent ops/s | change ops/s | ratio | p50 p/c | p99 p/c | RSS p/c | attempted p/c |"
echo "|---|---|---|---|---|---|---|---|"
paste <(metric parent ops_per_s) <(metric change ops_per_s) \
  <(metric parent call_p50_us) <(metric change call_p50_us) \
  <(metric parent call_p99_us) <(metric change call_p99_us) \
  <(metric parent peak_rss_mb) <(metric change peak_rss_mb) \
  <(field parent attempted) <(field change attempted) |
  awk '{ printf "| %d | %.0f | %.0f | %.3f | %.3f / %.3f | %.3f / %.3f | %.1f / %.1f | %d / %d |\n",
         NR, $1, $2, $2 / $1, $3, $4, $5, $6, $7, $8, $9, $10 }'
echo
echo "| metric | parent median [q1, q3] | change median [q1, q3] | change / parent | wins | gap / parent IQR |"
echo "|---|---|---|---|---|---|"
for spec in ops_per_s:higher call_p50_us:lower call_p99_us:lower \
  peak_rss_mb:lower setup_s:lower uplink_bytes_per_record:lower; do
  name="${spec%%:*}"
  paste <(metric parent "$name") <(metric change "$name") |
    awk -v name="$name" -v better="${spec##*:}" '
      # Quantile by linear interpolation between order statistics.
      function quantile(v, n, q,    pos, lo, frac) {
        pos = q * (n - 1); lo = int(pos); frac = pos - lo
        return lo + 1 < n ? v[lo + 1] + frac * (v[lo + 2] - v[lo + 1]) : v[n]
      }
      function sorted(src, dst, n,    i, j, t) {
        for (i = 1; i <= n; i++) dst[i] = src[i]
        for (i = 2; i <= n; i++) {
          t = dst[i]
          for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
          dst[j + 1] = t
        }
      }
      { p[NR] = $1; c[NR] = $2
        if (better == "higher" ? $2 > $1 : $2 < $1) wins++ }
      END {
        n = NR; sorted(p, ps, n); sorted(c, cs, n)
        pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
        p1 = quantile(ps, n, 0.25); p3 = quantile(ps, n, 0.75)
        gap = better == "higher" ? cm - pm : pm - cm
        printf "| `%s` | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.3f | %d/%d | %+.4g / %.4g |\n",
          name, pm, p1, p3, cm, quantile(cs, n, 0.25), quantile(cs, n, 0.75),
          (pm ? cm / pm : 0), wins, n, gap, p3 - p1
      }'
done
echo
echo "\`exact\` lines distinct: $(cat "$out"/parent.exact "$out"/change.exact | sort -u | wc -l);" \
  "correct false: $(cat "$out"/*.results | grep -c '"correct": false' || true);" \
  "failed total: $(cat "$out"/*.results | sed -n 's/.*"failed": \([0-9]*\).*/\1/p' | awk '{ s += $1 } END { print s + 0 }')"
echo "\`$(sort -u "$out"/parent.exact "$out"/change.exact | head -n 1)\`"
echo
echo "raw results: $out" >&2
