#!/usr/bin/env bash
# Compare the repo benchmark between two checkouts in alternating pairs.
#
#   tools/ab_pairs.sh <parent-checkout> <change-checkout> <workload> [pairs] [-- benchmark args]
#
#   tools/ab_pairs.sh ../parent . compile-wrp-q2 10 -- --seconds 12 --trace 0
#   tools/ab_pairs.sh . . compile-erp-q2 1 -- --seconds 1     # a smoke run
#
# Builds each checkout's `rld-benchmark` once, into that checkout's own
# `benchmark/target`, then runs `pairs` pairs (default 10) of one process per
# side, each from its own checkout, with the side that runs first
# alternating. The benchmark arguments (default `--trace 0`) go to both
# sides unchanged; the workload is given once, before them.
#
# Prints one row per end-to-end metric of the change's BENCHMARK.json: each
# side's median and interquartile range, the median of the per-pair ratios
# change / parent, the change's wins (ties count for neither) and a verdict:
#   unresolved  the parent's own IQR is wider than the metric's bound times
#            the parent's median, so the pairs cannot tell a move inside the
#            bound from the box's spread — unless every change run reads
#            better than every parent run, which the spread cannot explain;
#   gain     the change won at least 9 in 10 pairs, the medians differ by more
#            than the parent's IQR in the better direction, and there were at
#            least 10 pairs;
#   gain?    the same, over fewer than 10 pairs;
#   worse    the change's median is worse than the parent's by more than the
#            metric's bound;
#   -        otherwise: level within the bound, read against a parent spread
#            narrower than it.
# The verdicts are tried in this order.
# Each pair's values go to stderr as they are measured, and every record is
# kept in a temporary directory whose path is printed at the end.
# Needs bash, cargo and jq.
set -euo pipefail

usage() {
    sed -n '2,4p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[[ $# -ge 3 ]] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
shift 3
pairs=10
if [[ $# -gt 0 && $1 != -- ]]; then
    pairs=$1
    shift
fi
if [[ $# -gt 0 ]]; then
    [[ $1 == -- ]] || usage
    shift
fi
bench_args=("$@")
[[ ${#bench_args[@]} -gt 0 ]] || bench_args=(--trace 0)
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

binary() {
    echo "$1/benchmark/target/release/rld-benchmark"
}

for side in "$parent" "$change"; do
    echo "building $side" >&2
    (cd "$side" && CARGO_TARGET_DIR="$side/benchmark/target" \
        cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2)
done

records=$(mktemp -d)
run() { # <side name> <checkout> <pair>
    local out="$records/$1-$3.json"
    (cd "$2" && "$(binary "$2")" --workload "$workload" "${bench_args[@]}" 2>/dev/null) >"$out"
    jq -e '.metrics' "$out" >/dev/null || {
        echo "run $1 $3 printed no record (see $out)" >&2
        exit 1
    }
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$parent" "$i"
        run change "$change" "$i"
        first=parent
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
        first=change
    fi
    jq -rn --arg i "$i" --arg n "$pairs" --arg first "$first" \
        --slurpfile p "$records/parent-$i.json" --slurpfile c "$records/change-$i.json" '
        "pair \($i)/\($n) (\($first) first): " + ([$c[0].metrics | to_entries[]
            | "\(.key) \($p[0].metrics[.key].value // "n/a") -> \(.value.value)"] | join(", "))
    ' >&2
done

jq -rn --arg workload "$workload" --arg args "${bench_args[*]}" --argjson pairs "$pairs" \
    --slurpfile manifest "$change/BENCHMARK.json" \
    --slurpfile parent <(for ((i = 1; i <= pairs; i++)); do cat "$records/parent-$i.json"; done) \
    --slurpfile change <(for ((i = 1; i <= pairs; i++)); do cat "$records/change-$i.json"; done) '
    # Quantile by linear interpolation between the order statistics.
    def quantile($q): sort | ((length - 1) * $q) as $h | ($h | floor) as $lo
        | .[$lo] + ($h - $lo) * (.[$h | ceil] - .[$lo]);
    def iqr: quantile(0.75) - quantile(0.25);
    # Four significant digits, written out without an exponent.
    def num:
        if . == null then "n/a"
        elif . == 0 then "0"
        else (if . < 0 then "-" else "" end) as $sign | fabs as $x
            | ($x | log10 | floor) as $e0 | ($x / pow(10; $e0 - 3) | round) as $m0
            | (if $m0 >= 10000 then [($m0 / 10 | round), $e0 + 1] else [$m0, $e0] end) as [$m, $e]
            | ($m | tostring) as $d
            | if $e >= 3 then $sign + $d + "0" * ($e - 3)
              elif $e >= 0 then $sign + $d[0:$e + 1] + "." + $d[$e + 1:]
              else $sign + "0." + "0" * (-$e - 1) + $d end
        end;
    def pad($n): tostring | . + " " * ([$n - length, 1] | max);
    "workload \($workload), \($pairs) pairs, benchmark args: \($args)",
    ([["metric", "unit", "parent median", "(IQR)", "change median", "(IQR)",
       "ratio", "wins", "verdict"]
     | .[0] |= pad(16) | .[1] |= pad(9) | .[2:6][] |= pad(14) | .[6] |= pad(7)
     | .[7] |= pad(7)] | .[0] | join("")),
    ($manifest[0].end_to_end[] as $m
     | [$parent[].metrics[$m.name].value] as $p
     | [$change[].metrics[$m.name].value] as $c
     | if ($p | any(. == null)) or ($c | any(. == null)) then
           [($m.name | pad(16)), ($m.unit | pad(9)), "n/a"] | join("")
       else
           ($p | quantile(0.5)) as $pm | ($c | quantile(0.5)) as $cm
           | ($p | iqr) as $piqr
           | (if $m.better == "lower" then 1 else -1 end) as $sign
           | ([range(0; $pairs) | select(($p[.] - $c[.]) * $sign > 0)] | length) as $wins
           | ([range(0; $pairs) | if $p[.] == 0 then null else $c[.] / $p[.] end]
              | if any(. == null) then null else quantile(0.5) end) as $ratio
           | (($c | map(. * $sign) | max) < ($p | map(. * $sign) | min)) as $separated
           | (if $piqr > $m.bound * ($pm | fabs) and ($separated | not) then "unresolved"
              elif $wins * 10 >= 9 * $pairs and ($pm - $cm) * $sign > $piqr then
                  (if $pairs >= 10 then "gain" else "gain?" end)
              elif ($cm - $pm) * $sign > $m.bound * ($pm | fabs) then "worse"
              else "-" end) as $verdict
           | [($m.name | pad(16)), ($m.unit | pad(9)), ($pm | num | pad(14)),
              ("(" + ($piqr | num) + ")" | pad(14)), ($cm | num | pad(14)),
              ("(" + ($c | iqr | num) + ")" | pad(14)), ($ratio | num | pad(7)),
              ("\($wins)/\($pairs)" | pad(7)), $verdict] | join("")
       end)
'
echo "records: $records" >&2
