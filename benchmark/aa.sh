#!/usr/bin/env bash
# A/A check: runs the benchmark twice over on the same checkout and shows
# how far two sets of runs of the same code lie apart, per end-to-end
# metric and workload, against the metric's bound in BENCHMARK.json.
#
#   bash benchmark/aa.sh [runs-per-side (default 5)] [seconds (default 10)]
#
# The two sides alternate (A B, B A, ...), the workload order reverses
# from round to round, and every run takes a fresh seed, as the driver's
# runs do. Prints each side's median, their difference relative to side
# A's median, and side A's own spread (distance between its quartiles
# over its median, the measure the bounds were fixed from). Exits
# non-zero when a difference is worse than its bound, or a run failed its
# reference checks. A later change that moves a metric by less than the
# spread printed here is "unresolved", not "unchanged".
set -euo pipefail

runs=${1:-5}
seconds=${2:-10}
workloads=(hunt-hot intel-cold ingest-only live-mixed)
out=benchmark/out
mkdir -p "$out"
log=$out/aa.tsv
: >"$log"

seed=100
for ((round = 0; round < runs; round++)); do
    order=("${workloads[@]}")
    sides=(A B)
    if ((round % 2)); then
        order=(live-mixed ingest-only intel-cold hunt-hot)
        sides=(B A)
    fi
    for workload in "${order[@]}"; do
        for side in "${sides[@]}"; do
            seed=$((seed + 1))
            result=$(bash benchmark/run.sh --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0 | tail -n 1) || true
            if [[ $result != *'"correct": true'* ]]; then
                echo "aa.sh: $workload seed $seed failed: $result" >&2
                echo "FAILED" >>"$log"
                continue
            fi
            # "name": {"value": 1.5, "unit": "ms"} -> side workload name value
            grep -o '"[a-z0-9_.]*": {"value": [^,]*' <<<"$result" |
                sed -e 's/"//g' -e 's/: {value: /\t/' |
                awk -v s="$side" -v w="$workload" '{ print s "\t" w "\t" $1 "\t" $2 }' >>"$log"
        done
    done
done

awk -v manifest=BENCHMARK.json '
function median(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
# Quartiles as Python statistics.quantiles(values, n=4) gives them; `a` is sorted.
function quartile(a, n, k,    pos, lo, frac) {
    pos = k * (n + 1) / 4; lo = int(pos); frac = pos - lo
    if (lo < 1) return a[1]; if (lo >= n) return a[n]
    return a[lo] + frac * (a[lo + 1] - a[lo])
}
BEGIN {
    while ((getline line < manifest) > 0)
        if (line ~ /"bound"/) {
            name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
            better = line; sub(/.*"better": "/, "", better); sub(/".*/, "", better)
            bound = line; sub(/.*"bound": /, "", bound); sub(/}.*/, "", bound)
            bounds[name] = bound + 0; higher[name] = (better == "higher")
        }
}
$1 == "FAILED" { failed++; next }
{ key = $2 "\t" $3; n[$1, key]++; v[$1, key, n[$1, key]] = $4; keys[key] = 1 }
END {
    printf "%-12s %-12s %14s %14s %9s %9s %7s\n", "workload", "metric", "median A", "median B", "B vs A", "spread A", "bound"
    for (key in keys) {
        split(key, part, "\t")
        na = n["A", key]; nb = n["B", key]
        for (i = 1; i <= na; i++) a[i] = v["A", key, i]
        for (i = 1; i <= nb; i++) b[i] = v["B", key, i]
        ma = median(a, na); mb = median(b, nb)
        worse = higher[part[2]] ? (ma - mb) / ma : (mb - ma) / ma
        spread = na >= 2 ? (quartile(a, na, 3) - quartile(a, na, 1)) / ma : 0
        verdict = worse > bounds[part[2]] ? "  OUTSIDE" : ""
        if (verdict != "") outside++
        printf "%-12s %-12s %14.4f %14.4f %+8.1f%% %8.1f%% %6.0f%%%s\n", part[1], part[2], ma, mb, (mb - ma) / ma * 100, spread * 100, bounds[part[2]] * 100, verdict | "sort"
    }
    close("sort")
    if (failed) printf "%d run(s) failed their reference checks\n", failed
    exit (outside || failed) ? 1 : 0
}' "$log"
