#!/usr/bin/env bash
# Parent-vs-change comparison of one benchmark workload, in alternating
# pairs (choosing-metrics §8) — the evidence a performance claim needs.
#
#   tools/pairs.sh <parent-rev> <workload> [pairs (default 10)] [seconds (default 10)]
#
# Exports <parent-rev> into a temporary directory (under $TMPDIR; removed
# on exit), then runs `bash benchmark/run.sh --workload <workload> --trace 0`
# on that copy and on this checkout: both sides of a pair get the same
# seed, every pair a fresh one, and the side that runs first alternates.
# Prints, per end-to-end metric, each side's median and quartiles, the
# pairs the change won and lost (ties count for neither), and a verdict:
# "better" or "worse" when one side wins at least nine tenths of the pairs
# AND the medians differ by more than the distance between the parent's
# own quartiles; otherwise "unresolved". Exits non-zero when a run failed
# its reference checks.
#
# A clean working tree is not required: "this checkout" is whatever is on
# disk, so uncommitted work can be measured before it is committed.
set -euo pipefail
cd "$(dirname "$0")/.."

if (($# < 2)); then
    sed -n '2,18p' "$0" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-10}

parent=$(mktemp -d)
trap 'rm -rf "$parent"' EXIT
git archive "$rev" | tar -x -C "$parent"
log=$parent/pairs.tsv
: >"$log"

run_side() { # side dir seed
    local result
    result=$(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" \
        --seconds "$seconds" --trace 0 | tail -n 1) || true
    if [[ $result != *'"correct": true'* ]]; then
        echo "pairs.sh: $1 seed $3 failed: $result" >&2
        echo "FAILED" >>"$log"
        return
    fi
    # "name": {"value": 1.5, "unit": "ms"} -> side seed name value
    grep -o '"[a-z0-9_.]*": {"value": [^,]*' <<<"$result" |
        sed -e 's/"//g' -e 's/: {value: /\t/' |
        awk -v s="$1" -v p="$3" '{ print s "\t" p "\t" $1 "\t" $2 }' >>"$log"
}

for ((pair = 0; pair < pairs; pair++)); do
    seed=$((300 + pair))
    if ((pair % 2)); then
        run_side change . "$seed"
        run_side parent "$parent" "$seed"
    else
        run_side parent "$parent" "$seed"
        run_side change . "$seed"
    fi
    echo "pairs.sh: pair $((pair + 1))/$pairs done (seed $seed)" >&2
done

awk -v manifest=BENCHMARK.json -v workload="$workload" -v rev="$rev" '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
# Quantiles as Python statistics.quantiles(values, n=4) gives them; `a` is sorted.
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
            order[++metrics] = name; higher[name] = (better == "higher")
        }
}
$1 == "FAILED" { failed++; next }
{ v[$1, $2, $3] = $4; seeds[$2] = 1 }
END {
    printf "%s: change vs parent %s\n", workload, rev
    printf "%-12s %-7s %12s %12s %12s %5s %5s  %s\n", "metric", "side", "q1", "median", "q3", "won", "lost", "verdict"
    for (m = 1; m <= metrics; m++) {
        name = order[m]; n = 0; won = 0; lost = 0
        for (seed in seeds) {
            if (!((("parent", seed, name) in v) && (("change", seed, name) in v))) continue
            n++; p[n] = v["parent", seed, name]; c[n] = v["change", seed, name]
            gain = higher[name] ? c[n] - p[n] : p[n] - c[n]
            if (gain > 0) won++; else if (gain < 0) lost++
        }
        if (n == 0) continue
        sort(p, n); sort(c, n)
        pm = quartile(p, n, 2); cm = quartile(c, n, 2)
        iqr = quartile(p, n, 3) - quartile(p, n, 1)
        gain = higher[name] ? cm - pm : pm - cm
        verdict = "unresolved"
        if (won >= 0.9 * n && gain > iqr) verdict = "better"
        if (lost >= 0.9 * n && -gain > iqr) verdict = "worse"
        printf "%-12s %-7s %12.4f %12.4f %12.4f\n", name, "parent", quartile(p, n, 1), pm, quartile(p, n, 3)
        printf "%-12s %-7s %12.4f %12.4f %12.4f %5d %5d  %s (median %+.1f%%, %d pairs)\n", "", "change", quartile(c, n, 1), cm, quartile(c, n, 3), won, lost, verdict, (cm - pm) / pm * 100, n
    }
    if (failed) printf "%d run(s) failed their reference checks\n", failed
    exit failed ? 1 : 0
}' "$log"
