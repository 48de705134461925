#!/usr/bin/env bash
# The benchmark's one command. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       builds the benchmark (offline, release) and runs one workload; the
#       last line of standard output is the result as one JSON object.
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>] [--smoke]
#       without --workload: all four workloads, one process each (so that
#       peak_rss_mb is per workload), untraced then traced. Exits non-zero
#       if any output failed its reference check. --smoke divides input
#       sizes by ten, runs one second each, and checks BENCHMARK.json.
set -euo pipefail

manifest=benchmark/Cargo.toml
if [[ ! -f $manifest ]]; then
    echo "run.sh: run from the root of a checkout (no $manifest here)" >&2
    exit 2
fi
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/threatraptor-benchmark

for arg in "$@"; do
    if [[ $arg == --workload ]]; then
        exec "$bin" "$@"
    fi
done

args=("$@")
if [[ " $* " == *" --smoke "* && " $* " != *" --seconds "* ]]; then
    args+=(--seconds 1)
fi
status=0
for workload in hunt-hot intel-cold ingest-only live-mixed; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" ${args[@]+"${args[@]}"} || status=1
    done
done
exit $status
