#!/usr/bin/env bash
# Production lines of code per crate, the figure ROADMAP.md tracks.
#
# Each `.rs` file under `crates/*/src` and `crates/compat/*/src` counts
# its lines up to its first column-0 `#[cfg(test)]` (in-file tests are
# not production code). `crates/compat` is printed as one total with its
# shims beside it. `benchmark/src` and `tests/` count every line.
#
#   tools/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of the given files, each cut at its first column-0 #[cfg(test)].
production() {
    [ "$#" -eq 0 ] && { echo 0; return; }
    awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n + 0 }' "$@"
}

# Every line of the .rs files under a directory.
all_lines() {
    find "$1" -name '*.rs' -print0 | xargs -0 cat | wc -l
}

rs_files() {
    find "$1" -name '*.rs' | sort
}

total=0
for dir in crates/*/src; do
    name=$(basename "$(dirname "$dir")")
    # shellcheck disable=SC2046
    n=$(production $(rs_files "$dir"))
    total=$((total + n))
    printf '%-13s %6d\n' "$name" "$n"
done

compat=0
shims=""
for dir in crates/compat/*/src; do
    name=$(basename "$(dirname "$dir")")
    # shellcheck disable=SC2046
    n=$(production $(rs_files "$dir"))
    compat=$((compat + n))
    shims="$shims, $name $n"
done
total=$((total + compat))
printf '%-13s %6d  (%s)\n' compat "$compat" "${shims#, }"
printf '%-13s %6d\n' crates "$total"
printf '%-13s %6d  (all lines)\n' benchmark/src "$(all_lines benchmark/src)"
printf '%-13s %6d  (all lines)\n' tests/ "$(all_lines tests)"
