#!/usr/bin/env bash
# Production lines of code per crate, the figure ROADMAP.md tracks.
#
# Each `.rs` file under `crates/*/src` and `crates/compat/*/src` counts
# its lines up to its first column-0 `#[cfg(test)]` (in-file tests are
# not production code). `crates/compat` is printed as one total with its
# shims beside it. `benchmark/src` and `tests/` count every line.
#
#   tools/loc.sh           this checkout's counts
#   tools/loc.sh <rev>     each row at <rev>, in this checkout, and the
#                          difference (exports <rev> into a temporary
#                          directory under $TMPDIR; removed on exit)
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

# The table for the tree rooted at $1, one tab-separated row per line:
# name, lines, note.
rows() {
    local dir n total=0 compat=0 shims=""
    for dir in "$1"/crates/*/src; do
        # shellcheck disable=SC2046
        n=$(production $(rs_files "$dir"))
        total=$((total + n))
        printf '%s\t%d\t\n' "$(basename "$(dirname "$dir")")" "$n"
    done
    for dir in "$1"/crates/compat/*/src; do
        # shellcheck disable=SC2046
        n=$(production $(rs_files "$dir"))
        compat=$((compat + n))
        shims="$shims, $(basename "$(dirname "$dir")") $n"
    done
    printf 'compat\t%d\t%s\n' "$compat" "${shims#, }"
    printf 'crates\t%d\t\n' "$((total + compat))"
    printf 'benchmark/src\t%d\tall lines\n' "$(all_lines "$1/benchmark/src")"
    printf 'tests/\t%d\tall lines\n' "$(all_lines "$1/tests")"
}

if (($# == 0)); then
    rows . | awk -F '\t' '{ printf "%-13s %6d%s\n", $1, $2, $3 == "" ? "" : "  (" $3 ")" }'
    exit
fi

rev=$1
old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
git archive "$rev" | tar -x -C "$old"
printf '%-13s %6s %6s %6s\n' '' "${rev:0:7}" now diff
# Rows in this checkout's order; a row only <rev> has comes last, at 0 now.
awk -F '\t' '
function row(name, before, after, note) {
    printf "%-13s %6d %6d %+6d%s\n", name, before, after, after - before, note == "" ? "" : "  (" note ")"
}
NR == FNR { before[$1] = $2; order[++n] = $1; next }
{ seen[$1] = 1; row($1, before[$1], $2, $3) }
END { for (i = 1; i <= n; i++) if (!(order[i] in seen)) row(order[i], before[order[i]], 0, "") }
' <(rows "$old") <(rows .)
