#!/usr/bin/env bash
# Repo-specific lints, run alongside clippy in CI.
#
# This script is a thin wrapper around the structured lint engine in
# crates/lint (`cargo run -p threatraptor-lint`). The engine replaced
# the old awk tripwire that lived here: the awk version only matched
# single-line `.lock().unwrap()` chains and — worse — exempted
# EVERYTHING after the first `#[cfg(test)]` line in a file, so any
# production code below a test module went unlinted. The engine scopes
# test/mutant exemptions to their actual brace spans and adds
# lock-order, hold-across-blocking, SeqCst-rationale, sync-facade,
# deadline-overflow and registry-lookup-in-a-loop rules. See
# crates/lint/src/rules.rs for the rule catalog (L001-L007).
set -euo pipefail
cd "$(dirname "$0")/.."

exec cargo run -q -p threatraptor-lint -- "$@"
