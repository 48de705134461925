//! The lint engine against its fixtures and against the real tree.
//!
//! Each fixture in `crates/lint/fixtures/` isolates one rule (or one
//! scoping behavior) and documents its expected findings; this suite
//! pins them. The final tests run the engine over the actual workspace:
//! zero findings by default, and exactly the seeded lock-order mutant
//! with `--include-mutants`.

use std::path::PathBuf;

use threatraptor_lint::{lint_source, lint_tree, workspace_root, Diagnostic, Options};

fn lint_fixture(name: &str, options: Options) -> Vec<Diagnostic> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    // Fixture paths sit outside crates/*/src so none of the path-based
    // exemptions (crates/check, crates/compat/sync) apply.
    lint_source(&format!("crates/lint/fixtures/{name}"), &source, options)
}

fn codes(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn l001_flags_unwrap_and_expect_on_guards() {
    let diags = lint_fixture("l001_guard_unwrap.rs", Options::default());
    assert_eq!(codes(&diags), ["L001"; 4], "{diags:#?}");
    // The split chain is caught even with `.unwrap()` on its own line
    // (the awk version could not see across lines).
    assert!(
        diags.iter().any(|d| d.line == 23),
        "split-chain site missing: {diags:#?}"
    );
}

#[test]
fn l002_flags_opposite_nesting_orders() {
    let diags = lint_fixture("l002_lock_cycle.rs", Options::default());
    assert_eq!(codes(&diags), ["L002"; 2], "{diags:#?}");
    for d in &diags {
        assert!(d.message.contains("cycle"), "{d}");
    }
}

#[test]
fn l003_flags_blocking_calls_under_guards() {
    let diags = lint_fixture("l003_send_under_lock.rs", Options::default());
    assert_eq!(codes(&diags), ["L003"; 3], "{diags:#?}");
    assert!(
        diags.iter().any(|d| d.message.contains("wait_epoch_newer")),
        "{diags:#?}"
    );
    // The send after the same-depth drop (fixture line 16) is clean;
    // the recv after the *conditional* drop is not.
    assert!(diags.iter().all(|d| d.line != 16), "{diags:#?}");
}

#[test]
fn l004_flags_bare_seqcst_only() {
    let diags = lint_fixture("l004_seqcst.rs", Options::default());
    assert_eq!(codes(&diags), ["L004"], "{diags:#?}");
}

#[test]
fn l005_flags_facade_bypasses() {
    let diags = lint_fixture("l005_std_sync.rs", Options::default());
    assert_eq!(codes(&diags), ["L005"; 4], "{diags:#?}");
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    for name in ["Mutex", "atomic", "Condvar", "RwLock"] {
        assert!(
            messages.iter().any(|m| m.contains(name)),
            "no finding names {name}: {diags:#?}"
        );
    }
}

#[test]
fn l006_flags_overflowing_deadline_arithmetic() {
    let diags = lint_fixture("l006_deadline_add.rs", Options::default());
    assert_eq!(codes(&diags), ["L006"; 3], "{diags:#?}");
    let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
    assert_eq!(lines, [7, 9, 10], "{diags:#?}");
    assert!(diags[0].message.contains("checked_add"), "{diags:#?}");
}

#[test]
fn l007_flags_registry_lookups_in_loop_bodies() {
    let diags = lint_fixture("l007_registry_in_loop.rs", Options::default());
    assert_eq!(codes(&diags), ["L007"; 4], "{diags:#?}");
    let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
    assert_eq!(lines, [21, 26, 36, 44], "{diags:#?}");
    assert!(diags[0].message.contains("counter_labeled"), "{diags:#?}");
}

#[test]
fn cfg_test_exemption_ends_at_the_closing_brace() {
    // The awk regression: production code BELOW a test module must be
    // linted, code inside it must not.
    let diags = lint_fixture("cfg_test_scope.rs", Options::default());
    assert_eq!(codes(&diags), ["L001"], "{diags:#?}");
    assert_eq!(diags[0].line, 25, "must be the below-the-tests site");
}

#[test]
fn allow_directives_suppress_only_their_code() {
    let diags = lint_fixture("allow_directive.rs", Options::default());
    assert_eq!(codes(&diags), ["L001"], "{diags:#?}");
    assert_eq!(diags[0].line, 22, "only the mismatched-code site");
}

#[test]
fn mutant_spans_are_skipped_unless_included() {
    let skipped = lint_fixture("mutants_scope.rs", Options::default());
    assert_eq!(codes(&skipped), ["L001"], "{skipped:#?}");
    let included = lint_fixture(
        "mutants_scope.rs",
        Options {
            include_mutants: true,
        },
    );
    assert_eq!(codes(&included), ["L001"; 2], "{included:#?}");
}

#[test]
fn the_real_tree_is_clean() {
    let reports = lint_tree(&workspace_root(), Options::default()).expect("tree lints");
    let all: Vec<String> = reports
        .iter()
        .flat_map(|r| r.diagnostics.iter().map(|d| d.to_string()))
        .collect();
    assert!(all.is_empty(), "tree has findings:\n{}", all.join("\n"));
}

#[test]
fn include_mutants_finds_exactly_the_seeded_lock_order_cycle() {
    let reports = lint_tree(
        &workspace_root(),
        Options {
            include_mutants: true,
        },
    )
    .expect("tree lints");
    let all: Vec<&Diagnostic> = reports.iter().flat_map(|r| r.diagnostics.iter()).collect();
    assert!(
        !all.is_empty(),
        "the seeded pool.rs lock-order mutant must be found"
    );
    for d in &all {
        assert_eq!(d.code, "L002", "unexpected extra finding: {d}");
        assert_eq!(d.path, "crates/service/src/pool.rs", "unexpected file: {d}");
    }
}
